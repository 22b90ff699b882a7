"""Code mutations that the Tier-1 tests must catch.

Usage, from the repository root:

    python scripts/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/``, an exact text in it,
the text that replaces it, and the test node ids that guard it. For each
entry the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the edit there, and runs pytest on the named
tests against the copy. The entry holds when at least one of them fails.
It is stale, and fails the script, when its text does not occur exactly
once (a refactor must update the entry) or when pytest collects nothing or
stops on an error. Standard library only; prints one line per entry and
exits 1 unless every entry holds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# the suite runs from the copy: its tests, and pyproject.toml's pythonpath = ["src"]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]


KERNEL = "tests/test_dual.py::TestKernelsAgainstReference"

MUTANTS = (
    # dual._longest_paths, the chain-potential kernel
    Mutant("the cycle re-run records no predecessor", "lorot/dual.py",
           "_, batch = relax(pred)", "_, batch = relax(None)", (KERNEL,)),
    Mutant("a label rises on a tie with the bar", "lorot/dual.py",
           "greater(cand, bar, out=up)", "np.greater_equal(cand, bar, out=up)", (KERNEL,)),
    Mutant("the rise bar is not refreshed after a rise", "lorot/dual.py",
           "add(dist, tol, out=bar)", "pass", (KERNEL,)),
    Mutant("the cycle walk starts at the last queued atom", "lorot/dual.py",
           "walk, at = [batch[0]], {}", "walk, at = [batch[-1]], {}", (KERNEL,)),
    Mutant("one FIFO pass fewer", "lorot/dual.py",
           "for _ in range(n):", "for _ in range(n - 1):", (KERNEL,)),
    # solver
    Mutant("the first blocking arc leaves", "lorot/solver.py",
           "leave = falling[len(flows) - 1 - flows[::-1].index(delta)]",
           "leave = falling[flows.index(delta)]",
           ("tests/test_solver.py::TestBasis::test_pivots_keep_the_tree_strongly_feasible",)),
    Mutant("_integer_marginals does not reduce by h", "lorot/solver.py",
           "h = gcd(fa * gcd(denom, *a), fb * gcd(*b))", "h = 1",
           ("tests/test_solver.py::TestMarginals",)),
    Mutant("the registry holds problems strongly", "lorot/solver.py",
           "_PRICED = WeakValueDictionary()", "_PRICED = {}",
           ("tests/test_solver.py::TestHeldCostMatrix::test_no_entry_outlives_its_problem",)),
    Mutant("the registry finds a matrix under another model", "lorot/solver.py",
           "problem = _PRICED.get((id(mu), id(nu), model))",
           "problem = next((p for k, p in _PRICED.items() if k[:2] == (id(mu), id(nu))), None)",
           ("tests/test_solver.py::TestHeldCostMatrix::test_copies_and_other_models_stream",)),
    # dual.c_transform over a held matrix
    Mutant("held costs off by 1e-15", "lorot/dual.py",
           "lambda rows, out, work: C[rows])", "lambda rows, out, work: C[rows] + 1e-15)",
           ("tests/test_solver.py::TestHeldCostMatrix::test_held_equals_streamed",)),
    # diagnostics
    Mutant("the audit's index rows are drawn transposed", "lorot/diagnostics.py",
           "e1, e2 = rng.integers(0, len(ii), size=(2, samples))",
           "e2, e1 = rng.integers(0, len(ii), size=(2, samples))",
           ("tests/test_diagnostics.py::TestAuditDraws",)),
    Mutant("a support entry's own cost read at a wrong flat index", "lorot/diagnostics.py",
           "own = flat.take(ii * m + jj)", "own = flat.take(jj * m + ii)",
           ("tests/test_diagnostics.py::TestAuditDraws",)),
    # spacetime and the command line
    Mutant("a doubled coordinate bound", "lorot/spacetime.py",
           "COORD_BOUND = 2.0**500", "COORD_BOUND = 2.0**501",
           ("tests/test_solver.py::TestCoordinateBound",)),
    Mutant("a parser built per call", "lorot/cli.py",
           "@functools.cache  # one parser a process", "# one parser a process",
           ("tests/test_cli.py::TestParserOnce",)),
    Mutant("dual exits 3 on a split support", "lorot/cli.py",
           "except UnreachableAtom as exc:", "except SchemaError as exc:",
           ("tests/test_cli.py::TestOtherCommands::test_dual_reports_a_split_support_as_a_result",)),
)


def run_tests(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """pytest on ``tests`` in a fresh copy of the repository, with ``mutant``
    applied; ``ValueError`` when its old text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="lorot-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            path = Path(tmp) / "src" / mutant.path
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise ValueError(f"the old text occurs {text.count(mutant.old)} times "
                                 f"in src/{mutant.path}")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def check(mutant: Mutant) -> str | None:
    """None when a named test fails on the mutated copy, else why the entry fails."""
    try:
        run = run_tests(mutant.tests, mutant)
    except ValueError as exc:
        return f"stale: {exc}"
    if run.returncode == 1:  # a test failed
        return None
    if run.returncode == 0:
        return "survived: every named test passed"
    tail = run.stdout.strip().splitlines()[-1:] or [""]
    return f"stale: pytest exited {run.returncode} ({tail[0]})"


def main() -> int:
    start = time.perf_counter()
    # a kill proves something only if the named tests pass on the code as it is
    control = run_tests(sorted({test for mutant in MUTANTS for test in mutant.tests}))
    if control.returncode != 0:
        print(control.stdout)
        print("the named tests do not pass without a mutation")
        return 1
    print(f"control  {time.perf_counter() - start:5.1f} s  the named tests pass unmutated")
    failed = 0
    for mutant in MUTANTS:
        t = time.perf_counter()
        why = check(mutant)
        failed += why is not None
        print(f"{'FAIL' if why else 'killed':6} {time.perf_counter() - t:5.1f} s  {mutant.name}"
              + (f": {why}" if why else ""), flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
