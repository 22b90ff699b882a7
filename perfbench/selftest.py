"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload, at its smallest size, untraced and traced, prints a
   correct result holding every metric BENCHMARK.json names, with its unit.
2. Negative controls: a coupling with one exact unit of mass moved, and LP
   duals with one entry lowered, are each counted as a failed instance.
3. In a directory holding only BENCHMARK.json and the benchmark's own files,
   the benchmark exits with a nonzero code and prints no result.

Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics():
    spec = run.benchmark_spec()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            proc = bench("--workload", w["name"], "--seed", "0", "--seconds", "0",
                         "--trace", str(trace), "--small")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, f"{w['name']} trace={trace}: {sorted(set(got) ^ set(wanted))}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"ok  {w['name']:<13} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} instances")


def check_negative_controls():
    sys.path.insert(0, str(ROOT / "src"))
    import lorot
    import workloads
    from checks import certify, lowered_duals, moved_unit_coupling
    from probe import Probe

    problem = lorot.experiments.random_strict_problem(11)
    coupling, duals = lorot.solve(problem)
    assert certify(problem, coupling, duals).ok, "the unmodified solve must pass"
    controls = {
        "moved unit of mass": (moved_unit_coupling(coupling), duals),
        "lowered dual entry": (coupling, lowered_duals(coupling, duals)),
    }
    tally = workloads.Tally(Probe())
    for label, result in controls.items():
        with tally.instance(label):
            tally.probe.captured["solver.solve"].append(({"problem": problem}, result))
            tally.certify_solves()
    assert tally.attempted == 2 and tally.failed == 2, tally.failures
    for failure in tally.failures:
        print(f"ok  negative control counted as failed: {failure}")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / HERE.name)
    proc = bench("--workload", "rays_monge", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare, bench_dir=bare / HERE.name)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark must fail without the program's sources"
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok  without sources: exit code {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_metrics()
    check_negative_controls()
    check_bare_directory()
    print("selftest passed")
