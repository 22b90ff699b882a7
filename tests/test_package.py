import ast
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import lorot

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def loaded_modules(code, prefix):
    """Modules under ``prefix`` loaded once ``code`` has run in a fresh interpreter."""
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    src = str(Path(lorot.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is imported lazily, only by the oracle and polytope_volume
    assert loaded_modules("import lorot", "scipy") == "[]"


def test_rays_path_leaves_scipy_sparse_unloaded():
    # the ray components are plain numpy; scipy.sparse would add ~30 MB of RSS
    code = """
import lorot
p = lorot.separated_rays_problem(0)
c, _ = lorot.solve(p)
lorot.ray_decomposition(p.model, c)
assert isinstance(lorot.monge_map(p.model, p), lorot.MongeMap)
lorot.interpolate(p.model, c, 0.5)
lorot.restrict(p.model, c, 0.25, 0.75)
"""
    assert loaded_modules(code, "scipy.sparse") == "[]"


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def unused_imports(source):
    """Names a module imports and never reads; ``__future__`` imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_import_check_sees_an_unread_name():
    assert unused_imports("from bisect import bisect_left, bisect_right\n"
                          "import numpy as np\nbisect_left(np.arange(3), 1)\n") == [(1, "bisect_right")]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports its names only to export them
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in Path(lorot.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_every_mutant_edits_one_text_of_the_library():
    # scripts/mutants.py runs the mutants against the tests; this checks only
    # that each entry still names one text and existing test files, so a
    # refactor that moves a guarded line shows here
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
    src = Path(lorot.__file__).resolve().parent.parent
    assert len(mutants) >= 15
    for mutant in mutants:
        assert (src / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests), mutant.name
