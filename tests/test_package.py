import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import lorot

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_import_leaves_scipy_unloaded():
    # scipy is imported lazily, only by the oracle and polytope_volume
    code = "import sys, lorot; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(lorot.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
