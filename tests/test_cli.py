import json
from pathlib import Path

import pytest

from lorot.cli import main

PROBLEM = {
    "model": {"kind": "minkowski", "d": 1},
    "mu": {"atoms": [{"x": [0.0], "t": 0.0, "w": 0.5}, {"x": [1.0], "t": 0.0, "w": 0.5}]},
    "nu": {"atoms": [{"x": [0.0], "t": 2.0, "w": 0.5}, {"x": [1.0], "t": 2.0, "w": 0.5}]},
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    return path


def read_result(out_dir):
    return json.loads((Path(out_dir) / "result.json").read_text())


class TestSolveCommand:
    def test_solve_writes_cost_and_csv(self, problem_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--input", str(problem_file), "--out", str(out)]) == 0
        result = read_result(out)
        assert result["result"]["cost"] == -2.0
        assert result["result"]["dual_gap"] <= 1e-8
        assert result["result"]["n_arcs"] == 2
        assert result["version"] == "0.1.0"
        assert result["config"]["command"] == "solve"
        lines = (out / "coupling.csv").read_text().splitlines()
        assert lines[0] == "i,j,mass,cost"
        assert len(lines) == 3
        stdout = capsys.readouterr().out
        assert json.loads(stdout.strip())["result"]["cost"] == -2.0

    def test_inline_json_input(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--input", json.dumps(PROBLEM), "--out", str(out)]) == 0
        assert read_result(out)["result"]["cost"] == -2.0

    def test_infeasible_exit_code(self, tmp_path):
        bad = dict(PROBLEM)
        bad["nu"] = {"atoms": [{"x": [0.0], "t": -5.0, "w": 1.0}]}
        out = tmp_path / "out"
        code = main(["solve", "--input", json.dumps(bad), "--out", str(out)])
        assert code == 2
        assert read_result(out)["error"]["kind"] == "infeasible"

    def test_malformed_json_exit_code(self, tmp_path):
        assert main(["solve", "--input", "{oops", "--out", str(tmp_path)]) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 3


class TestDeterminism:
    def test_byte_identical_reruns(self, problem_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["solve", "--input", str(problem_file), "--out", str(out)]) == 0
        for name in ("result.json", "coupling.csv"):
            a = (out1 / name).read_bytes().replace(str(out1).encode(), b"OUT")
            b = (out2 / name).read_bytes().replace(str(out2).encode(), b"OUT")
            assert a == b

    def test_seed_recorded(self, problem_file, tmp_path):
        out = tmp_path / "out"
        main(["audit", "--input", str(problem_file), "--out", str(out), "--seed", "7"])
        assert read_result(out)["config"]["seed"] == 7


class TestOtherCommands:
    def test_dual(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["dual", "--input", str(problem_file), "--out", str(out)]) == 0
        result = read_result(out)["result"]
        assert result["feasible"] and result["support_tight"]
        assert (out / "psi.csv").exists() and (out / "phi.csv").exists()

    def test_audit(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["audit", "--input", str(problem_file), "--out", str(out)]) == 0
        result = read_result(out)["result"]
        assert result["monotonicity_violations"] == 0
        assert result["min_margin"] == 2.0

    def test_interpolate(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["interpolate", "--input", str(problem_file), "--out", str(out),
                     "--t", "0.5"]) == 0
        measure = json.loads((out / "interpolated.json").read_text())
        assert [a["t"] for a in measure["atoms"]] == [1.0, 1.0]
        assert main(["interpolate", "--input", str(problem_file), "--out", str(out),
                     "--t", "1.5"]) == 3

    def test_monge(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["monge", "--input", str(problem_file), "--out", str(out)]) == 0
        rows = (out / "monge.csv").read_text().splitlines()
        assert rows == ["mu_index,nu_index", "0,0", "1,1"]

    def test_monge_atom_split_result(self, tmp_path):
        prob = {
            "model": {"kind": "minkowski", "d": 1},
            "mu": {"atoms": [{"x": [0.0], "t": 0.0, "w": 1.0}]},
            "nu": {"atoms": [{"x": [0.0], "t": 2.0, "w": 0.5},
                              {"x": [0.0], "t": 3.0, "w": 0.5}]},
        }
        out = tmp_path / "out"
        assert main(["monge", "--input", json.dumps(prob), "--out", str(out)]) == 0
        assert read_result(out)["result"]["atom_split"]["mu_index"] == 0

    def test_counterexample_line(self, tmp_path):
        out = tmp_path / "out"
        assert main(["counterexample-line", "--n", "51", "--out", str(out)]) == 0
        scalars = read_result(out)["result"]["scalars"]
        assert scalars["spread_n51"]["value"] == pytest.approx(99**0.5, abs=1e-6)
        assert scalars["lightlike_fraction_n51"]["value"] == 1.0
        assert (out / "levels.csv").exists()

    def test_counterexample_cylinder(self, tmp_path):
        out = tmp_path / "out"
        assert main(["counterexample-cylinder", "--eps", "0.25", "--t", "1.0",
                     "--grid", "500", "--out", str(out)]) == 0
        result = read_result(out)["result"]
        assert result["scalars"]["delta_trailing_cone"]["value"] > 0
        table = (out / "subdifferential.csv").read_text().splitlines()
        assert table[0] == "theta,y_theta,margin"
        assert len(table) == 501


class TestValidateCommand:
    def test_ok(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", "--input", str(problem_file), "--out", str(out)]) == 0
        assert read_result(out)["result"]["ok"] is True

    def test_mass_violation(self, tmp_path):
        bad = dict(PROBLEM)
        bad["mu"] = {"atoms": [{"x": [0.0], "t": 0.0, "w": 0.9}]}
        out = tmp_path / "out"
        assert main(["validate", "--input", json.dumps(bad), "--out", str(out)]) == 3
        violations = read_result(out)["result"]["violations"]
        assert any("mass" in v for v in violations)

    def test_empty_measure_violation(self, tmp_path):
        bad = dict(PROBLEM)
        bad["mu"] = {"atoms": []}
        out = tmp_path / "out"
        assert main(["validate", "--input", json.dumps(bad), "--out", str(out)]) == 3
        violations = read_result(out)["result"]["violations"]
        assert any("empty measure" in v for v in violations)
