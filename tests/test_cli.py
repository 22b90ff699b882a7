import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from lorot import cli, problem_to_json
from lorot.cli import build_parser, main
from lorot.experiments import separated_rays_problem

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


class TestFlags:
    def test_flag_table(self):
        # a flag is registered only on the commands whose handler reads it
        expected = {
            "solve": {"--input", "--out"},
            "dual": {"--input", "--out", "--tol"},
            "audit": {"--input", "--out", "--seed"},
            "interpolate": {"--input", "--out", "--t"},
            "monge": {"--input", "--out"},
            "counterexample-line": {"--out", "--n"},
            "counterexample-cylinder": {"--out", "--eps", "--grid", "--t"},
            "validate": {"--input", "--out"},
        }
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == expected

    @pytest.mark.parametrize("argv", [
        ["counterexample-line", "--n", "abc"],
        ["dual", "--input", json.dumps(PROBLEM), "--tol", "0"],
        ["solve", "--input", json.dumps(PROBLEM), "--tol", "1e-3"],
        ["counterexample-line"],
        ["interpolate", "--input", json.dumps(PROBLEM)],
        ["counterexample-cylinder", "--t", "1e-320"],
        ["counterexample-cylinder", "--t", "5e-324"],
    ], ids=["bad-int", "nonpositive-tol", "unknown-flag", "missing-n", "missing-t",
            "subnormal-t", "least-subnormal-t"])
    def test_usage_errors_exit_3(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "lorot: invalid input:" in capsys.readouterr().err

    def test_defaults_recorded(self, problem_file, tmp_path):
        out = tmp_path / "cyl"
        assert main(["counterexample-cylinder", "--grid", "200", "--out", str(out)]) == 0
        assert read_result(out)["config"] == {
            "command": "counterexample-cylinder", "out": str(out),
            "eps": 0.25, "t": 1.0, "grid": 200,
        }
        out = tmp_path / "dual"
        assert main(["dual", "--input", str(problem_file), "--out", str(out)]) == 0
        assert read_result(out)["config"]["tol"] == 1e-8


class TestOtherCommands:
    def test_dual(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["dual", "--input", str(problem_file), "--out", str(out)]) == 0
        result = read_result(out)["result"]
        assert result["feasible"] and result["support_tight"]
        assert (out / "psi.csv").exists() and (out / "phi.csv").exists()

    def test_dual_builds_one_cost_matrix(self, problem_file, tmp_path, cost_matrix_calls):
        # phi is the c-transform over the problem's own matrix, not a second build
        assert main(["dual", "--input", str(problem_file), "--out", str(tmp_path)]) == 0
        assert cost_matrix_calls == [(2, 2)]

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

    @pytest.mark.parametrize("t", ["2.2250738585072014e-308", "1e-200"])
    def test_counterexample_cylinder_tiny_normal_t(self, t, tmp_path):
        out = tmp_path / "out"
        assert main(["counterexample-cylinder", "--t", t, "--grid", "1000",
                     "--out", str(out)]) == 0
        assert read_result(out)["result"]["scalars"]["delta_trailing_cone"]["value"] > 0


def reference_format(x) -> str:
    """The per-value rule every CSV value follows: 17 significant digits
    for a float, ``str`` for anything else."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def reference_csv(table) -> bytes:
    lines = [",".join(table.dtype.names)]
    lines += [",".join(reference_format(v) for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    @pytest.fixture
    def written(self, monkeypatch):
        """Every (path, table) the CLI writes as CSV."""
        calls = []
        write = cli._write_csv

        def spy(path, table):
            calls.append((path, table))
            write(path, table)

        monkeypatch.setattr(cli, "_write_csv", spy)
        return calls

    @pytest.mark.parametrize("problem", [PROBLEM, problem_to_json(separated_rays_problem(0))],
                             ids=["fixture", "rays0"])
    @pytest.mark.parametrize("command, files", [
        ("solve", ["coupling.csv"]),
        ("dual", ["psi.csv", "phi.csv"]),
        ("monge", ["monge.csv"]),
    ])
    def test_problem_tables_match_the_per_value_rule(self, problem, command, files,
                                                     written, tmp_path):
        main([command, "--input", json.dumps(problem), "--out", str(tmp_path)])
        assert [path.name for path, _ in written] == files
        for path, table in written:
            assert path.read_bytes() == reference_csv(table)

    @pytest.mark.parametrize("argv, name", [
        (["counterexample-line", "--n", "51"], "levels.csv"),
        (["counterexample-cylinder", "--grid", "500"], "subdifferential.csv"),
    ])
    def test_experiment_tables_match_the_per_value_rule(self, argv, name, written, tmp_path):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        [(path, table)] = written
        assert path.name == name
        assert path.read_bytes() == reference_csv(table)

    def test_edge_values(self, tmp_path):
        table = np.rec.fromarrays(
            [np.array([-0.0, 5e-324, 0.1, 1 / 3, 1e300]), np.array([0, -7, 2**62, 1, 10])],
            names="x,k",
        )
        cli._write_csv(tmp_path / "t.csv", table)
        text = (tmp_path / "t.csv").read_bytes()
        assert text == reference_csv(table)
        assert text.decode().splitlines()[1:3] == ["-0,0", "4.9406564584124654e-324,-7"]
        assert [float(line.split(",")[0]) for line in text.decode().splitlines()[1:]] == \
            table["x"].tolist()


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

    def test_unknown_field_violation(self, tmp_path):
        bad = dict(PROBLEM, optoins={"tolerance": 1e-9})
        out = tmp_path / "out"
        assert main(["validate", "--input", json.dumps(bad), "--out", str(out)]) == 3
        violations = read_result(out)["result"]["violations"]
        assert any("'optoins'" in v for v in violations)

    @pytest.mark.parametrize("model", [{"kind": "minkowski", "d": True},
                                       {"kind": "cylinder", "circumference": True}])
    def test_boolean_model_field_exits_3(self, model, tmp_path):
        bad = dict(PROBLEM, model=model)
        for command in ("validate", "solve"):
            assert main([command, "--input", json.dumps(bad), "--out", str(tmp_path)]) == 3

    def test_empty_measure_violation(self, tmp_path):
        bad = dict(PROBLEM)
        bad["mu"] = {"atoms": []}
        out = tmp_path / "out"
        assert main(["validate", "--input", json.dumps(bad), "--out", str(out)]) == 3
        violations = read_result(out)["result"]["violations"]
        assert any("empty measure" in v for v in violations)
