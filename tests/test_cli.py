import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorot import _csv, cli, experiments, problem_to_json
from lorot.cli import build_parser, main
from lorot.experiments import run_cylinder_example, separated_rays_problem

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

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", "--input", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(
            f"lorot: invalid input: cannot read input {str(path)!r}: 'utf-8' codec can't decode")


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


def dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with ``DYNAMIC_ARCH``, whose
    kernel ``OPENBLAS_CORETYPE`` picks when the library loads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 cannot report its build as a dict
        return False
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH "
                    "OpenBLAS, so OPENBLAS_CORETYPE cannot switch its kernel")
@pytest.mark.parametrize("command, builder, seed", [
    # audit reports dual_gap, and monge the Monge cost; monge needs a ray instance
    ("audit", "random_strict_problem", 0),
    ("monge", "separated_rays_problem", 3),
    # the fitted log_log_slope, with no input file
    ("counterexample-line", None, 5),
])
def test_result_block_is_the_same_under_two_blas_kernels(command, builder, seed, tmp_path):
    if builder is None:
        argv = [command, "--n", str(seed)]
    else:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_to_json(getattr(experiments, builder)(seed))))
        argv = [command, "--input", str(path)]
    src = str(Path(cli.__file__).resolve().parent.parent)
    results = []
    for kernel in ("Prescott", "Haswell"):
        out = tmp_path / kernel
        subprocess.run([sys.executable, "-m", "lorot.cli", *argv, "--out", str(out)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel})
        results.append(read_result(out)["result"])
    assert results[0] == results[1]


# a flag is registered only on the commands whose handler reads it
FLAGS = {
    "solve": {"--input", "--out"},
    "dual": {"--input", "--out", "--tol"},
    "audit": {"--input", "--out", "--seed"},
    "interpolate": {"--input", "--out", "--t"},
    "monge": {"--input", "--out"},
    "counterexample-line": {"--out", "--n"},
    "counterexample-cylinder": {"--out", "--eps", "--grid", "--t"},
    "validate": {"--input", "--out"},
}


class TestFlags:
    def test_flag_table(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == FLAGS

    @pytest.mark.parametrize("argv", [
        ["counterexample-line", "--n", "abc"],
        ["dual", "--input", json.dumps(PROBLEM), "--tol", "0"],
        ["solve", "--input", json.dumps(PROBLEM), "--tol", "1e-3"],
        ["counterexample-line"],
        ["interpolate", "--input", json.dumps(PROBLEM)],
        ["counterexample-cylinder", "--t", "1e-320"],
        ["counterexample-cylinder", "--t", "5e-324"],
        ["audit", "--input", json.dumps(PROBLEM), "--seed", "-1"],
    ], ids=["bad-int", "nonpositive-tol", "unknown-flag", "missing-n", "missing-t",
            "subnormal-t", "least-subnormal-t", "negative-seed"])
    def test_usage_errors_exit_3(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "lorot: invalid input:" in capsys.readouterr().err

    def test_defaults_recorded(self, problem_file, tmp_path):
        out = tmp_path / "cyl"
        assert main(["counterexample-cylinder", "--grid", "250", "--out", str(out)]) == 0
        assert read_result(out)["config"] == {
            "command": "counterexample-cylinder", "out": str(out),
            "eps": 0.25, "t": 1.0, "grid": 250,
        }
        out = tmp_path / "dual"
        assert main(["dual", "--input", str(problem_file), "--out", str(out)]) == 0
        assert read_result(out)["config"]["tol"] == 1e-8
        # the config is the parsed namespace: nothing but the command and its flags
        required = {"interpolate": ["--t", "0.5"], "counterexample-line": ["--n", "3"],
                    "counterexample-cylinder": ["--grid", "250"]}
        for command, flags in FLAGS.items():
            out = tmp_path / command
            argv = [command, *required.get(command, []), "--out", str(out)]
            if "--input" in flags:
                argv += ["--input", str(problem_file)]
            assert main(argv) == 0
            assert set(read_result(out)["config"]) == {"command", "out"} | {f[2:] for f in flags}


class TestParserOnce:
    def test_one_parser_serves_every_call(self, problem_file, tmp_path):
        """A usage error leaves the one cached parser as it was for the next call."""
        assert build_parser() is build_parser()
        assert main(["audit", "--input", str(problem_file), "--seed", "x", "--out", str(tmp_path)]) == 3
        for seed in ("7", None):
            out = tmp_path / f"seed-{seed}"
            flags = ["--seed", seed] if seed else []
            assert main(["audit", "--input", str(problem_file), *flags, "--out", str(out)]) == 0
            assert read_result(out)["config"] == {
                "command": "audit", "input": str(problem_file), "out": str(out), "seed": int(seed or 0)}


class TestOtherCommands:
    def test_dual(self, problem_file, tmp_path):
        out = tmp_path / "out"
        assert main(["dual", "--input", str(problem_file), "--out", str(out)]) == 0
        result = read_result(out)["result"]
        assert result["feasible"] and result["support_tight"]
        assert (out / "psi.csv").exists() and (out / "phi.csv").exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
    def test_dual_refuses_a_tolerance_not_positive_and_finite(self, tol, problem_file,
                                                             tmp_path, capsys):
        argv = ["dual", "--input", str(problem_file), f"--tol={tol}", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert f"--tol must be positive and finite, got {tol}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("grid", ["100", "249"])
    def test_grid_below_the_floor_exits_3(self, grid, tmp_path, capsys):
        # with eps <= 0.01 and t = 1, grid 245 puts no cell centre under eta = 0.01
        assert main(["counterexample-cylinder", "--grid", grid, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "lorot: invalid input: --grid must be at least 250\n"

    def test_failed_experiment_check_exits_3(self, tmp_path, capsys, monkeypatch):
        # no margin lies below eta = 0, so that near-null set is always empty
        monkeypatch.setattr(cli, "run_cylinder_example", lambda eps, grid, t, rows: (
            run_cylinder_example(eps, grid, t, etas=(0.0,), rows=rows)))
        assert main(["counterexample-cylinder", "--grid", "250", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "lorot: experiment check failed: near-null set at eta=0.0 has zero measure\n")
        # the rows were streamed before the check failed; no output is left
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t", ["2.2250738585072014e-308", "1e-200"])
    def test_counterexample_cylinder_tiny_normal_t(self, t, tmp_path):
        out = tmp_path / "out"
        assert main(["counterexample-cylinder", "--t", t, "--grid", "1000",
                     "--out", str(out)]) == 0
        assert read_result(out)["result"]["scalars"]["delta_trailing_cone"]["value"] > 0

    @pytest.mark.parametrize("blocked, reason", [
        ("", "File exists"),
        ("result.json", "Is a directory"),
        ("subdifferential.csv", "Is a directory"),
    ], ids=["out-is-a-file", "result-json-is-a-directory", "csv-is-a-directory"])
    def test_unwritable_output_exits_3(self, blocked, reason, tmp_path, capsys):
        out = tmp_path / "out"
        if blocked:
            (out / blocked).mkdir(parents=True)
        else:
            out.touch()
        assert main(["counterexample-cylinder", "--grid", "250", "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"lorot: cannot write output: {out / blocked}: {reason}\n")


MIXED_LAYOUTS = [0.5, -0.062, 0.00731, -0.0001234567890123, 2.5e-5, -1.2345678901234567e17,
                 6.02e100, -7.5e-100, 3e-300, -4.2e300, 0.0, -0.0, 5e-324,
                 1234567890123456.25, 12.75]


def reference_format(x) -> str:
    """The per-value rule every CSV value follows: ``%.17g`` for a float,
    ``%d`` for an integer or a bool."""
    if isinstance(x, float):
        return "%.17g" % x
    return "%d" % x


def written_bytes(table, directory: Path) -> bytes:
    cli._write_csv(directory / "t.csv", table)
    return (directory / "t.csv").read_bytes()


def reference_csv(table) -> bytes:
    lines = [",".join(table.dtype.names)]
    lines += [",".join(reference_format(v) for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    @pytest.fixture
    def written(self, monkeypatch):
        """Every (path, table) the CLI writes as CSV, a streamed table's
        blocks joined into one record array."""
        calls = []

        class Spy(_csv.CsvWriter):
            def __init__(self, path):
                super().__init__(path)
                self.blocks = []

            def __call__(self, table):
                self.blocks.append(table.copy())
                super().__call__(table)

            def __exit__(self, *exc_info):
                super().__exit__(*exc_info)
                calls.append((self.path, np.concatenate(self.blocks).view(np.recarray)))

        monkeypatch.setattr(_csv, "CsvWriter", Spy)  # write_csv's writer
        monkeypatch.setattr(cli, "CsvWriter", Spy)  # the cylinder command's writer
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
        (["counterexample-cylinder", "--grid", "100000", "--eps", "0.25", "--t", "1.0"],
         "subdifferential.csv"),
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

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
         1.7976931348623157e308, np.nan, np.inf, -np.inf],
        # exact ties at the 17th digit, and values next to the fast path's range
        [1234567890123456.25, 1234567890123456.75, -1234567890123456.25, 1e-280, 1e280,
         np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf), 1e-300, 1e300],
        [s * 10.0**k for k in range(-30, 31) for s in (1, -1)],
        [np.nextafter(10.0**k, d) for k in range(-30, 31) for d in (0, np.inf)],
        # every chunk mixes 1-4 leading zeros, exponents, zeros, a subnormal and a tie
        np.resize(MIXED_LAYOUTS, 2 * _csv._CHUNK + len(MIXED_LAYOUTS)),
    ], ids=["specials", "ties-and-range", "powers-of-ten", "power-neighbours", "mixed-chunks"])
    def test_float_values(self, values, tmp_path):
        table = np.rec.fromarrays([np.asarray(values, dtype=np.float64)], names="x")
        assert written_bytes(table, tmp_path) == reference_csv(table)

    def test_fast_path_covers_powers_of_ten_and_their_neighbours(self):
        x = np.array([10.0**k for k in range(17)] + [1e147, 1e-147] +
                     [np.nextafter(10.0**k, d) for k in range(-30, 31) for d in (0, np.inf)])
        planes = np.zeros((_csv._FLOAT_WIDTH, len(x)), dtype=np.uint8)
        fallback = _csv._float_planes(x, planes)
        assert x[fallback].tolist() == [999999999999999.875]  # an exact tie at the 17th digit

    def test_seeded_bit_pattern_sweep(self, tmp_path):
        bits = np.random.default_rng(12).integers(0, 2**64, (8, 125_000), dtype=np.uint64)
        table = np.rec.fromarrays(list(bits.view(np.float64)))
        assert written_bytes(table, tmp_path) == reference_csv(table)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_float_bit_patterns(self, tmp_path_factory, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        table = np.rec.fromarrays([x, -x], names="x,y")
        assert written_bytes(table, tmp_path_factory.mktemp("csv")) == reference_csv(table)

    def test_integer_and_bool_columns(self, tmp_path):
        """Integers print through the float kernel below 2**53 in magnitude
        and through the ``%d`` fallback from there up."""
        info = np.iinfo(np.int64)
        boundary = [2**53 - 1, 2**53, 2**53 + 1, 10**16, 10**17 - 1, 10**17]
        k = np.array([info.min, info.max, 0, -1, 7] + boundary + [-v for v in boundary])
        u = np.array([0, 2**64 - 1, 10, 9, 100] + 2 * boundary, dtype=np.uint64)
        table = np.rec.fromarrays([k, np.arange(len(k)) % 3 == 0, u], names="k,b,u")
        text = written_bytes(table, tmp_path)
        assert text == reference_csv(table)
        assert text.decode().splitlines()[1:3] == ["-9223372036854775808,1,0",
                                                   "9223372036854775807,0,18446744073709551615"]
        for column in (k, u):
            planes = np.zeros((_csv._FLOAT_WIDTH, len(column)), dtype=np.uint8)
            fallback = _csv._float_planes(column, planes)
            assert fallback.tolist() == [i for i, v in enumerate(column.tolist()) if abs(v) >= 2**53]

    def test_powers_of_ten_table(self):
        """Every ``10**k = hi + lo`` of the kernel, against exact fractions."""
        hi, hi_hi, hi_lo, lo = _csv._powers_of_ten()
        assert len(hi) == 600

        def nearest(value, exact):  # no neighbour of the float is closer
            return all(abs(Fraction(n) - exact) >= abs(Fraction(value) - exact)
                       for n in (np.nextafter(value, -np.inf), np.nextafter(value, np.inf)))

        for i, k in enumerate(range(-300, 300)):
            exact = Fraction(10) ** k
            assert nearest(hi[i], exact), k
            assert nearest(lo[i], exact - Fraction(hi[i])), k
            assert hi_hi[i] + hi_lo[i] == hi[i], k
            assert Fraction(hi_hi[i]) + Fraction(hi_lo[i]) == Fraction(hi[i]), k
            n = hi_hi[i].as_integer_ratio()[0]
            assert (n // (n & -n)).bit_length() <= 26, k

    def test_empty_table(self, tmp_path):
        table = np.rec.fromarrays([np.zeros(0), np.zeros(0, dtype=np.int64)], names="x,k")
        assert written_bytes(table, tmp_path) == reference_csv(table) == b"x,k\n"

    def test_memory_stays_bounded_per_chunk(self, tmp_path):
        table = run_cylinder_example(0.25, 100_000, 1.0).tables["subdifferential"]
        block = (3 * _csv._FLOAT_WIDTH + 3) * _csv._CHUNK  # the planes of one chunk
        _csv.write_csv(tmp_path / "warm-up.csv", table[:100])  # numpy imports some code lazily
        # blocks of uneven sizes, one of them empty and one across a chunk edge
        cuts = [0, 1, 1, 5000, 5000 + _csv._CHUNK + 7, len(table)]
        tracemalloc.start()
        try:
            _csv.write_csv(tmp_path / "t.csv", table)
            peaks = [tracemalloc.get_traced_memory()[1]]
            tracemalloc.reset_peak()
            with _csv.CsvWriter(tmp_path / "blocks.csv") as write:
                for a, b in zip(cuts, cuts[1:]):
                    write(table[a:b])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 4 * block
        text = (tmp_path / "t.csv").read_bytes()
        assert (tmp_path / "blocks.csv").read_bytes() == text == reference_csv(table)

    def test_writer_removes_its_file_on_error(self, tmp_path):
        table = np.rec.fromarrays([np.arange(3.0)], names="x")
        with pytest.raises(KeyError):
            with _csv.CsvWriter(tmp_path / "t.csv") as write:
                write(table)
                raise KeyError("a failure after some blocks")
        assert list(tmp_path.iterdir()) == []
        with _csv.CsvWriter(tmp_path / "t.csv") as write:
            write(table)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(table)

    def test_fallback_rows_across_chunks(self, tmp_path):
        n = 2 * _csv._CHUNK + 123
        x = np.arange(n) * 0.1 + 1e-7
        fallback = np.arange(5, n, _csv._CHUNK // 3)
        x[fallback] = np.resize([np.nan, np.inf, 1234567890123456.25, 1e-300, -np.inf], len(fallback))
        table = np.rec.fromarrays([np.arange(n) - 1000, x, x[::-1]], names="i,x,y")
        assert len(np.unique(fallback // _csv._CHUNK)) == 3
        assert written_bytes(table, tmp_path) == reference_csv(table)


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

    def test_infinite_circumference_violation(self, tmp_path):
        # Python's JSON reader takes Infinity; a circle of infinite length wraps nothing
        bad = dict(PROBLEM, model={"kind": "cylinder", "circumference": float("inf")})
        text = json.dumps(bad)
        assert "Infinity" in text
        out = tmp_path / "out"
        assert main(["validate", "--input", text, "--out", str(out)]) == 3
        assert read_result(out)["result"]["violations"] == [
            "model: cylinder 'circumference' must be finite, got inf"]
        assert main(["solve", "--input", text, "--out", str(tmp_path / "solve")]) == 3

    @pytest.mark.parametrize("field", ["x", "t", "w"])
    def test_integer_past_binary64_violation(self, field, tmp_path):
        atom = {"x": [0.0], "t": 0.0, "w": 1.0}
        atom[field] = [10**400] if field == "x" else 10**400
        text = json.dumps(dict(PROBLEM, mu={"atoms": [atom]}))
        out = tmp_path / "out"
        assert main(["validate", "--input", text, "--out", str(out)]) == 3
        assert read_result(out)["result"]["violations"] == [
            "mu: schema: atom coordinates and weight must be finite"]
        assert main(["solve", "--input", text, "--out", str(tmp_path / "solve")]) == 3

    def test_coordinate_beyond_bound_violation(self, tmp_path, capsys):
        # a causal pair, but dtau**2 would overflow: refused as input, not Infeasible
        text = json.dumps(dict(PROBLEM, mu={"atoms": [{"x": [0.0], "t": 0.0, "w": 1.0}]},
                               nu={"atoms": [{"x": [0.0], "t": 1e300, "w": 1.0}]}))
        message = "nu-atom 0 has coordinate 1e+300 beyond 2**500 in magnitude"
        out = tmp_path / "out"
        assert main(["validate", "--input", text, "--out", str(out)]) == 3
        assert read_result(out)["result"]["violations"] == [f"nu: schema: {message}"]
        capsys.readouterr()
        assert main(["solve", "--input", text, "--out", str(tmp_path / "solve")]) == 3
        assert capsys.readouterr().err == f"lorot: invalid input: {message}\n"

    def test_empty_measure_violation(self, tmp_path):
        bad = dict(PROBLEM)
        bad["mu"] = {"atoms": []}
        out = tmp_path / "out"
        assert main(["validate", "--input", json.dumps(bad), "--out", str(out)]) == 3
        violations = read_result(out)["result"]["violations"]
        assert any("empty measure" in v for v in violations)

    def test_measure_not_an_object_violation(self, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", "--input", json.dumps(dict(PROBLEM, nu=[])), "--out", str(out)]) == 3
        assert read_result(out)["result"]["violations"] == [
            "nu: schema: measure must be an object with an 'atoms' list"]


class TestStreamedCylinderTable:
    """The cylinder command streams its table to CSV in blocks of
    ``_csv._CHUNK`` cells; its bytes and scalars must not depend on that."""

    @pytest.mark.parametrize("eps, t", [(0.25, 1.0), (0.1, 0.5), (0.4, 1e-200),
                                        (0.49, 2.2250738585072014e-308)])
    @pytest.mark.parametrize("grid", [250, 8191, 8192, 8193, 16385, 100_000])
    def test_streamed_csv_equals_the_collected_table(self, grid, eps, t, tmp_path, monkeypatch):
        assert main(["counterexample-cylinder", "--eps", repr(eps), "--t", repr(t),
                     "--grid", str(grid), "--out", str(tmp_path)]) == 0
        report = run_cylinder_example(eps, grid, t)
        table = report.tables["subdifferential"]
        assert (tmp_path / "subdifferential.csv").read_bytes() == reference_csv(table)
        assert read_result(tmp_path)["result"] == cli._sanitize(report.as_dict())
        # the same run in one block of the whole grid
        monkeypatch.setattr(experiments, "_CHUNK", grid)
        whole = run_cylinder_example(eps, grid, t)
        assert whole.tables["subdifferential"].tobytes() == table.tobytes()
        assert whole.as_dict() == report.as_dict()
