"""Command-line front door.

Reads a problem or experiment specification, runs it, and writes
machine-readable results: a summary ``result.json`` (always) plus CSV tables
per command. Outputs are byte-identical for identical (config, input, seed).

Exit codes: 0 success (``dual`` reports a positive cycle or an atom no chain
reaches as its result), 2 infeasible transport, 3 invalid input (a schema or
validation error, a bad or unknown command-line flag, or an ``--out`` that
cannot be created or written) or any other :class:`LorotError`, such as a
failed experiment check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import CsvWriter, write_csv as _write_csv
from .diagnostics import audit
from .dual import DualPotential, PositiveCycle, chain_potential, dkp_verify
from .errors import Infeasible, LorotError, SchemaError, UnreachableAtom
from .experiments import run_cylinder_example, run_line_counterexample
from .measures import measure_from_json
from .solver import check_problem_fields, dual_objective, problem_from_json, solve
from .spacetime import model_from_config
from .transport import AtomSplit, interpolate, monge_map

def _sanitize(obj):
    """Replace non-finite floats so the emitted JSON stays standard."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, obj):
    """Write ``obj``, whose floats are all finite, as standard JSON."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _load_input(source: str) -> dict:
    """Accept a file path or inline JSON text."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read input {source!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def _validate_payload(obj: dict):
    """Schema and measure-invariant checks; returns a list of violations."""
    violations = []
    try:
        check_problem_fields(obj)
    except SchemaError as exc:
        return [f"schema: {exc}"]
    try:
        model = model_from_config(obj.get("model", {}))
    except SchemaError as exc:
        return [f"model: {exc}"]
    for side in ("mu", "nu"):
        if side not in obj:
            violations.append(f"{side}: missing")
            continue
        try:
            model.check_measures(**{side: measure_from_json(model, obj[side])})
        except (SchemaError, ValueError) as exc:
            msg = str(exc)
            tag = "mass" if "sum to 1" in msg else "schema"
            violations.append(f"{side}: {tag}: {msg}")
    return violations


def _cmd_validate(args, out_dir):
    violations = _validate_payload(_load_input(args.input))
    return {"ok": not violations, "violations": violations}, (3 if violations else 0)


def _solve_from_args(args):
    problem = problem_from_json(_load_input(args.input))
    coupling, duals = solve(problem)
    return problem, coupling, duals


def _cmd_solve(args, out_dir):
    problem, coupling, duals = _solve_from_args(args)
    ii, jj, mass = coupling.index_arrays()
    table = np.rec.fromarrays([ii, jj, mass, problem.cost_matrix()[ii, jj]], names="i,j,mass,cost")
    _write_csv(out_dir / "coupling.csv", table)
    gap = abs(coupling.total_cost - dual_objective(coupling, duals))
    return {"cost": coupling.total_cost, "dual_gap": gap, "n_arcs": coupling.n_entries}, 0


def _cmd_dual(args, out_dir):
    if not 0.0 < args.tol < math.inf:
        raise SchemaError(f"--tol must be positive and finite, got {args.tol!r}")
    problem, coupling, duals = _solve_from_args(args)
    try:
        psi = chain_potential(problem.model, coupling)
    except UnreachableAtom as exc:  # the support falls into causally separate islands
        return {"unreachable_atom": exc.atom_index}, 0
    if isinstance(psi, PositiveCycle):
        result = {"positive_cycle": {"atoms": list(psi.atoms), "gain": psi.gain}}
        return result, 0
    potential = DualPotential.from_psi(problem.model, problem.mu, psi, problem.nu)
    report = dkp_verify(problem.model, coupling, potential, tol=args.tol)
    coord_names = [f"x{k}" for k in range(problem.model.spatial_dim)]
    names = ["index", *coord_names, "t", "value"]
    for name, measure, values in (("psi", problem.mu, potential.psi),
                                  ("phi", problem.nu, potential.phi)):
        columns = [np.arange(measure.n_atoms), *measure.coords_array().T, np.array(values)]
        _write_csv(out_dir / f"{name}.csv", np.rec.fromarrays(columns, names=names))
    result = report.as_dict()
    result["spread"] = float(max(potential.psi) - min(potential.psi))
    return result, 0


def _cmd_audit(args, out_dir):
    if args.seed < 0:
        raise SchemaError("--seed must be non-negative")
    problem, coupling, duals = _solve_from_args(args)
    report = audit(problem.model, problem, coupling, duals, seed=args.seed)
    return report.as_dict(), 0


def _cmd_interpolate(args, out_dir):
    if not 0.0 <= args.t <= 1.0:
        raise SchemaError("--t must lie in [0, 1]")
    problem, coupling, duals = _solve_from_args(args)
    measure = interpolate(problem.model, coupling, args.t)
    _write_json(out_dir / "interpolated.json", measure.to_json_obj())
    result = {"t": args.t, "n_atoms": measure.n_atoms}
    return result, 0


def _cmd_monge(args, out_dir):
    problem = problem_from_json(_load_input(args.input))
    outcome = monge_map(problem.model, problem)
    if isinstance(outcome, AtomSplit):
        return {"atom_split": {"mu_index": outcome.mu_index, "detail": outcome.detail}}, 0
    nu_index = np.array(outcome.assignment, dtype=np.int64)
    table = np.rec.fromarrays([np.arange(len(nu_index)), nu_index], names="mu_index,nu_index")
    _write_csv(out_dir / "monge.csv", table)
    result = {"cost": outcome.total_cost, "n_rays": len(outcome.rays)}
    return result, 0


def _cmd_line(args, out_dir):
    if args.n < 3:
        raise SchemaError("--n must be at least 3")
    report = run_line_counterexample(args.n)
    _write_csv(out_dir / "levels.csv", report.tables["levels"])
    return report.as_dict(), 0


def _cmd_cylinder(args, out_dir):
    if not 0.0 < args.eps < 0.5:
        raise SchemaError("--eps must lie in (0, 0.5)")
    if not sys.float_info.min <= args.t <= 1.0:
        raise SchemaError(f"--t must lie in [{sys.float_info.min!r}, 1], got {args.t!r}")
    # Near the cusp a cell centre at distance d to its left (right) has cone
    # margin about t * d / (1 + eps)**2 (t * d / (1 - eps)**2). The two
    # centres around the cusp are a cell 5 / grid apart, so one of them lies
    # under eta = 0.01 once 5 / grid < 0.01 * ((1 + eps)**2 + (1 - eps)**2) / t
    # = 0.02 * (1 + eps**2) / t, which every grid >= 250 meets for t <= 1.
    if args.grid < 250:
        raise SchemaError("--grid must be at least 250")
    # the rows stream to the CSV block by block; a failed check removes it
    with CsvWriter(out_dir / "subdifferential.csv") as rows:
        report = run_cylinder_example(args.eps, args.grid, args.t, rows=rows)
    return report.as_dict(), 0


_INPUT = ("--input", {"required": True, "help": "problem JSON: a file path or inline JSON text"})
_OUT = ("--out", {"default": ".", "help": "output directory"})

# Each command's handler and the flags it reads, in usage order. The
# recorded config is the parsed namespace, so it holds exactly these flags.
COMMANDS = {
    "solve": (_cmd_solve, [_INPUT, _OUT]),
    "dual": (_cmd_dual, [_INPUT, _OUT, ("--tol", {
        "type": float, "default": 1e-8, "help": "dkp_verify tolerance (default %(default)s)"})]),
    "audit": (_cmd_audit, [_INPUT, _OUT, ("--seed", {
        "type": int, "default": 0, "help": "seed of the sampled monotonicity check"})]),
    "interpolate": (_cmd_interpolate, [_INPUT, _OUT, ("--t", {"type": float, "required": True})]),
    "monge": (_cmd_monge, [_INPUT, _OUT]),
    "counterexample-line": (_cmd_line, [_OUT, ("--n", {
        "type": int, "required": True, "help": "base grid size"})]),
    "counterexample-cylinder": (_cmd_cylinder, [_OUT, ("--eps", {"type": float, "default": 0.25}),
                                                ("--grid", {"type": int, "default": 10000}),
                                                ("--t", {"type": float, "default": 1.0})]),
    "validate": (_cmd_validate, [_INPUT, _OUT]),
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`SchemaError` (exit 3), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(message)


@functools.cache  # one parser a process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorot",
        description="Discrete optimal transport with Lorentzian (causal) costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
    return parser


def run(args) -> int:
    out_dir = Path(args.out)
    config = {**vars(args), "out": str(args.out)}
    summary = {"version": __version__, "command": args.command, "config": config}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            summary["result"], code = COMMANDS[args.command][0](args, out_dir)
        except Infeasible as exc:
            summary["error"] = {"kind": "infeasible", "message": str(exc)}
            code = 2
        summary = _sanitize(summary)
        _write_json(out_dir / "result.json", summary)
    except OSError as exc:  # inputs that cannot be read raise SchemaError
        where = exc.filename or out_dir
        raise LorotError(f"cannot write output: {where}: {exc.strerror or exc}") from exc
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    if "error" in summary:
        print(f"lorot: infeasible: {summary['error']['message']}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except SchemaError as exc:
        print(f"lorot: invalid input: {exc}", file=sys.stderr)
        return 3
    except LorotError as exc:
        print(f"lorot: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
