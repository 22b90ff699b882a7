"""Command-line front door.

Reads a problem or experiment specification, runs it, and writes
machine-readable results: a summary ``result.json`` (always) plus CSV tables
per command. Outputs are byte-identical for identical (config, input, seed).

Exit codes: 0 success, 2 infeasible transport, 3 invalid input: a schema or
validation error, or a bad or unknown command-line flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import audit
from .dual import DualPotential, PositiveCycle, c_transform_costs, chain_potential, dkp_verify
from .errors import Infeasible, LorotError, SchemaError
from .experiments import run_cylinder_example, run_line_counterexample
from .measures import measure_from_json
from .solver import check_problem_fields, dual_objective, problem_from_json, solve
from .spacetime import model_from_config
from .transport import AtomSplit, interpolate, monge_map

COMMANDS = (
    "solve",
    "dual",
    "audit",
    "interpolate",
    "monge",
    "counterexample-line",
    "counterexample-cylinder",
    "validate",
)


def _write_csv(path: Path, table: np.recarray):
    """One line per record under a header of the field names; floats as
    ``%.17g``, which round-trips, and integers as ``%d``."""
    names = table.dtype.names
    template = ",".join("%.17g" if table.dtype[name].kind == "f" else "%d" for name in names)
    values = [None] * (len(table) * len(names))
    for k, name in enumerate(names):
        values[k::len(names)] = table[name].tolist()
    body = ((template + "\n") * len(table)) % tuple(values)
    path.write_text(",".join(names) + "\n" + body, encoding="utf-8")


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
    text = json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _load_input(source: str) -> dict:
    """Accept a file path or inline JSON text."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot read input {source!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def _resolved_config(args) -> dict:
    cfg = {"command": args.command, "out": str(args.out)}
    for key in ("input", "seed", "tol", "n", "eps", "t", "grid"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


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
        atoms = obj[side].get("atoms") if isinstance(obj[side], dict) else None
        if not atoms:
            violations.append(f"{side}: empty measure")
            continue
        try:
            measure_from_json(model, obj[side])
        except SchemaError as exc:
            msg = str(exc)
            tag = "mass" if "sum to 1" in msg else "schema"
            violations.append(f"{side}: {tag}: {msg}")
    return violations


def _cmd_validate(args, out_dir):
    obj = _load_input(args.input)
    violations = _validate_payload(obj)
    result = {"ok": not violations, "violations": violations}
    return result, (0 if not violations else 3)


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
    result = {
        "cost": coupling.total_cost,
        "dual_gap": gap,
        "n_arcs": coupling.n_entries,
    }
    return result, 0


def _cmd_dual(args, out_dir):
    if not args.tol > 0:
        raise SchemaError("--tol must be positive")
    problem, coupling, duals = _solve_from_args(args)
    psi = chain_potential(problem.model, coupling)
    if isinstance(psi, PositiveCycle):
        result = {"positive_cycle": {"atoms": list(psi.atoms), "gain": psi.gain}}
        return result, 0
    potential = DualPotential.from_arrays(psi, c_transform_costs(psi, problem.cost_matrix()))
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
        result = {
            "atom_split": {"mu_index": outcome.mu_index, "detail": outcome.detail}
        }
        return result, 0
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
    if args.grid < 100:
        raise SchemaError("--grid must be at least 100")
    report = run_cylinder_example(args.eps, args.grid, args.t)
    _write_csv(out_dir / "subdifferential.csv", report.tables["subdifferential"])
    return report.as_dict(), 0


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "dual": _cmd_dual,
    "audit": _cmd_audit,
    "interpolate": _cmd_interpolate,
    "monge": _cmd_monge,
    "counterexample-line": _cmd_line,
    "counterexample-cylinder": _cmd_cylinder,
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`SchemaError` (exit 3), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorot",
        description="Discrete optimal transport with Lorentzian (causal) costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name in ("solve", "dual", "audit", "interpolate", "monge", "validate"):
            p.add_argument("--input", required=True,
                           help="problem JSON: a file path or inline JSON text")
        p.add_argument("--out", default=".", help="output directory")
        if name == "audit":
            p.add_argument("--seed", type=int, default=0,
                           help="seed of the sampled monotonicity check")
        if name == "dual":
            p.add_argument("--tol", type=float, default=1e-8,
                           help="dkp_verify tolerance (default %(default)s)")
        if name == "counterexample-line":
            p.add_argument("--n", type=int, required=True, help="base grid size")
        if name == "counterexample-cylinder":
            p.add_argument("--eps", type=float, default=0.25)
            p.add_argument("--grid", type=int, default=10000)
            p.add_argument("--t", type=float, default=1.0)
        if name == "interpolate":
            p.add_argument("--t", type=float, required=True)
    return parser


def run(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _resolved_config(args)
    summary = {"version": __version__, "command": args.command, "config": config}
    try:
        result, code = _HANDLERS[args.command](args, out_dir)
    except Infeasible as exc:
        summary["error"] = {"kind": "infeasible", "message": str(exc)}
        _write_json(out_dir / "result.json", summary)
        print(json.dumps(_sanitize(summary), sort_keys=True, allow_nan=False))
        print(f"lorot: infeasible: {exc}", file=sys.stderr)
        return 2
    summary["result"] = result
    _write_json(out_dir / "result.json", summary)
    print(json.dumps(_sanitize(summary), sort_keys=True, allow_nan=False))
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
