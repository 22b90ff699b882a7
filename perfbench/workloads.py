"""The four benchmark workloads: instance set-up and one certified pass each.

Why these four (each stresses a different layer, and one bypasses the
solver so solver changes can be seen to leave it alone):

* ``line_refine``: the paper's dual blow-up study. Every optimal arc is
  lightlike (zero cost), so the solver sees degenerate costs; the solver and
  then ``chain_potential`` dominate, and both grow fastest in n.
* ``strict_dense``: the acceptance fixture of 20 strictly timelike dense
  instances through the ``lorot dual`` plus ``lorot audit`` flow. Dominated
  by large solves.
* ``rays_monge``: 50 tiny multi-ray instances through rays, Monge map,
  interpolation and restriction: about 150 small solves per pass, so per-call
  solver cost matters, not growth with size.
* ``cylinder_cli``: the cylinder cusp through the CLI, the only ``Cylinder``
  path. It makes no solver call and is half CLI output.

Seeds. ``line_refine`` and ``cylinder_cli`` have fixed inputs. For
``strict_dense`` and ``rays_monge`` seed 0 gives the acceptance fixtures
exactly; any other seed mirrors a seed-drawn half of the fixture instances in
space (x -> -x). Mirroring is exact in floating point: the cost matrix is the
same up to reversing the atom order, so the optimum is unchanged but the
solver must reach it by another path, and every seed asks for about the same
work. Fresh random instances would not: at equal size their solve time
varies twentyfold. Nor would translations: they perturb the last bits of the
costs, break the grid's exact ties and change the solve time of the fixture
by up to 30%.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import lorot
import lorot.cli
import numpy as np

from checks import certify, report_problems, support_digest_bytes

# Workload sizes. "small" is the self-test's smallest size of each workload.
SIZES = {
    "full": {"line_base": 100, "line_levels": 3, "strict": 20, "rays": 50,
             "grid": 100_000, "cylinder": ((0.1, 0.5), (0.25, 1.0), (0.4, 1.0))},
    "small": {"line_base": 25, "line_levels": 3, "strict": 2, "rays": 3,
              "grid": 1000, "cylinder": ((0.25, 1.0),)},
}


class Tally:
    """Checks, counts and output digest of one pass."""

    def __init__(self, probe):
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.digest = hashlib.sha256()
        self._problems: list[str] = []

    @contextmanager
    def instance(self, label):
        """One attempted instance; a failed check or an exception fails it."""
        self.attempted += 1
        self._problems = []
        for name in self.probe.captured:
            self.probe.take(name)
        self.probe.instance = label
        try:
            yield
        except Exception as exc:  # an instance that raises counts as failed
            self._problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            self.probe.instance = None
        if self._problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(self._problems[:3]))

    def check(self, condition, message):
        if not condition:
            self._problems.append(message)

    def fail(self, messages):
        self._problems.extend(messages)

    def certify_solves(self):
        """Certify every solve made since the instance began, nested ones too."""
        solves = self.probe.take("solver.solve")
        self.check(solves, "no solve observed")
        for arguments, (coupling, duals) in solves:
            problem = arguments["problem"]
            with self.probe.span("bench.certify"):
                with self.probe.span("spacetime.cost_matrix"):
                    C = problem.cost_matrix()
                cert = certify(problem, coupling, duals, C)
            self.fail(cert.problems)
            self.counts["solver.finite_arcs"] += cert.finite_arcs
            self.counts["solver.support_entries"] += cert.support_entries
            self.counts["spacetime.cost_matrix_mb_computed"] += cert.n * cert.m * 8 / 1e6
            self.peaks["solver.denominator_bits_max"] = max(
                self.peaks["solver.denominator_bits_max"], cert.denominator_bits
            )
            self.peaks["solver.dual_gap_max"] = max(self.peaks["solver.dual_gap_max"], cert.dual_gap)
            self.peaks["solver.dual_residual_max"] = max(
                self.peaks["solver.dual_residual_max"], cert.dual_residual
            )
            self.digest.update(support_digest_bytes(coupling))

    def check_dual(self, model, coupling, psi):
        """The ``lorot dual`` flow on a chain potential: c-transform and DKP."""
        self.check(not isinstance(psi, lorot.PositiveCycle), "chain potential found a positive cycle")
        if isinstance(psi, lorot.PositiveCycle):
            return
        potential = lorot.DualPotential.from_psi(model, coupling.mu, psi, coupling.nu)
        report = lorot.dkp_verify(model, coupling, potential, tol=1e-8)
        self.check(report.feasible and report.support_tight, f"DKP check failed: {report}")
        self.peaks["dual.dkp_max_violation"] = max(
            self.peaks["dual.dkp_max_violation"], report.max_violation
        )


def mirrored(problem):
    """The problem reflected in space, x -> -x: an exact isometry of the cost."""
    model = problem.model

    def mirror(measure):
        return lorot.DiscreteMeasure.from_atoms(
            (model.make_point([-c for c in p.spatial], p.time), w)
            for p, w in zip(measure.points, measure.weights)
        )

    return lorot.TransportProblem(model, mirror(problem.mu), mirror(problem.nu))


def _fixture(make, count, seed):
    """Fixture instances 0..count-1; a nonzero seed mirrors a random half."""
    problems = [make(k) for k in range(count)]
    if seed == 0:
        return problems
    flips = np.random.default_rng(seed % 2**32).random(count) < 0.5
    return [mirrored(p) if flip else p for p, flip in zip(problems, flips)]


# -- line_refine ------------------------------------------------------------


def build_line(seed, size):
    return [lorot.line_blowup_problem(size["line_base"] << k) for k in range(size["line_levels"])]


def pass_line(problems, tally, out_dir):
    base, levels = problems[0].mu.n_atoms, len(problems)
    with tally.instance(f"line:{base}x{levels}"):
        report = lorot.run_line_counterexample(base, levels=levels)
        tally.fail(report_problems(report))
        for row in report.tables["levels"]:
            tally.check(row["lightlike_fraction"] == 1.0,
                        f"lightlike fraction {row['lightlike_fraction']!r} at n={row['n']}")
            tally.peaks["dual.spread_error_max"] = max(
                tally.peaks["dual.spread_error_max"], abs(row["spread"] - row["expected_spread"])
            )
            tally.counts["diagnostics.audits"] += 1
            tally.counts["diagnostics.lightlike_sum"] += row["lightlike_fraction"]
        potentials = tally.probe.take("dual.chain_potential")
        tally.check(len(potentials) == levels, f"{len(potentials)} chain potentials")
        for arguments, psi in potentials:
            tally.check_dual(arguments["model"], arguments["coupling"], psi)
        tally.certify_solves()


# -- strict_dense -----------------------------------------------------------


def build_strict(seed, size):
    return _fixture(lorot.experiments.random_strict_problem, size["strict"], seed)


def pass_strict(problems, tally, out_dir):
    for k, problem in enumerate(problems):
        with tally.instance(f"strict:{k}"):
            model = problem.model
            coupling, duals = lorot.solve(problem)
            tally.certify_solves()
            tally.check_dual(model, coupling, lorot.chain_potential(model, coupling))
            report = lorot.audit(model, problem, coupling, duals)
            tally.check(report.dual_gap <= 1e-9, f"audit dual gap {report.dual_gap:.3g}")
            tally.check(report.monotonicity_violations == 0,
                        f"{report.monotonicity_violations} monotonicity violations")
            tally.check(report.lightlike_fraction == 0.0,
                        f"lightlike fraction {report.lightlike_fraction!r}, expected 0")
            tally.check(report.min_margin >= 0.1 - 1e-9, f"margin {report.min_margin!r} < 0.1")
            tally.counts["diagnostics.audits"] += 1
            tally.counts["diagnostics.lightlike_sum"] += report.lightlike_fraction
            tally.counts["diagnostics.monotonicity_violations"] += report.monotonicity_violations


# -- rays_monge -------------------------------------------------------------


def build_rays(seed, size):
    return _fixture(lorot.separated_rays_problem, size["rays"], seed)


def pass_rays(problems, tally, out_dir):
    for k, problem in enumerate(problems):
        with tally.instance(f"rays:{k}"):
            model = problem.model
            coupling, _ = lorot.solve(problem)
            rays = lorot.ray_decomposition(model, coupling)
            tally.counts["transport.rays_total"] += len(rays)
            outcome = lorot.monge_map(model, problem)
            tally.counts["transport.monge_attempts"] += 1
            found = isinstance(outcome, lorot.MongeMap)
            tally.check(found, f"no Monge map: {outcome}")
            if found:
                tally.counts["transport.monge_found"] += 1
                tol = 1e-9 * (1.0 + abs(coupling.total_cost))
                tally.check(abs(outcome.total_cost - coupling.total_cost) <= tol,
                            f"Monge cost {outcome.total_cost!r} vs {coupling.total_cost!r}")
            mid = lorot.interpolate(model, coupling, 0.5)
            moved = math.fsum(mid.weights)
            carried = math.fsum(e[2] for e in coupling.entries)
            tally.check(abs(moved - carried) <= 1e-12, f"interpolation mass {moved!r}")
            lorot.restrict(model, coupling, 0.25, 0.75, verify=True)
            tally.certify_solves()


# -- cylinder_cli -----------------------------------------------------------


def build_cylinder(seed, size):
    return [
        {"grid": size["grid"],
         "argv": ["counterexample-cylinder", "--eps", repr(eps), "--t", repr(t),
                  "--grid", str(size["grid"])]}
        for eps, t in size["cylinder"]
    ]


def pass_cylinder(commands, tally, out_dir):
    for k, command in enumerate(commands):
        with tally.instance(f"cylinder:{k}"):
            grid = command["grid"]
            out = Path(out_dir) / f"cli-{k}"
            # a relative --out keeps result.json identical between checkouts
            argv = command["argv"] + ["--out", os.path.relpath(out)]
            with redirect_stdout(io.StringIO()):
                code = lorot.cli.main(argv)
            tally.check(code == 0, f"exit code {code}")
            runs = tally.probe.take("experiments.run_cylinder_example")
            tally.check(len(runs) == 1, f"{len(runs)} cylinder runs for one command")
            _, report = runs[0]
            tally.fail(report_problems(report))
            skipped = int(report.scalars["skipped_thetas"].value)
            tally.counts["experiments.skipped_thetas"] += skipped
            result = (out / "result.json").read_bytes()
            table = (out / "subdifferential.csv").read_bytes()
            tally.counts["cli.bytes_written"] += len(result) + len(table)
            tally.digest.update(result)
            rows = table.count(b"\n") - 1
            tally.check(rows == grid - skipped, f"{rows} CSV rows, expected {grid - skipped}")
            scalars = json.loads(result)["result"]["scalars"]
            for key, s in report.scalars.items():
                if math.isfinite(s.value):
                    tally.check(scalars[key]["value"] == s.value, f"result.json {key} differs")


WORKLOADS = {
    "line_refine": (build_line, pass_line),
    "strict_dense": (build_strict, pass_strict),
    "rays_monge": (build_rays, pass_rays),
    "cylinder_cli": (build_cylinder, pass_cylinder),
}


def write_inputs(inputs, out_dir):
    """Write the workload's problem files (the CLI commands for ``cylinder_cli``)."""
    folder = Path(out_dir) / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    for k, item in enumerate(inputs):
        obj = item if isinstance(item, dict) else lorot.problem_to_json(item)
        (folder / f"{k:03d}.json").write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
