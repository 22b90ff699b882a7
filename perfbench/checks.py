"""Checks the benchmark makes on lorot's outputs, independently of lorot.

The solve certificate uses only ``problem.cost_matrix()``, the input weights
(as exact ``Fraction`` values) and the solver's returned coupling and LP
duals. It never calls ``dkp_verify``, ``audit`` or solver internals, so a
solver that returns a wrong answer cannot also vouch for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

FEASIBILITY_TOL = 1e-9  # reduced cost may dip this far below zero on a finite arc
TIGHTNESS_TOL = 1e-9  # |reduced cost| on a support entry
GAP_TOL = 1e-9  # |primal - dual objective|
FLOAT_MARGINAL_TOL = 1e-12


@dataclass
class Certificate:
    n: int
    m: int
    finite_arcs: int
    support_entries: int
    denominator_bits: int
    dual_gap: float
    dual_residual: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def certify(problem, coupling, duals, cost=None) -> Certificate:
    """Check a solve result: support, exact marginals, LP duals and the gap.

    ``cost`` is ``problem.cost_matrix()``; pass it when the caller has
    already computed (and timed) it.
    """
    C = problem.cost_matrix() if cost is None else cost
    n, m = C.shape
    finite = np.isfinite(C)
    entries = coupling.entries
    ii = np.array([e[0] for e in entries], dtype=np.int64)
    jj = np.array([e[1] for e in entries], dtype=np.int64)
    mass = np.array([e[2] for e in entries], dtype=float)
    denom = coupling.exact_denominator
    cert = Certificate(
        n=n,
        m=m,
        finite_arcs=int(np.count_nonzero(finite)),
        support_entries=len(entries),
        denominator_bits=denom.bit_length() if denom else 0,
        dual_gap=math.inf,
        dual_residual=math.inf,
    )
    bad = cert.problems

    if not finite[ii, jj].all():
        k = int(np.nonzero(~finite[ii, jj])[0][0])
        bad.append(f"support entry ({ii[k]},{jj[k]}) is not a finite arc")
        return cert

    # exact integer marginals on the mu side
    exact = coupling.exact_masses
    if exact is None or denom is None:
        bad.append("coupling carries no exact masses")
    else:
        rows = [0] * n
        for (i, _, fm), q in zip(entries, exact):
            if q <= 0:
                bad.append(f"a row-{i} entry has nonpositive exact mass {q}")
            if fm != float(Fraction(q, denom)):
                bad.append(f"float mass of row {i} is not its exact mass rounded")
            rows[i] += q
        for i, (q, w) in enumerate(zip(rows, problem.mu.weights)):
            if Fraction(q, denom) != Fraction(w):
                bad.append(f"exact mu-marginal of atom {i} is {Fraction(q, denom)}, not {w!r}")
                break

    # float marginals on both sides
    row_sum = np.bincount(ii, weights=mass, minlength=n)
    col_sum = np.bincount(jj, weights=mass, minlength=m)
    row_err = float(np.max(np.abs(row_sum - problem.mu.weights_array())))
    col_err = float(np.max(np.abs(col_sum - problem.nu.weights_array())))
    if max(row_err, col_err) > FLOAT_MARGINAL_TOL:
        bad.append(f"float marginals off by {max(row_err, col_err):.3g}")

    # LP duals: v[j] - u[i] <= C[i, j] on finite arcs, equality on the support
    u = np.asarray(duals[0], dtype=float)
    v = np.asarray(duals[1], dtype=float)
    reduced = C + u[:, None] - v[None, :]
    worst_feas = float(-np.min(reduced[finite]))
    worst_tight = float(np.max(np.abs(reduced[ii, jj])))
    cert.dual_residual = max(worst_feas, worst_tight, 0.0)
    if worst_feas > FEASIBILITY_TOL:
        bad.append(f"LP duals infeasible by {worst_feas:.3g}")
    if worst_tight > TIGHTNESS_TOL:
        bad.append(f"LP duals not tight on the support: {worst_tight:.3g}")

    primal = math.fsum(mass * C[ii, jj])
    dual = math.fsum(problem.nu.weights_array() * v) - math.fsum(problem.mu.weights_array() * u)
    cert.dual_gap = abs(primal - dual)
    if cert.dual_gap > GAP_TOL:
        bad.append(f"dual gap {cert.dual_gap:.3g}")
    if abs(coupling.total_cost - primal) > GAP_TOL * (1.0 + abs(primal)):
        bad.append(f"reported cost {coupling.total_cost!r} differs from {primal!r}")
    return cert


def support_digest_bytes(coupling) -> bytes:
    """Canonical bytes of a solved support: shape, denominator, (i, j, mass)."""
    masses = coupling.exact_masses or [repr(e[2]) for e in coupling.entries]
    rows = sorted(f"{i},{j},{q}" for (i, j, _), q in zip(coupling.entries, masses))
    head = f"{coupling.mu.n_atoms}x{coupling.nu.n_atoms}/{coupling.exact_denominator}:"
    return (head + ";".join(rows) + "\n").encode()


def report_problems(report) -> list[str]:
    """Scalars of an ExperimentReport outside their window or tolerance."""
    bad = []
    for key, s in report.scalars.items():
        if s.window is not None and not s.window[0] <= s.value <= s.window[1]:
            bad.append(f"{key}={s.value!r} outside {s.window}")
        if s.target is not None and not abs(s.value - s.target) <= s.tolerance:
            bad.append(f"{key}={s.value!r} not within {s.tolerance} of {s.target!r}")
    return bad


# -- negative controls ----------------------------------------------------


def moved_unit_coupling(coupling):
    """The coupling with one exact unit of mass moved to another row."""
    exact = list(coupling.exact_masses)
    src = max(range(len(exact)), key=lambda k: exact[k])
    dst = next(k for k, e in enumerate(coupling.entries) if e[0] != coupling.entries[src][0])
    exact[src] -= 1
    exact[dst] += 1
    d = coupling.exact_denominator
    entries = tuple((i, j, float(Fraction(q, d))) for (i, j, _), q in zip(coupling.entries, exact))
    return replace(coupling, entries=entries, exact_masses=tuple(exact))


def lowered_duals(coupling, duals, amount=1e-6):
    """The LP duals with u at the first support row lowered by ``amount``."""
    u = np.array(duals[0], dtype=float)
    u[coupling.entries[0][0]] -= amount
    return u, np.array(duals[1], dtype=float)
