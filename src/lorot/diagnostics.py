"""Quantitative probes of a solved coupling.

The interesting dichotomy is between mass transported along the light cone
(zero cost, margin zero) and transport with a uniform timelike margin. A
coupling with a large lightlike fraction is exactly the regime where dual
potentials blow up under refinement; a positive minimum margin is the
discrete form of strict timelikeness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .solver import Coupling, TransportProblem, dual_objective
from .spacetime import SpacetimeModel, causal_band

#: a two-cycle improves the cost when it gains more than this
TWO_CYCLE_TOL = 1e-9


@dataclass(frozen=True)
class DiagnosticsReport:
    lightlike_fraction: float
    min_margin: float
    dual_gap: float
    monotonicity_violations: int

    def as_dict(self):
        return asdict(self)


def _entry_margins(model: SpacetimeModel, coupling: Coupling):
    """Cone margin, mass and stay-put flag of each support entry."""
    coupling.check_model(model)
    xs, ys = coupling.entry_coords()
    dtau, dist = model.separation(xs, ys)
    return dtau - dist, coupling.index_arrays()[2], np.all(xs == ys, axis=-1)


def class_fractions(model: SpacetimeModel, coupling: Coupling):
    """Mass fractions by causal class of the support entries.

    Each entry is classified by :func:`spacetime.causal_band`, the band in
    which :meth:`SpacetimeModel.causal_class` says NULL and the cost is zero.
    The three fractions sum to one over the coupling mass.
    """
    return _class_fractions(*_entry_margins(model, coupling))


def _class_fractions(margins, masses, identical):
    band = causal_band(margins)
    total = masses.sum()
    null = ~identical & (band == 0)
    chrono = ~identical & (band > 0)
    return {
        "lightlike": float(masses[null].sum() / total),
        "chronological": float(masses[chrono].sum() / total),
        "identical": float(masses[identical].sum() / total),
    }


def lightlike_fraction(model: SpacetimeModel, coupling: Coupling) -> float:
    """Fraction of mass moved along the cone boundary (x != y, margin ~ 0)."""
    return class_fractions(model, coupling)["lightlike"]


def strict_margin(model: SpacetimeModel, coupling: Coupling) -> float:
    """Minimum cone margin over support entries with x != y.

    Returns +inf when every entry is a stay-put pair; a strictly positive
    value is the discrete strict-timelikeness certificate.
    """
    return _strict_margin(*_entry_margins(model, coupling))


def _strict_margin(margins, masses, identical) -> float:
    moving = margins[~identical]
    if len(moving) == 0:
        return math.inf
    return float(np.min(moving))


def _two_cycle_violations(C, ii, jj, e, f):
    """``(bad, lhs, rhs)`` for entries e against f (broadcast index arrays
    into the support ``ii``, ``jj``): lhs = cost(x_e, y_e) + cost(x_f, y_f),
    rhs = cost(x_e, y_f) + cost(x_f, y_e), and swapping improves (``bad``)
    when lhs > rhs + TWO_CYCLE_TOL, which an infinite rhs never is."""
    flat, m = C.ravel(), C.shape[1]
    own = flat.take(ii * m + jj)
    lhs = own[e] + own[f]
    rhs = flat.take(ii[e] * m + jj[f]) + flat.take(ii[f] * m + jj[e])
    return lhs > rhs + TWO_CYCLE_TOL, lhs, rhs


def count_monotonicity_violations(model: SpacetimeModel, coupling: Coupling,
                                  samples: int = 1000, seed: int = 0) -> int:
    """Sample pairs of support entries and count two-cycle improvements.

    A violation is a pair of entries (x1,y1), (x2,y2) with
    cost(x1,y1) + cost(x2,y2) > cost(x1,y2) + cost(x2,y1) + TWO_CYCLE_TOL;
    an infinite right-hand side never violates.
    """
    C = coupling.cost_matrix(model)
    ii, jj, _ = coupling.index_arrays()
    rng = np.random.default_rng(seed)
    # one draw of both index rows: the same stream as two draws of a row each
    e1, e2 = rng.integers(0, len(ii), size=(2, samples))
    return int(np.count_nonzero(_two_cycle_violations(C, ii, jj, e1, e2)[0]))


def audit(model: SpacetimeModel, problem: TransportProblem, coupling: Coupling,
          lp_duals, samples: int = 1000, seed: int = 0) -> DiagnosticsReport:
    """Assemble the standard report for a solved instance; ``ValueError``
    unless ``problem`` is the coupling's own, and ``model`` its model."""
    if problem != coupling.problem:
        raise ValueError("coupling does not solve the audited problem")
    gap = abs(coupling.total_cost - dual_objective(coupling, lp_duals))
    margins = _entry_margins(model, coupling)
    return DiagnosticsReport(
        lightlike_fraction=_class_fractions(*margins)["lightlike"],
        min_margin=_strict_margin(*margins),
        dual_gap=float(gap),
        monotonicity_violations=count_monotonicity_violations(
            model, coupling, samples=samples, seed=seed
        ),
    )
