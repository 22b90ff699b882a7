"""Dual potentials: c-transforms, chain construction, and tightness checks.

The chain construction builds a candidate dual potential from an optimal
coupling: fix a root support pair, then define psi at a source atom as the
largest total gain of any chain of support pairs leading from the root to
that atom, where stepping from a pair (x', y') to an atom x'' gains
``cost(x', y') - cost(x'', y')``. That supremum is a longest-path value in a
finite graph; a positive-weight cycle certifies that the coupling is not
cyclically monotone, in which case no such potential exists.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UnreachableAtom
from .solver import Coupling
from .spacetime import COST_WORK, SpacetimeModel, row_block_buffers

# A rise of a chain label, or the gain of a chain cycle, of at most this is
# rounding noise from float cost arithmetic.
CYCLE_TOL = 1e-10


@dataclass(frozen=True)
class DualPotential:
    """psi on the mu-atoms and phi on the nu-atoms.

    For a valid potential, ``phi[j] - psi[i] <= cost(i, j)`` on every finite
    arc and phi is the c-transform of psi on the discrete supports; use
    :func:`dkp_verify` to check.
    """

    psi: tuple[float, ...]
    phi: tuple[float, ...]

    @classmethod
    def from_arrays(cls, psi, phi) -> "DualPotential":
        """Raises ``ValueError`` naming the first ``None`` in phi (see :func:`c_transform`)."""
        if None in phi:
            j = list(phi).index(None)
            raise ValueError(f"nu-atom {j} has no causal source; phi is +inf there")
        return cls(tuple(float(x) for x in psi), tuple(float(x) for x in phi))

    @classmethod
    def from_psi(cls, model, mu, psi, nu) -> "DualPotential":
        return cls.from_arrays(psi, c_transform(model, mu, psi, nu))


@dataclass(frozen=True)
class PositiveCycle:
    """Certificate that the coupling is not cyclically monotone.

    ``atoms`` lists a chain cycle in order; ``gain`` is its total weight.
    """

    atoms: tuple[int, ...]
    gain: float


@dataclass(frozen=True)
class DkpReport:
    feasible: bool
    support_tight: bool
    max_violation: float

    def as_dict(self):
        return asdict(self)


def c_transform(model: SpacetimeModel, mu, psi, nu):
    """phi(y) = inf over mu-atoms x of psi(x) + cost(x, y).

    Returns one value per nu-atom; ``None`` marks atoms with no causal
    source at all, where every cost and so the infimum is +inf. The sentinel
    is an explicit tagged value so it never enters float arithmetic. The
    costs are evaluated one row block at a time, so the full matrix is never
    held. Raises ``ValueError`` unless psi has one non-NaN value per mu-atom.
    """
    xs, ys = mu.coords_array(), nu.coords_array()
    return _column_infima(_per_atom("psi", psi, len(xs), "mu"), len(ys),
                          lambda rows, out, work: model.costs(xs[rows, None], ys[None], out, work),
                          COST_WORK)


def c_transform_costs(psi, C):
    """:func:`c_transform` over a built cost matrix, e.g. ``problem.cost_matrix()``;
    psi needs one non-NaN value per row."""
    return _column_infima(_per_atom("psi", psi, C.shape[0], "mu"), C.shape[1],
                          lambda rows, out, work: C[rows])


def _per_atom(name, values, n, side) -> np.ndarray:
    """``values`` as a float array, checked to hold one non-NaN value per atom of a side."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} has {values.size} values for {n} {side}-atoms")
    nan = np.flatnonzero(np.isnan(values))
    if len(nan):
        raise ValueError(f"{name}[{nan[0]}] is nan")
    return values


def _column_infima(psi, m, costs_of, scratch=()):
    """Per column, the least finite ``psi[i] + costs_of(rows, out, work)[i, j]``;
    None where there is none. ``costs_of`` gives the cost rows of a row slice,
    written into ``out`` or not; ``work`` holds one block array per dtype of
    ``scratch``."""
    low = np.full(m, np.inf)
    least = np.empty(m)
    for rows, (vals, finite, *work) in row_block_buffers(len(psi), m, float, bool, *scratch):
        np.add(psi[rows, None], costs_of(rows, vals, work), out=vals)
        np.min(vals, axis=0, initial=np.inf, where=np.isfinite(vals, out=finite), out=least)
        np.minimum(low, least, out=low)
    return [float(v) if v < np.inf else None for v in low]


def _longest_paths(C: np.ndarray, ii: np.ndarray, jj: np.ndarray, root: int):
    """FIFO label-correcting longest paths from ``root`` over the chain graph
    of the support entries ``(ii, jj)``, sorted, on the cost matrix C.

    The arc from atom u to atom k gains the most of ``C[u, y] - C[k, y]`` over
    u's support entries (u, y); the row of these gains is built when u is
    taken off the queue, its entries in order, and every arc out of u is
    relaxed. A label rises only to a candidate that beats it by more than
    CYCLE_TOL; u's own gain is 0, which never raises u's label. An atom whose
    label rises joins the queue unless it is already there. One pass takes
    the atoms queued during the pass before, so without a gaining cycle the
    labels settle within n - 1 passes. Each relaxation works on full-length
    masks; the atoms it queues join in index order.

    Returns ``(dist, None)``, with dist[root] = 0 and -inf on atoms no chain
    reaches, or ``(None, cycle)`` when a label still rises in pass n. Every
    rise on the cycle's predecessor walk beat the label it replaced by more
    than CYCLE_TOL, so the cycle gains more than CYCLE_TOL. When the queue
    empties, every atom's final label has been relaxed, so each chain
    inequality holds to within CYCLE_TOL, and the root's label stays 0.
    """
    n = C.shape[0]
    cols = jj.tolist()
    first = np.searchsorted(ii, np.arange(n + 1)).tolist()
    step = np.empty(n)

    def gains(u, out):
        """The gains of the arcs out of u, written into ``out``; u has a support
        entry, as every atom of a coupling does."""
        ys = cols[first[u]:first[u + 1]]
        np.subtract(C[u, ys[0]], C[:, ys[0]], out=out)
        for y in ys[1:]:
            np.maximum(np.subtract(C[u, y], C[:, y], out=step), out, out=out)
        return out

    dist = np.full(n, -np.inf)
    dist[root] = 0.0
    pred = np.full(n, -1)
    queued = np.zeros(n, dtype=bool)
    queued[root] = True
    cand = np.empty(n)
    up, fresh = np.empty((2, n), dtype=bool)
    batch = [root]
    for _ in range(n):
        following = []
        for u in batch:
            queued[u] = False
            np.add(dist[u], gains(u, cand), out=cand)
            np.greater(cand, np.add(dist, CYCLE_TOL, out=step), out=up)
            np.copyto(dist, cand, where=up)
            np.copyto(pred, u, where=up)
            np.greater(up, queued, out=fresh)  # risen and not yet queued
            queued |= up
            following += fresh.nonzero()[0].tolist()
        batch = following
        if not batch:
            return dist, None

    # Labels still rose in pass n. Such an atom has a predecessor walk of n
    # steps, each going back at most one pass, so the walk repeats an atom
    # before it could reach a root that never rose.
    walk = [batch[0]]
    while walk.count(walk[-1]) == 1:
        walk.append(int(pred[walk[-1]]))
    atoms = walk[walk.index(walk[-1]):-1][::-1]
    gain = float(sum(gains(a, cand)[b] for a, b in zip(atoms, atoms[1:] + atoms[:1])))
    return None, PositiveCycle(tuple(atoms), gain)


def chain_potential(model: SpacetimeModel, coupling: Coupling):
    """Longest-path potential psi on the mu-support, rooted at the least entry's mu-atom.

    Returns a numpy array with psi(root atom) = 0, or a
    :class:`PositiveCycle` when the chain graph contains a cycle of positive
    total weight (the coupling is then not cyclically monotone). Raises
    :class:`UnreachableAtom` when some mu-atom cannot be reached by any chain
    from the root; the construction needs a connected support.
    """
    ii, jj, _ = coupling.index_arrays()
    psi, cycle = _longest_paths(coupling.cost_matrix(model), ii, jj, int(ii[0]))
    if cycle is not None:
        return cycle

    unreachable = np.nonzero(~np.isfinite(psi))[0]
    if len(unreachable):
        raise UnreachableAtom(int(unreachable[0]))
    return psi + 0.0  # turn -0.0 into +0.0


def dkp_verify(model: SpacetimeModel, coupling: Coupling, potential: DualPotential,
               tol: float = 1e-8) -> DkpReport:
    """Check dual feasibility on all finite arcs and tightness on the support.

    ``feasible``: phi[j] - psi[i] <= cost(i, j) + tol everywhere the cost is
    finite. ``support_tight``: |phi[j] - psi[i] - cost(i, j)| <= tol on every
    support entry. ``max_violation`` is the larger of the worst feasibility
    excess (clipped at zero) and the worst support residual. Raises
    ``ValueError`` unless 0 < tol < inf, and unless psi and phi hold one
    non-NaN value per atom of their side.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    C = coupling.cost_matrix(model)
    psi = _per_atom("psi", potential.psi, C.shape[0], "mu")
    phi = _per_atom("phi", potential.phi, C.shape[1], "nu")
    # -inf when no arc is finite: then nothing is infeasible
    worst_feas = -np.inf
    for rows, (slack, finite) in row_block_buffers(*C.shape, float, bool):
        np.subtract(np.subtract(phi, psi[rows, None], out=slack), C[rows], out=slack)
        worst_feas = max(worst_feas, float(np.max(slack, initial=-np.inf,
                                                  where=np.isfinite(C[rows], out=finite))))
    ii, jj, _ = coupling.index_arrays()
    support_res = np.abs(phi[jj] - psi[ii] - C[ii, jj])
    worst_support = float(np.max(support_res))
    return DkpReport(
        feasible=worst_feas <= tol,
        support_tight=worst_support <= tol,
        max_violation=max(max(worst_feas, 0.0), worst_support),
    )
