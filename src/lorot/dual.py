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
from .solver import Coupling, held_cost_matrix
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
        return cls(*(tuple(np.asarray(x, dtype=float).tolist()) for x in (psi, phi)))

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
    is an explicit tagged value so it never enters float arithmetic. When a
    live :class:`~lorot.solver.TransportProblem` holds the cost matrix of
    these very measure objects under an equal model (see
    :func:`~lorot.solver.held_cost_matrix`), its rows are read; otherwise the
    costs are evaluated one row block at a time and no matrix is built. Both
    give the same bits. Raises ``ValueError`` unless psi has one finite value
    per mu-atom and each measure has the model's spatial dimension.
    """
    model.check_measures(mu=mu, nu=nu)
    xs, ys = mu.coords_array(), nu.coords_array()
    psi = _per_atom("psi", psi, len(xs), "mu")
    C = held_cost_matrix(model, mu, nu)
    if C is not None:
        return _column_infima(psi, len(ys), lambda rows, out, work: C[rows])
    return _column_infima(psi, len(ys),
                          lambda rows, out, work: model.costs(xs[rows, None], ys[None], out, work),
                          COST_WORK)


def _per_atom(name, values, n, side) -> np.ndarray:
    """``values`` as a float array, checked to hold one finite value per atom of a side."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} has {values.size} values for {n} {side}-atoms")
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"{name}[{bad[0]}] is {values[bad[0]]}")
    return values


def _column_infima(psi, m, costs_of, scratch=()):
    """Per column, the least finite ``psi[i] + costs_of(rows, out, work)[i, j]``;
    None where there is none. ``costs_of`` gives the finite or +inf cost rows
    of a row slice, written into ``out`` or not (psi is finite, so +inf marks
    a non-causal pair); ``work`` holds one block array per dtype of ``scratch``."""
    low, least = np.full(m, np.inf), np.empty(m)
    for rows, (vals, *work) in row_block_buffers(len(psi), m, float, *scratch):
        np.add(psi[rows, None], costs_of(rows, vals, work), out=vals)
        np.minimum(low, np.min(vals, axis=0, out=least), out=low)
    return [v if v < math.inf else None for v in low.tolist()]


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

    A pop costs its numpy calls more than their arithmetic, so it makes few:
    each support entry's own cost is read once per call, the bar
    ``dist + CYCLE_TOL`` is refreshed beside the labels, and no predecessor
    is recorded. Predecessors are recorded only on the re-run that reports a
    cycle: when labels still rise in pass n, the same loop runs again, which
    repeats every rise exactly, and records each risen atom's last popper.
    """
    n = C.shape[0]
    own = C[ii, jj].tolist()
    cols = jj.tolist()
    first = np.searchsorted(ii, np.arange(n + 1)).tolist()
    add, subtract, maximum, greater, copyto = (
        np.add, np.subtract, np.maximum, np.greater, np.copyto)
    tol = np.array(CYCLE_TOL)  # a 0-d operand costs a ufunc less than a Python float

    def relax(pred):
        """Run the FIFO passes; returns the labels and the atoms still queued
        after them, none unless pass n raised a label. ``pred``, when given,
        gets each risen atom's last popper."""
        dist = np.full(n, -np.inf)
        dist[root] = 0.0
        bar = dist + CYCLE_TOL
        queued = np.zeros(n, dtype=bool)
        queued[root] = True
        cand, step = np.empty((2, n))
        up, fresh = np.empty((2, n), dtype=bool)
        batch = [root]
        for _ in range(n):
            following = []
            for u in batch:
                queued[u] = False
                # cand = dist[u] + the gains of the arcs out of u; u has a
                # support entry, as every atom of a coupling does
                e = first[u]
                subtract(own[e], C[:, cols[e]], out=cand)
                for e in range(e + 1, first[u + 1]):
                    maximum(subtract(own[e], C[:, cols[e]], out=step), cand, out=cand)
                add(dist.item(u), cand, out=cand)
                greater(cand, bar, out=up)
                copyto(dist, cand, where=up)
                add(dist, tol, out=bar)
                if pred is not None:
                    copyto(pred, u, where=up)
                greater(up, queued, out=fresh)  # risen and not yet queued
                queued |= up
                following += fresh.nonzero()[0].tolist()
            batch = following
            if not batch:
                break
        return dist, batch

    dist, batch = relax(None)
    if not batch:
        return dist, None

    # Labels still rose in pass n. Such an atom has a predecessor walk of n
    # steps, each going back at most one pass, so the walk repeats an atom
    # before it could reach a root that never rose.
    pred = np.full(n, -1)
    _, batch = relax(pred)
    pred = pred.tolist()
    walk, at = [batch[0]], {}
    while walk[-1] not in at:
        at[walk[-1]] = len(walk) - 1
        walk.append(pred[walk[-1]])
    atoms = walk[at[walk[-1]]:-1][::-1]

    def arc(a, b):
        """The gain of the arc from atom a to atom b, as the pop of a built it."""
        gain = own[first[a]] - C[b, cols[first[a]]]
        for e in range(first[a] + 1, first[a + 1]):
            gain = max(own[e] - C[b, cols[e]], gain)
        return gain

    gain = float(sum(arc(a, b) for a, b in zip(atoms, atoms[1:] + atoms[:1])))
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
    finite value per atom of their side.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    C = coupling.cost_matrix(model)
    psi = _per_atom("psi", potential.psi, C.shape[0], "mu")
    phi = _per_atom("phi", potential.phi, C.shape[1], "nu")
    # -inf on non-causal pairs, so -inf when no arc is finite: nothing is infeasible
    worst_feas = -np.inf
    for rows, (slack,) in row_block_buffers(*C.shape, float):
        np.subtract(np.subtract(phi, psi[rows, None], out=slack), C[rows], out=slack)
        worst_feas = max(worst_feas, float(np.max(slack)))
    ii, jj, _ = coupling.index_arrays()
    support_res = np.abs(phi[jj] - psi[ii] - C[ii, jj])
    worst_support = float(np.max(support_res))
    return DkpReport(
        feasible=worst_feas <= tol,
        support_tight=worst_support <= tol,
        max_violation=max(max(worst_feas, 0.0), worst_support),
    )
