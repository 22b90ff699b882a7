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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import UnreachableAtom
from .solver import Coupling
from .spacetime import SpacetimeModel

# A cycle must beat this tolerance to count as positive; smaller gains are
# treated as rounding noise from float cost arithmetic.
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
        """Raises ``ValueError`` on a ``None`` in phi (see :func:`c_transform`)."""
        if any(p is None for p in phi):
            raise ValueError("some nu-atom has no causal source; phi is -inf there")
        return cls(tuple(float(x) for x in psi), tuple(float(x) for x in phi))

    @classmethod
    def from_psi(cls, model, mu, psi, nu) -> "DualPotential":
        return cls.from_arrays(psi, c_transform(model, mu, psi, nu))

    def psi_array(self) -> np.ndarray:
        return np.asarray(self.psi, dtype=float)

    def phi_array(self) -> np.ndarray:
        return np.asarray(self.phi, dtype=float)


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
    source at all (the infimum is minus infinity there). The sentinel is an
    explicit tagged value so it never enters float arithmetic.
    """
    return c_transform_costs(psi, model.cost_matrix(mu.coords_array(), nu.coords_array()))


def c_transform_costs(psi, C):
    """:func:`c_transform` over a built cost matrix, e.g. ``problem.cost_matrix()``."""
    vals = np.asarray(psi, dtype=float)[:, None] + C
    low = np.min(vals, axis=0, initial=np.inf, where=np.isfinite(vals))
    return [float(v) if v < np.inf else None for v in low]


def _atom_arc_matrix(model: SpacetimeModel, coupling: Coupling) -> np.ndarray:
    """Condense the chain graph onto mu-atoms.

    W[u, k] is the best single-step gain from atom u to atom k over all
    support pairs (u, y); -inf where no step exists.
    """
    n = coupling.mu.n_atoms
    C = coupling.cost_matrix(model)
    W = np.full((n, n), -np.inf)
    for i, j, _ in coupling.entries:
        W[i] = np.maximum(W[i], C[i, j] - C[:, j])
    np.fill_diagonal(W, -np.inf)
    return W


def _longest_paths(W: np.ndarray, root: int):
    """FIFO label-correcting longest paths from ``root`` over the arc matrix W.

    Taking an atom off the queue relaxes every arc out of it; an atom whose
    label rises joins the queue unless it is already there. One pass takes
    the atoms queued during the pass before, so without a gaining cycle the
    labels settle within n - 1 passes.

    Returns ``(dist, None)``, with dist[root] = 0 and -inf on atoms no chain
    reaches, or ``(None, cycle)`` when some cycle gains more than CYCLE_TOL.
    Smaller cycles are rounding noise and are cut.
    """
    n = W.shape[0]
    dist = np.full(n, -np.inf)
    dist[root] = 0.0
    pred = np.full(n, -1)
    rise = np.zeros(n)
    queued = np.zeros(n, dtype=bool)
    queued[root] = True
    batch = [root]
    for _ in range(n):
        following = []
        for u in batch:
            queued[u] = False
            cand = dist[u] + W[u]
            rose = np.flatnonzero(cand > dist)
            rise[rose] = cand[rose] - dist[rose]
            dist[rose] = cand[rose]
            pred[rose] = u
            fresh = rose[~queued[rose]]
            queued[fresh] = True
            following.extend(fresh.tolist())
        batch = following
        if not batch:
            break

    if batch:
        # Labels still rose in pass n. Such an atom has a predecessor walk of
        # n steps, each going back at most one pass, so the walk repeats an
        # atom before it could reach a root that never rose. Start from the
        # atom that rose most, so a real cycle wins over rounding noise.
        walk = [batch[int(np.argmax(rise[batch]))]]
        while walk.count(walk[-1]) == 1:
            walk.append(int(pred[walk[-1]]))
        atoms = walk[walk.index(walk[-1]):-1][::-1]
        gain = float(sum(W[a, b] for a, b in zip(atoms, atoms[1:] + atoms[:1])))
        if gain > CYCLE_TOL:
            return None, PositiveCycle(tuple(atoms), gain)
    # a noise cycle through the root may have lifted its label: re-anchor it at 0
    return dist - dist[root], None


def chain_potential(model: SpacetimeModel, coupling: Coupling, root=None):
    """Longest-path potential psi on the mu-support, rooted at a support pair.

    Returns a numpy array with psi(root atom) = 0, or a
    :class:`PositiveCycle` when the chain graph contains a cycle of positive
    total weight (the coupling is then not cyclically monotone). Raises
    :class:`UnreachableAtom` when some mu-atom cannot be reached by any chain
    from the root; the construction needs a connected support.
    """
    pairs = [(i, j) for i, j, _ in coupling.entries]
    if root is None:
        root = pairs[0]  # entries are sorted, so this is the lexicographic minimum
    else:
        root = (int(root[0]), int(root[1]))
        if root not in pairs:
            raise ValueError(f"root {root} is not a support pair")
    psi, cycle = _longest_paths(_atom_arc_matrix(model, coupling), root[0])
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
    excess (clipped at zero) and the worst support residual.
    """
    C = coupling.cost_matrix(model)
    psi = potential.psi_array()
    phi = potential.phi_array()
    slack = phi[None, :] - psi[:, None] - C
    finite = np.isfinite(C)
    worst_feas = float(np.max(slack[finite])) if finite.any() else 0.0
    ii, jj, _ = coupling.index_arrays()
    support_res = np.abs(slack[ii, jj])
    worst_support = float(np.max(support_res))
    return DkpReport(
        feasible=worst_feas <= tol,
        support_tight=worst_support <= tol,
        max_violation=max(max(worst_feas, 0.0), worst_support),
    )
