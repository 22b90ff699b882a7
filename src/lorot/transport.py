"""Displacement interpolation, measure contraction, and the Monge map.

An optimal coupling in a flat model moves mass along straight causal
segments. Interpolation pushes each entry's mass to the time-affine point of
its segment. The support of a cyclically monotone coupling decomposes into
transport rays (maximal causal lines carrying one-dimensional transport);
along a ray the cost depends only on the marginals, so mass may be
rearranged monotonically in the time coordinate, which yields a transport
map whenever no atom has to split.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .diagnostics import _two_cycle_violations
from .errors import MonotonicityViolation
from .measures import DiscreteMeasure
from .solver import Coupling, TransportProblem, solve
from .spacetime import Point, SpacetimeModel

COLLINEARITY_RTOL = 1e-10


@dataclass(frozen=True)
class RayCDF:
    """Right-continuous step function: mass at time levels <= a on one ray."""

    taus: tuple[float, ...]
    cumulative: tuple[float, ...]

    def __call__(self, a: float) -> float:
        k = bisect_right(self.taus, a)
        return 0.0 if k == 0 else self.cumulative[k - 1]

    @property
    def total(self) -> float:
        return self.cumulative[-1]


@dataclass(frozen=True)
class TransportRay:
    """A maximal causal segment carrying part of a coupling.

    ``entry_indices`` index into the coupling's entry list; ``mu_atoms`` and
    ``nu_atoms`` are atom indices sorted by time along the ray, with the
    per-ray masses they carry (a nu-atom may also receive mass from other
    rays). ``identical`` marks a degenerate stay-put ray.
    """

    entry_indices: tuple[int, ...]
    mu_atoms: tuple[int, ...]
    nu_atoms: tuple[int, ...]
    mu_taus: tuple[float, ...]
    nu_taus: tuple[float, ...]
    mu_masses: tuple[float, ...]
    nu_masses: tuple[float, ...]
    identical: bool = False

    def cdf_mu(self) -> RayCDF:
        return RayCDF(self.mu_taus, tuple(np.cumsum(self.mu_masses)))

    def cdf_nu(self) -> RayCDF:
        return RayCDF(self.nu_taus, tuple(np.cumsum(self.nu_masses)))


@dataclass(frozen=True)
class MongeMap:
    """Assignment of every mu-atom to a nu-atom realizing the optimal cost."""

    assignment: tuple[int, ...]
    total_cost: float
    rays: tuple[TransportRay, ...]


@dataclass(frozen=True)
class AtomSplit:
    """Outcome when some mu-atom's mass cannot ride a single arc.

    Not a failure: discrete measures need not admit a transport map. The
    caller may refine mu (more atoms of smaller weight) and retry.
    """

    mu_index: int
    detail: str


def interpolate(model: SpacetimeModel, coupling: Coupling, t: float) -> DiscreteMeasure:
    """Push each entry's mass to the time-affine point of its segment.

    t=0 reproduces mu and t=1 reproduces nu exactly (atom positions are
    returned bitwise, weights re-accumulate per atom).
    """
    coords = model.geodesic_points(*coupling.entry_coords(), t)
    return DiscreteMeasure.from_arrays(coords, coupling.index_arrays()[2])[0]


def restrict(model: SpacetimeModel, coupling: Coupling, s1: float, s2: float,
             verify: bool = True):
    """Intermediate transport between the s1- and s2-interpolants.

    Each entry's mass moves between its two interpolated points. Returns
    ``(problem, coupling)`` for the restricted transport; with ``verify`` the
    restricted coupling is checked to be optimal for its own marginals
    against a fresh solve, to a relative 1e-9.
    """
    if not 0.0 <= s1 <= s2 <= 1.0:
        raise ValueError(f"need 0 <= s1 <= s2 <= 1, got {s1}, {s2}")
    xs, ys = coupling.entry_coords()
    mass = coupling.index_arrays()[2]
    (m1, map1), (m2, map2) = (
        DiscreteMeasure.from_arrays(model.geodesic_points(xs, ys, s), mass) for s in (s1, s2)
    )
    # entries landing on one (atom of m1, atom of m2) pair merge, masses added in entry order
    pairs, merged_at = np.unique(map1 * m2.n_atoms + map2, return_inverse=True)
    merged = np.bincount(merged_at, weights=mass)
    entries = list(zip((pairs // m2.n_atoms).tolist(), (pairs % m2.n_atoms).tolist(),
                       merged.tolist()))
    problem = TransportProblem(model, m1, m2)
    restricted = Coupling.from_entries(problem, entries)
    if verify:
        solved, _ = solve(problem)
        if abs(restricted.total_cost - solved.total_cost) > 1e-9 * (1 + abs(solved.total_cost)):
            raise MonotonicityViolation(
                "restricted coupling is not optimal for its own marginals: "
                f"{restricted.total_cost!r} vs {solved.total_cost!r}"
            )
    return problem, restricted


def polytope_volume(model: SpacetimeModel, spatial) -> float:
    """Volume of the convex hull of the rows of ``spatial`` (spatial
    coordinates of slice points), in the slice dimension."""
    spatial = np.asarray(spatial, dtype=float)
    if model.spatial_dim == 1:
        return float(spatial[:, 0].max() - spatial[:, 0].min())
    from scipy.spatial import ConvexHull

    return float(ConvexHull(spatial).volume)


def contraction_check(model: SpacetimeModel, vertices, y: Point, t: float):
    """Contract a slice polytope toward a target and compare volumes.

    ``vertices`` span a convex polytope inside one time slice; every vertex
    must causally precede y. The map x -> geodesic_point(x, y, t) is affine
    on the slice with Jacobian (1-t)**d, so the measured image volume equals
    the predicted one exactly up to rounding.

    On the cylinder the polytope must not straddle the seam (volumes are
    taken in the stored coordinates). Returns ``(measured, predicted)``.
    """
    xs = np.array([v.coords() for v in vertices], dtype=float)
    if len(xs) < 2:
        raise ValueError("polytope needs at least two vertices")
    if (xs[:, -1] != xs[0, -1]).any():
        raise ValueError("polytope vertices must lie in a single time slice")
    image = model.geodesic_points(xs, np.array(y.coords()), t)
    predicted = (1.0 - t) ** model.spatial_dim * polytope_volume(model, xs[:, :-1])
    if t == 1.0:
        return 0.0, predicted
    return polytope_volume(model, image[:, :-1]), predicted


def _check_two_cycles(model: SpacetimeModel, coupling: Coupling):
    """All-pairs two-cycle audit of the support; raises on a violation."""
    ii, jj, _ = coupling.index_arrays()
    k = np.arange(len(ii))
    bad, lhs, rhs = _two_cycle_violations(
        coupling.cost_matrix(model), ii, jj, k[:, None], k[None, :]
    )
    if bad.any():
        e, f = np.argwhere(bad)[0]
        raise MonotonicityViolation(
            f"two-cycle improvement between entries {int(e)} and {int(f)}: "
            f"{lhs[e, f]!r} > {rhs[e, f]!r}"
        )


def _components(join: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component in the symmetric
    boolean matrix ``join``: min-label propagation with pointer jumping."""
    label = np.arange(len(join))
    while True:
        step = np.where(join, label, label[:, None]).min(axis=1)
        step = step[step]
        if (step == label).all():
            return label
        label = step


def ray_decomposition(model: SpacetimeModel, coupling: Coupling):
    """Group support entries into transport rays.

    Entries whose segments are collinear (cross-displacement below
    ``COLLINEARITY_RTOL`` times the segment length) and whose time intervals
    intersect share a ray; stay-put entries form singleton rays. Rays are
    ordered by their smallest entry index, and the atoms of a ray by time,
    equal times in order of first appearance among its entries. Raises
    :class:`MonotonicityViolation` when the support fails the two-cycle
    audit, or when one mu-atom feeds two non-collinear moving segments (a
    branch, for which no discrete prescription exists).
    """
    _check_two_cycles(model, coupling)
    ii, jj, mass = coupling.index_arrays()
    xs, ys = coupling.entry_coords()
    root = np.arange(len(ii))
    moving = np.flatnonzero(~np.all(xs == ys, axis=1))
    if len(moving):
        xc, yc = xs[moving], ys[moving]
        # spacetime direction of each segment, wrap-aware in the spatial part
        dirs = np.concatenate(
            [model.displacement(xc[:, :-1], yc[:, :-1]), yc[:, -1:] - xc[:, -1:]], axis=1
        )
        lens = np.linalg.norm(dirs, axis=1)
        unit = dirs / lens[:, None]
        # displacement of every segment endpoint from every base point
        dx = model.displacement(xc[:, None, :-1], xc[None, :, :-1])
        dy = model.displacement(xc[:, None, :-1], yc[None, :, :-1])
        wx = np.concatenate([dx, xc[None, :, -1:] - xc[:, None, -1:]], axis=2)
        wy = np.concatenate([dy, yc[None, :, -1:] - xc[:, None, -1:]], axis=2)

        def perp_norm(w):
            along = np.einsum("efc,ec->ef", w, unit)
            perp = w - along[:, :, None] * unit[:, None, :]
            return np.linalg.norm(perp, axis=2)

        off_line = np.maximum(perp_norm(wx), perp_norm(wy))
        collinear = off_line <= COLLINEARITY_RTOL * lens[:, None]
        lo = np.maximum(xc[:, -1][:, None], xc[:, -1][None, :])
        hi = np.minimum(yc[:, -1][:, None], yc[:, -1][None, :])
        join = collinear & collinear.T & (lo <= hi)
        root[moving] = moving[_components(join)]
    roots, ray_of = np.unique(root, return_inverse=True)
    identical = np.all(xs[roots] == ys[roots], axis=1)

    def side(atoms, measure):
        """Ray, atom, time and mass of each (ray, atom) pair, sorted by ray,
        then time, then first appearance; masses add in entry order."""
        n = measure.n_atoms
        keys, first, at = np.unique(ray_of * n + atoms, return_index=True, return_inverse=True)
        ray, atom = keys // n, keys % n
        tau = measure.coords_array()[atom, -1]
        order = np.lexsort((first, tau, ray))
        return ray[order], atom[order], tau[order], np.bincount(at, weights=mass)[order]

    def per_ray(ray, *columns):
        """Each column, grouped by the sorted ``ray``, as one tuple per ray."""
        cuts = np.searchsorted(ray, np.arange(len(roots) + 1)).tolist()
        return [[tuple(col[a:b]) for a, b in zip(cuts, cuts[1:])]
                for col in (c.tolist() for c in columns)]

    mu_ray, mu_atom, mu_tau, mu_mass = side(ii, coupling.mu)
    nu_ray, nu_atom, nu_tau, nu_mass = side(jj, coupling.nu)
    on_moving = ~identical[mu_ray]
    feeds = np.bincount(mu_atom[on_moving], minlength=coupling.mu.n_atoms)
    branch = np.flatnonzero(on_moving & (feeds[mu_atom] > 1))
    if len(branch):
        i = mu_atom[branch[0]]
        rs = mu_ray[on_moving & (mu_atom == i)].tolist()
        raise MonotonicityViolation(
            f"mu-atom {i} feeds non-collinear segments (rays {rs}); "
            "branching support has no discrete ray decomposition"
        )
    members = np.argsort(ray_of, kind="stable")
    (entry_indices,) = per_ray(ray_of[members], members)
    mu_atoms, mu_taus, mu_masses = per_ray(mu_ray, mu_atom, mu_tau, mu_mass)
    nu_atoms, nu_taus, nu_masses = per_ray(nu_ray, nu_atom, nu_tau, nu_mass)
    return tuple(map(TransportRay, entry_indices, mu_atoms, nu_atoms, mu_taus, nu_taus,
                     mu_masses, nu_masses, identical.tolist()))


def _ray_rearrangement(ray: TransportRay, mu_cum, nu_cum, assignment):
    """Monotone CDF matching on one ray with exact cumulative masses.

    ``mu_cum``/``nu_cum`` are exact cumulative masses, integers over the
    coupling's one denominator, aligned with the ray's sorted atoms; both end
    at the ray's total, so the search always lands inside ``nu_cum``.
    Writes the nu-atom of each mu-atom into ``assignment``; returns the index
    of an atom that must split, or None.
    """
    for k, i in enumerate(ray.mu_atoms):
        lo = mu_cum[k - 1] if k else 0
        hi = mu_cum[k]
        b = bisect_left(nu_cum, hi)
        prev = nu_cum[b - 1] if b else 0
        if prev > lo:
            return i
        assignment[i] = ray.nu_atoms[b]
    return None


def monge_map(model: SpacetimeModel, problem: TransportProblem):
    """Solve, decompose into rays, and rearrange monotonically per ray.

    Returns a :class:`MongeMap` when every mu-atom's mass lands on a single
    nu-atom, in which case its cost matches the solver optimum within 1e-9;
    otherwise returns :class:`AtomSplit` naming the obstructing atom.
    """
    coupling, _ = solve(problem)
    rays = ray_decomposition(model, coupling)
    # a ray lists each of its mu-atoms once, so an atom listed twice is split
    atom = np.sort(np.concatenate([ray.mu_atoms for ray in rays]))
    split = atom[1:][atom[1:] == atom[:-1]]
    if len(split):
        return AtomSplit(int(split[0]), "atom mass is split across rays")

    exact = coupling.exact_masses
    assignment = np.full(problem.mu.n_atoms, -1, dtype=np.int64)
    for ray in rays:
        mu_m = dict.fromkeys(ray.mu_atoms, 0)
        nu_m = dict.fromkeys(ray.nu_atoms, 0)
        for e in ray.entry_indices:
            i, j, _ = coupling.entries[e]
            mu_m[i] += exact[e]
            nu_m[j] += exact[e]
        split_atom = _ray_rearrangement(
            ray, list(accumulate(mu_m.values())), list(accumulate(nu_m.values())), assignment
        )
        if split_atom is not None:
            return AtomSplit(int(split_atom), "mass interval straddles a nu-atom boundary")

    C = coupling.cost_matrix(model)
    w = problem.mu.weights_array()
    map_cost = float(np.dot(w, C[np.arange(len(w)), assignment]))
    if not math.isfinite(map_cost):
        raise MonotonicityViolation("rearranged map uses a non-causal arc")
    if abs(map_cost - coupling.total_cost) > 1e-9 * (1 + abs(coupling.total_cost)):
        raise MonotonicityViolation(
            f"rearranged map cost {map_cost!r} differs from optimum "
            f"{coupling.total_cost!r}"
        )
    return MongeMap(tuple(int(j) for j in assignment), map_cost, rays)
