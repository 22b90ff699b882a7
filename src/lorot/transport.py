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
from .errors import MonotonicityViolation, NotCausalPair
from .measures import DiscreteMeasure
from .solver import Coupling, TransportProblem, solve
from .spacetime import CausalClass, Point, SpacetimeModel

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
    return DiscreteMeasure.from_atoms(_entry_atoms(model, coupling, t))


def _entry_atoms(model: SpacetimeModel, coupling: Coupling, t: float):
    """(point at parameter t on the entry's segment, entry mass) per entry."""
    points = model.geodesic_points(*coupling.entry_coords(), t)
    return [(p, mass) for p, (_, _, mass) in zip(points, coupling.entries)]


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
    m1, map1 = DiscreteMeasure.from_atoms_with_index_map(_entry_atoms(model, coupling, s1))
    m2, map2 = DiscreteMeasure.from_atoms_with_index_map(_entry_atoms(model, coupling, s2))
    merged: dict[tuple[int, int], float] = {}
    for k, (_, _, mass) in enumerate(coupling.entries):
        key = (map1[k], map2[k])
        merged[key] = merged.get(key, 0.0) + mass
    entries = [(i, j, m) for (i, j), m in merged.items()]
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


def polytope_volume(model: SpacetimeModel, vertices) -> float:
    """Volume of the convex hull of slice points, in the slice dimension."""
    spatial = np.array([v.spatial for v in vertices], dtype=float)
    d = model.spatial_dim
    if d == 1:
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
    vertices = list(vertices)
    if len(vertices) < 2:
        raise ValueError("polytope needs at least two vertices")
    times = {v.time for v in vertices}
    if len(times) != 1:
        raise ValueError("polytope vertices must lie in a single time slice")
    for v in vertices:
        if model.causal_class(v, y) is CausalClass.NOT_CAUSAL:
            raise NotCausalPair(f"vertex {v} does not causally precede {y}")
    d = model.spatial_dim
    vol = polytope_volume(model, vertices)
    predicted = (1.0 - t) ** d * vol
    if t == 1.0:
        return 0.0, predicted
    image = [model.geodesic_point(v, y, t) for v in vertices]
    measured = polytope_volume(model, image)
    return measured, predicted


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


def ray_decomposition(model: SpacetimeModel, coupling: Coupling):
    """Group support entries into transport rays.

    Entries whose segments are collinear (cross-displacement below
    ``COLLINEARITY_RTOL`` times the segment length) and whose time intervals
    intersect share a ray; stay-put entries form singleton rays. Raises
    :class:`MonotonicityViolation` when the support fails the two-cycle
    audit, or when one mu-atom feeds two non-collinear moving segments (a
    branch, for which no discrete prescription exists).
    """
    _check_two_cycles(model, coupling)
    entries = coupling.entries
    k = len(entries)
    xs, ys = coupling.entry_coords()
    identical = np.all(xs == ys, axis=1)

    moving = np.nonzero(~identical)[0]
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

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
        overlap = lo <= hi
        join = collinear & collinear.T & overlap
        for a in range(len(moving)):
            for b in np.nonzero(join[a, a + 1:])[0]:
                union(moving[a], moving[a + b + 1])

    groups: dict[int, list[int]] = {}
    for e in range(k):
        groups.setdefault(find(e) if not identical[e] else -1 - e, []).append(e)

    rays = []
    for key in sorted(groups, key=lambda g: min(groups[g])):
        members = groups[key]
        is_identical = key < 0
        mu_mass: dict[int, float] = {}
        nu_mass: dict[int, float] = {}
        for e in members:
            i, j, mass = entries[e]
            mu_mass[i] = mu_mass.get(i, 0.0) + mass
            nu_mass[j] = nu_mass.get(j, 0.0) + mass
        mu_atoms = sorted(mu_mass, key=lambda i: coupling.mu.points[i].time)
        nu_atoms = sorted(nu_mass, key=lambda j: coupling.nu.points[j].time)
        rays.append(
            TransportRay(
                entry_indices=tuple(members),
                mu_atoms=tuple(mu_atoms),
                nu_atoms=tuple(nu_atoms),
                mu_taus=tuple(coupling.mu.points[i].time for i in mu_atoms),
                nu_taus=tuple(coupling.nu.points[j].time for j in nu_atoms),
                mu_masses=tuple(mu_mass[i] for i in mu_atoms),
                nu_masses=tuple(nu_mass[j] for j in nu_atoms),
                identical=is_identical,
            )
        )

    moving_rays_of_atom: dict[int, list[int]] = {}
    for r, ray in enumerate(rays):
        if ray.identical:
            continue
        for i in ray.mu_atoms:
            moving_rays_of_atom.setdefault(i, []).append(r)
    for i, rs in moving_rays_of_atom.items():
        if len(rs) > 1:
            raise MonotonicityViolation(
                f"mu-atom {i} feeds non-collinear segments (rays {rs}); "
                "branching support has no discrete ray decomposition"
            )
    return tuple(rays)


def _ray_rearrangement(ray: TransportRay, mu_cum, nu_cum):
    """Monotone CDF matching on one ray with exact cumulative masses.

    ``mu_cum``/``nu_cum`` are exact cumulative masses, integers over the
    coupling's one denominator, aligned with the ray's sorted atoms; both end
    at the ray's total, so the search always lands inside ``nu_cum``.
    Returns atom assignment or the index of an atom that must split.
    """
    assignment = {}
    for k, i in enumerate(ray.mu_atoms):
        lo = mu_cum[k - 1] if k else 0
        hi = mu_cum[k]
        b = bisect_left(nu_cum, hi)
        prev = nu_cum[b - 1] if b else 0
        if prev > lo:
            return None, i
        assignment[i] = ray.nu_atoms[b]
    return assignment, None


def monge_map(model: SpacetimeModel, problem: TransportProblem):
    """Solve, decompose into rays, and rearrange monotonically per ray.

    Returns a :class:`MongeMap` when every mu-atom's mass lands on a single
    nu-atom, in which case its cost matches the solver optimum within 1e-9;
    otherwise returns :class:`AtomSplit` naming the obstructing atom.
    """
    coupling, _ = solve(problem)
    rays = ray_decomposition(model, coupling)

    rays_of_atom: dict[int, set[int]] = {}
    for r, ray in enumerate(rays):
        for i in ray.mu_atoms:
            rays_of_atom.setdefault(i, set()).add(r)
    for i, rs in sorted(rays_of_atom.items()):
        if len(rs) > 1:
            return AtomSplit(i, "atom mass is split across rays")

    exact = coupling.exact_masses
    assignment = np.full(problem.mu.n_atoms, -1, dtype=np.int64)
    for ray in rays:
        mu_m = dict.fromkeys(ray.mu_atoms, 0)
        nu_m = dict.fromkeys(ray.nu_atoms, 0)
        for e in ray.entry_indices:
            i, j, _ = coupling.entries[e]
            mu_m[i] += exact[e]
            nu_m[j] += exact[e]
        got, split_atom = _ray_rearrangement(
            ray, list(accumulate(mu_m.values())), list(accumulate(nu_m.values()))
        )
        if got is None:
            return AtomSplit(int(split_atom), "mass interval straddles a nu-atom boundary")
        for i, j in got.items():
            assignment[i] = j

    if (assignment < 0).any():
        missing = int(np.nonzero(assignment < 0)[0][0])
        return AtomSplit(missing, "atom not covered by any ray")

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
