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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .diagnostics import _two_cycle_violations
from .errors import MonotonicityViolation
from .measures import DiscreteMeasure
from .solver import Coupling, TransportProblem, solve
from .spacetime import Point, SpacetimeModel, row_block_buffers, row_blocks

COLLINEARITY_RTOL = 1e-10


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


def _merge(key, mass):
    """The distinct values of the int array ``key`` in increasing order, the
    first entry holding each, and the masses of its entries added in entry
    order: one stable sort groups them."""
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    new = np.empty(len(key), bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    return ranked[new], order[new], np.bincount(np.cumsum(new) - 1, weights=mass[order])


def interpolate(model: SpacetimeModel, coupling: Coupling, t: float) -> DiscreteMeasure:
    """Push each entry's mass to the time-affine point of its segment.

    t=0 reproduces mu and t=1 reproduces nu exactly (atom positions are
    returned bitwise, weights re-accumulate per atom). ``ValueError`` unless
    ``model`` is the coupling's own."""
    coupling.check_model(model)
    coords = model.geodesic_points(*coupling.entry_coords(), t)
    return DiscreteMeasure.from_arrays(coords, coupling.index_arrays()[2])[0]


def restrict(model: SpacetimeModel, coupling: Coupling, s1: float, s2: float,
             verify: bool = True):
    """Intermediate transport between the s1- and s2-interpolants.

    Each entry's mass moves between its two interpolated points. Returns
    ``(problem, coupling)`` for the restricted transport; with ``verify`` the
    restricted coupling is checked to be optimal for its own marginals
    against a fresh solve, to a relative 1e-9: each call builds a new
    problem, so no optimum held by a caller is reused. ``ValueError`` unless
    0 <= s1 <= s2 <= 1 and ``model`` is the coupling's own."""
    if not 0.0 <= s1 <= s2 <= 1.0:
        raise ValueError(f"need 0 <= s1 <= s2 <= 1, got {s1}, {s2}")
    coupling.check_model(model)
    # one causal check of the entry segments serves both interpolants
    xs, ys = model.causal_pairs(*coupling.entry_coords())
    mass = coupling.index_arrays()[2]
    (m1, map1), (m2, map2) = (
        DiscreteMeasure.from_arrays(model.segment_points(xs, ys, s), mass) for s in (s1, s2)
    )
    # entries landing on one (atom of m1, atom of m2) pair merge
    pairs, _, merged = _merge(map1 * m2.n_atoms + map2, mass)
    problem = TransportProblem(model, m1, m2)
    restricted = Coupling.from_columns(problem, pairs // m2.n_atoms, pairs % m2.n_atoms, merged)
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

    ``vertices`` span a full-dimensional convex polytope in one time slice;
    every vertex must causally precede y. The map x -> geodesic_point(x, y, t)
    is affine on the slice with Jacobian (1-t)**d, so the measured image
    volume equals the predicted one exactly up to rounding.

    On the cylinder the polytope must not straddle the seam (volumes are
    taken in the stored coordinates). Returns ``(measured, predicted)``.
    """
    xs = np.array([v.coords() for v in vertices], dtype=float)
    d = model.spatial_dim
    if len(xs) <= d or np.linalg.matrix_rank(xs[1:, :-1] - xs[0, :-1]) < d:
        raise ValueError(f"polytope needs {d + 1} affinely independent vertices")
    if (xs[:, -1] != xs[0, -1]).any():
        raise ValueError("polytope vertices must lie in a single time slice")
    image = model.geodesic_points(xs, np.array(y.coords()), t)
    predicted = (1.0 - t) ** d * polytope_volume(model, xs[:, :-1])
    if t == 1.0:
        return 0.0, predicted
    return polytope_volume(model, image[:, :-1]), predicted


def _check_two_cycles(model: SpacetimeModel, coupling: Coupling):
    """All-pairs two-cycle audit of the support, in row blocks; raises on
    the first violation in row-major order."""
    C = coupling.cost_matrix(model)
    ii, jj, _ = coupling.index_arrays()
    k = np.arange(len(ii))
    for rows in row_blocks(len(ii), len(ii)):
        bad, lhs, rhs = _two_cycle_violations(C, ii, jj, k[rows, None], k[None, :])
        if bad.any():
            e, f = np.argwhere(bad)[0]
            raise MonotonicityViolation(
                f"two-cycle improvement between entries {int(e) + rows.start} and {int(f)}: "
                f"{lhs[e, f]!r} > {rhs[e, f]!r}"
            )


def _joins(model: SpacetimeModel, xs, ys) -> np.ndarray:
    """Which of the segments from xs to ys share a ray, as an E x E boolean
    matrix: each lies on the other's line (cross-displacement of both ends
    below ``COLLINEARITY_RTOL`` times the segment length) and their time
    intervals intersect. The pairwise geometry walks rows in blocks, so the
    only E x E arrays are boolean."""
    E, width = xs.shape
    # spacetime direction of each segment, wrap-aware in the spatial part
    dirs = ys - xs
    model.displacement(xs[:, :-1], ys[:, :-1], out=dirs[:, :-1])
    # np.linalg.norm's arithmetic, without its call overhead
    lens = np.sqrt(np.add.reduce(dirs * dirs, axis=1))
    unit = dirs / lens[:, None]
    tol = COLLINEARITY_RTOL * lens
    ends = np.concatenate((xs, ys))
    on_line = np.empty((E, E), bool)
    for rows, (w, prod) in row_block_buffers(E, 2 * E * width, float, float):
        w, prod = w.reshape(-1, 2 * E, width), prod.reshape(-1, 2 * E, width)
        # displacement of both ends of every segment from each base point,
        # less its part along the base segment; one coordinate plane at a
        # time, as a broadcast over a short last axis is slow
        for c in range(width - 1):
            model.displacement(xs[rows, None, c], ends[:, c], out=w[..., c])
        np.subtract(ends[:, -1], xs[rows, None, -1], out=w[..., -1])
        # projection on the base direction, its products added in coordinate
        # order, so that the bits do not depend on the CPU's SIMD lanes
        np.multiply(w, unit[rows, None], out=prod)
        along = prod[..., 0].copy()
        for c in range(1, width):
            along += prod[..., c]
        for c in range(width):
            np.multiply(along, unit[rows, None, c], out=prod[..., c])
        w -= prod
        w *= w
        # squared distance off the line, its coordinates added in order
        off = w[..., 0].copy()
        for c in range(1, width):
            off += w[..., c]
        # the farther end decides; sqrt is monotone, so it is taken once
        off_line = np.sqrt(np.maximum(off[:, :E], off[:, E:]))
        # time overlap is symmetric, so it may go in before the transpose
        np.less_equal(off_line, tol[rows, None], out=on_line[rows])
        on_line[rows] &= (np.maximum(xs[rows, None, -1], xs[:, -1])
                          <= np.minimum(ys[rows, None, -1], ys[:, -1]))
    return on_line & on_line.T


def _components(join: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component in the symmetric
    boolean matrix ``join``: min-label propagation with pointer jumping."""
    label, step = np.arange(len(join)), np.empty(len(join), np.int64)
    blocks = list(row_block_buffers(len(join), len(join), np.int64))
    while True:
        for rows, (pick,) in blocks:
            # a node's label where join holds, the row's own label elsewhere
            np.copyto(pick, label[rows, None])
            np.copyto(pick, label, where=join[rows])
            np.min(pick, axis=1, out=step[rows])
        jumped = step[step]
        if (jumped == label).all():
            return label
        label = jumped


def ray_decomposition(model: SpacetimeModel, coupling: Coupling):
    """Group support entries into transport rays.

    Entries whose segments are collinear (cross-displacement below
    ``COLLINEARITY_RTOL`` times the segment length) and whose time intervals
    intersect share a ray; stay-put entries form singleton rays. Rays are
    ordered by their smallest entry index, and the atoms of a ray by time,
    equal times in order of first appearance among its entries. Raises
    :class:`MonotonicityViolation` when the support fails the two-cycle
    audit, or when one mu-atom feeds two non-collinear moving segments (a
    branch, for which no discrete prescription exists), and ``ValueError``
    unless ``model`` is the coupling's own.

    The coupling keeps its rays: a later call under its model returns the
    same tuple without decomposing again. A raised violation is not kept.
    """
    coupling.check_model(model)
    if "_rays" in coupling.__dict__:
        return coupling._rays
    _check_two_cycles(model, coupling)
    ii, jj, mass = coupling.index_arrays()
    xs, ys = coupling.entry_coords()
    stay = (xs == ys).all(axis=1)
    moving = np.flatnonzero(~stay)
    entry = np.arange(len(ii))
    root = entry.copy()
    if len(moving):
        root[moving] = moving[_components(_joins(model, xs[moving], ys[moving]))]
    # a ray is numbered by the rank of its root, its smallest entry
    heads = root == entry
    ray_of = (np.cumsum(heads) - 1)[root]
    identical = stay[heads]

    def side(atoms, measure):
        """Ray, atom, time and mass of each (ray, atom) pair, sorted by ray,
        then time, then first appearance; masses add in entry order."""
        _, first, pair_mass = _merge(ray_of * measure.n_atoms + atoms, mass)
        ray, atom = ray_of[first], atoms[first]
        tau = measure.coords_array()[atom, -1]
        by_time = np.lexsort((first, tau, ray))
        return ray[by_time], atom[by_time], tau[by_time], pair_mass[by_time]

    def per_ray(ray, *columns):
        """Each column, grouped by the sorted ``ray``, as one tuple per ray."""
        cuts = np.searchsorted(ray, np.arange(len(identical) + 1)).tolist()
        return [[tuple(col[a:b]) for a, b in zip(cuts, cuts[1:])]
                for col in (c.tolist() for c in columns)]

    mu_ray, mu_atom, mu_tau, mu_mass = side(ii, coupling.mu)
    nu_ray, nu_atom, nu_tau, nu_mass = side(jj, coupling.nu)
    on_moving = ~identical[mu_ray]
    feeds = np.bincount(mu_atom[on_moving], minlength=coupling.mu.n_atoms)
    if feeds.max() > 1:
        branch = np.flatnonzero(on_moving & (feeds[mu_atom] > 1))
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
    rays = tuple(map(TransportRay, entry_indices, mu_atoms, nu_atoms, mu_taus, nu_taus,
                     mu_masses, nu_masses, identical.tolist()))
    object.__setattr__(coupling, "_rays", rays)
    return rays


def monge_map(model: SpacetimeModel, problem: TransportProblem):
    """Solve, decompose into rays, and rearrange monotonically along all
    rays in one pass with exact integer masses.

    While the caller holds an optimum of this problem object from
    :func:`solve` (and, if it called :func:`ray_decomposition`, that
    optimum's rays), both are reused rather than computed again. Returns a
    :class:`MongeMap` when every mu-atom's mass lands on a single nu-atom,
    in which case its cost matches the solver optimum within 1e-9; otherwise
    returns :class:`AtomSplit` naming the obstructing atom.
    """
    coupling, _ = solve(problem)
    rays = ray_decomposition(model, coupling)
    # each ray's atoms in time order with their exact masses, all rays end to
    # end: both sides carry each ray's total, so the running totals meet at
    # every ray boundary and each mu-atom's search ends on its own ray
    exact = coupling.exact_masses
    mu_atoms, mu_mass, nu_atoms, nu_mass = [], [], [], []
    for ray in rays:
        mu_m = dict.fromkeys(ray.mu_atoms, 0)
        nu_m = dict.fromkeys(ray.nu_atoms, 0)
        for e in ray.entry_indices:
            i, j, _ = coupling.entries[e]
            mu_m[i] += exact[e]
            nu_m[j] += exact[e]
        mu_atoms += ray.mu_atoms
        mu_mass += mu_m.values()
        nu_atoms += ray.nu_atoms
        nu_mass += nu_m.values()
    # a ray lists each of its mu-atoms once, so an atom listed twice is split
    atom = sorted(mu_atoms)
    split = [a for a, b in zip(atom, atom[1:]) if a == b]
    if split:
        return AtomSplit(split[0], "atom mass is split across rays")
    mu_cum, nu_cum = list(accumulate(mu_mass)), list(accumulate(nu_mass))
    assignment = [0] * problem.mu.n_atoms
    for i, lo, hi in zip(mu_atoms, [0] + mu_cum, mu_cum):
        b = bisect_left(nu_cum, hi)
        if b and nu_cum[b - 1] > lo:
            return AtomSplit(i, "mass interval straddles a nu-atom boundary")
        assignment[i] = nu_atoms[b]

    C = coupling.cost_matrix(model)
    w = problem.mu.weights_array()
    map_cost = math.fsum((w * C[np.arange(len(w)), assignment]).tolist())
    if not math.isfinite(map_cost):
        raise MonotonicityViolation("rearranged map uses a non-causal arc")
    if abs(map_cost - coupling.total_cost) > 1e-9 * (1 + abs(coupling.total_cost)):
        raise MonotonicityViolation(
            f"rearranged map cost {map_cost!r} differs from optimum "
            f"{coupling.total_cost!r}"
        )
    return MongeMap(tuple(assignment), map_cost, rays)
