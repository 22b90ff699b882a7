import math
import re
import tracemalloc
from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from conftest import random_weighted_causal_problem, two_by_two_problem
from lorot.diagnostics import lightlike_fraction
from lorot.dual import DualPotential, chain_potential, dkp_verify
from lorot.errors import MonotonicityViolation, NotCausalPair
from lorot.experiments import line_blowup_problem, random_strict_problem, separated_rays_problem
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, solve
from lorot import solver, spacetime, transport
from lorot.spacetime import Cylinder, Minkowski, Point
from lorot.transport import (
    COLLINEARITY_RTOL,
    AtomSplit,
    MongeMap,
    TransportRay,
    _check_two_cycles,
    _joins,
    contraction_check,
    interpolate,
    monge_map,
    ray_decomposition,
    restrict,
)

MK1 = Minkowski(1)
MK2 = Minkowski(2)
MK3 = Minkowski(3)


def pt(model, *coords):
    return model.make_point(coords[:-1], coords[-1])


class TestInterpolate:
    def test_endpoints_reproduce_marginals(self):
        problem = line_blowup_problem(7)
        coupling, _ = solve(problem)
        assert interpolate(MK1, coupling, 0.0) == problem.mu
        assert interpolate(MK1, coupling, 1.0) == problem.nu

    def test_single_entry_midpoint(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 1.0)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 1.0)])
        mid = interpolate(MK1, coupling, 0.5)
        assert mid.points == (pt(MK1, 0, 1),)

    def test_density_bound_uniform_grid_to_point(self):
        # uniform slice grid contracted toward one target: the interpolant
        # stays uniform on the affinely contracted grid (max/min weight = 1)
        n = 5
        atoms = [
            (pt(MK2, i * 0.1, j * 0.1, 0.0), 1.0 / n**2)
            for i in range(n)
            for j in range(n)
        ]
        mu = DiscreteMeasure.from_atoms(atoms)
        target = pt(MK2, 0.2, 0.2, 5.0)
        nu = DiscreteMeasure.from_atoms([(target, 1.0)])
        coupling, _ = solve(TransportProblem(MK2, mu, nu))
        t = 0.5
        mid = interpolate(MK2, coupling, t)
        w = mid.weights_array()
        assert w.max() / w.min() == 1.0
        expected = {
            MK2.geodesic_point(p, target, t) for p in mu.points
        }
        assert set(mid.points) == expected


class TestRestrict:
    def test_full_range_is_identity(self):
        problem = line_blowup_problem(6)
        coupling, _ = solve(problem)
        prob2, coup2 = restrict(MK1, coupling, 0.0, 1.0)
        assert prob2.mu == problem.mu and prob2.nu == problem.nu
        assert coup2.entries == coupling.entries

    def test_equal_parameters_give_self_coupling(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        prob2, coup2 = restrict(MK1, coupling, 0.4, 0.4)
        assert prob2.mu == prob2.nu
        assert all(i == j for i, j, _ in coup2.entries)

    def test_line_restriction_stays_null(self):
        problem = line_blowup_problem(8)
        coupling, _ = solve(problem)
        _, coup2 = restrict(MK1, coupling, 0.0, 0.5)
        assert coup2.total_cost == pytest.approx(0.0, abs=1e-12)
        assert lightlike_fraction(MK1, coup2) == 1.0

    def test_restricted_coupling_passes_dkp(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        prob2, coup2 = restrict(MK1, coupling, 0.0, 0.5)
        psi = chain_potential(MK1, coup2)
        pot = DualPotential.from_psi(MK1, prob2.mu, psi, prob2.nu)
        report = dkp_verify(MK1, coup2, pot, tol=1e-8)
        assert report.feasible and report.support_tight

    def test_parameter_validation(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        with pytest.raises(ValueError):
            restrict(MK1, coupling, 0.7, 0.3)


class TestContraction:
    def test_unit_square_half(self):
        verts = [
            pt(MK2, 0, 0, 0),
            pt(MK2, 1, 0, 0),
            pt(MK2, 1, 1, 0),
            pt(MK2, 0, 1, 0),
        ]
        measured, predicted = contraction_check(MK2, verts, pt(MK2, 0, 0, 3), 0.5)
        assert measured == 0.25 and predicted == 0.25

    def test_t_zero_identity(self):
        verts = [pt(MK2, 0, 0, 0), pt(MK2, 2, 0, 0), pt(MK2, 0, 2, 0)]
        measured, predicted = contraction_check(MK2, verts, pt(MK2, 1, 1, 9), 0.0)
        assert measured == predicted == 2.0

    def test_t_one_collapses(self):
        verts = [pt(MK2, 0, 0, 0), pt(MK2, 1, 0, 0), pt(MK2, 0, 1, 0)]
        measured, predicted = contraction_check(MK2, verts, pt(MK2, 0, 0, 3), 1.0)
        assert measured == 0.0 and predicted == 0.0
        measured, _ = contraction_check(MK2, verts, pt(MK2, 0, 0, 3), 0.999)
        assert measured < 1e-5

    def test_random_polytopes_exact(self):
        rng = np.random.default_rng(67)
        for model in (MK1, MK2, MK3):
            d = model.spatial_dim
            for _ in range(20):
                k = d + 1 + int(rng.integers(1, 5))
                verts = [
                    model.make_point(rng.uniform(-1, 1, d), 0.0) for _ in range(k)
                ]
                y = model.make_point(rng.uniform(-0.5, 0.5, d), rng.uniform(2.5, 4.0))
                for t in (0.25, 0.5, 0.9):
                    measured, predicted = contraction_check(model, verts, y, t)
                    assert abs(measured - predicted) <= 1e-12

    def test_causal_precondition(self):
        verts = [pt(MK2, 0, 0, 0), pt(MK2, 9, 0, 0), pt(MK2, 0, 1, 0)]
        with pytest.raises(NotCausalPair):
            contraction_check(MK2, verts, pt(MK2, 0, 0, 2), 0.5)

    def test_slice_precondition(self):
        verts = [pt(MK2, 0, 0, 0), pt(MK2, 1, 0, 0.1), pt(MK2, 0, 1, 0)]
        with pytest.raises(ValueError):
            contraction_check(MK2, verts, pt(MK2, 0, 0, 9), 0.5)

    @pytest.mark.parametrize("model, spatial", [
        (MK1, [[0.5], [0.5]]),
        (MK2, [[0, 0], [1, 1]]),
        (MK2, [[0, 0], [1, 1], [3, 3]]),
        (MK2, [[0.1, 0.2], [0.3, 0.6], [0.7, 1.4], [0.2, 0.4]]),
        (MK3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 5, 0]]),
        (MK3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
    ], ids=["d1-coincident", "d2-two", "d2-collinear", "d2-collinear-rounded",
            "d3-coplanar", "d3-three"])
    def test_flat_polytope_rejected(self, model, spatial):
        verts = [model.make_point(x, 0.0) for x in spatial]
        y = model.make_point([0.0] * model.spatial_dim, 20.0)
        with pytest.raises(ValueError, match="affinely independent vertices"):
            contraction_check(model, verts, y, 0.5)


def in_order(values):
    """Sum of ``values`` added one after the other, as a float loop from 0.
    (Python 3.12's ``sum`` of floats compensates, so it is not used.)"""
    total = 0.0
    for value in values:
        total += value
    return total


def coordinate_order_joins(xs, ys):
    """``_joins`` for Minkowski segments, one pair at a time in Python floats,
    every sum over coordinates taken in coordinate order."""
    xs, ys = xs.tolist(), ys.tolist()
    dirs = [[q - p for p, q in zip(x, y)] for x, y in zip(xs, ys)]
    lens = [math.sqrt(in_order([c * c for c in d])) for d in dirs]
    units = [[c / length for c in d] for d, length in zip(dirs, lens)]

    def on_line(a, b):
        off = []
        for end in (xs[b], ys[b]):
            w = [p - q for p, q in zip(end, xs[a])]
            along = in_order([wc * uc for wc, uc in zip(w, units[a])])
            off.append(math.sqrt(in_order([(wc - along * uc) ** 2
                                           for wc, uc in zip(w, units[a])])))
        return max(off) <= COLLINEARITY_RTOL * lens[a]

    return np.array([[on_line(a, b) and on_line(b, a)
                      and max(xs[a][-1], xs[b][-1]) <= min(ys[a][-1], ys[b][-1])
                      for b in range(len(xs))] for a in range(len(xs))])


def knife_edge_pairs(d, pairs, seed):
    """Pairs of parallel segments in d + 1 dimensions, each the other shifted
    along its line and off it by COLLINEARITY_RTOL times its length within a
    relative 1e-6, so that rounding decides whether the pair joins."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(pairs):
        x = np.append(rng.uniform(-1, 1, d), rng.uniform(0, 0.2))
        direction = np.append(rng.uniform(-0.9, 0.9, d), 1.0) * rng.uniform(0.5, 2)
        perp = rng.normal(size=d + 1)
        perp -= (perp @ direction) / (direction @ direction) * direction
        perp /= np.linalg.norm(perp)
        h = COLLINEARITY_RTOL * np.linalg.norm(direction) * (1 + rng.uniform(-1e-6, 1e-6))
        shift = rng.uniform(-0.3, 0.3) * direction + h * perp
        xs += [x, x + shift]
        ys += [x + direction, x + direction + shift]
    return np.array(xs), np.array(ys)


class TestJoinsInCoordinateOrder:
    @pytest.mark.parametrize("d", [2, 3])
    def test_knife_edge_pairs_match_reference(self, d):
        xs, ys = knife_edge_pairs(d, 80, d)
        joins = _joins(Minkowski(d), xs, ys)
        expected = coordinate_order_joins(xs, ys)
        # both outcomes occur, so the edge is where the pairs sit
        assert 0 < np.count_nonzero(expected[0::2, 1::2].diagonal()) < 80
        np.testing.assert_array_equal(joins, expected)


class TestRayDecomposition:
    def test_two_parallel_rays(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        rays = ray_decomposition(MK1, coupling)
        assert len(rays) == 2
        assert all(not r.identical for r in rays)

    def test_single_entry_single_ray(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0.5, 2), 1.0)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 1.0)])
        assert len(ray_decomposition(MK1, coupling)) == 1

    def test_collinear_overlapping_merge(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.5), (pt(MK1, 0, 1), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 0.5), (pt(MK1, 0, 3), 0.5)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 0.5), (1, 1, 0.5)])
        rays = ray_decomposition(MK1, coupling)
        assert len(rays) == 1
        assert rays[0].mu_taus == (0.0, 1.0)
        assert rays[0].nu_taus == (2.0, 3.0)

    def test_identical_entries_are_singletons(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.5), (pt(MK1, 3, 0), 0.5)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, mu), [(0, 0, 0.5), (1, 1, 0.5)])
        rays = ray_decomposition(MK1, coupling)
        assert len(rays) == 2
        assert all(r.identical for r in rays)

    def test_crossed_coupling_rejected(self):
        problem = two_by_two_problem()
        crossed = Coupling.from_entries(
            problem, [(0, 1, 0.5), (1, 0, 0.5)]
        )
        with pytest.raises(MonotonicityViolation):
            ray_decomposition(MK1, crossed)

    def test_branching_atom_rejected(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, -1, 2), 0.5), (pt(MK1, 1, 2), 0.5)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 0.5), (0, 1, 0.5)])
        with pytest.raises(MonotonicityViolation):
            ray_decomposition(MK1, coupling)

    def test_seam_crossing_ray_on_cylinder(self):
        from lorot.spacetime import Cylinder

        cyl = Cylinder(5.0)
        # one causal line of slope 0.2 crossing the seam at theta = 0
        line = lambda t: cyl.make_point([4.8 + 0.2 * t], t)
        mu = DiscreteMeasure.from_atoms([(line(0.0), 0.5), (line(0.5), 0.5)])
        nu = DiscreteMeasure.from_atoms([(line(2.0), 0.5), (line(2.5), 0.5)])
        coupling, _ = solve(TransportProblem(cyl, mu, nu))
        rays = ray_decomposition(cyl, coupling)
        assert len(rays) == 1
        out = monge_map(cyl, TransportProblem(cyl, mu, nu))
        assert isinstance(out, MongeMap)
        # monotone in time along the wrapped line
        taus = [nu.points[j].time for j in out.assignment]
        assert taus == sorted(taus)

    def test_cylinder_interval_contraction(self):
        from lorot.spacetime import Cylinder

        cyl = Cylinder(5.0)
        verts = [cyl.make_point([1.0], 0.0), cyl.make_point([2.0], 0.0)]
        measured, predicted = contraction_check(
            cyl, verts, cyl.make_point([1.5], 3.0), 0.5
        )
        assert measured == predicted == 0.5


class TestMongeMap:
    def test_constant_map_to_single_target(self):
        mu = DiscreteMeasure.from_atoms(
            [(pt(MK1, 0, 0.1 * i), 0.25) for i in range(4)]
        )
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 1.0)])
        out = monge_map(MK1, TransportProblem(MK1, mu, nu))
        assert isinstance(out, MongeMap)
        assert out.assignment == (0, 0, 0, 0)

    def test_monotone_on_one_line(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.5), (pt(MK1, 0, 0.5), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 0.5), (pt(MK1, 0, 3), 0.5)])
        out = monge_map(MK1, TransportProblem(MK1, mu, nu))
        assert out.assignment == (0, 1)

    def test_indivisible_atom_splits(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 0.5), (pt(MK1, 0, 3), 0.5)])
        out = monge_map(MK1, TransportProblem(MK1, mu, nu))
        assert isinstance(out, AtomSplit)
        assert out.mu_index == 0

    def test_merging_targets_allowed(self):
        # two non-collinear segments may end at the same target atom
        mu = DiscreteMeasure.from_atoms([(pt(MK1, -1, 0), 0.5), (pt(MK1, 1, 0), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 1.0)])
        out = monge_map(MK1, TransportProblem(MK1, mu, nu))
        assert isinstance(out, MongeMap)
        assert out.assignment == (0, 0)

    def test_stay_put_and_moving_parts_split_the_atom(self):
        # atom 0 keeps half its mass in place and sends half up the line:
        # it sits on a stay-put ray and on a moving ray
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.5), (pt(MK1, 0, 2), 0.5)])
        out = monge_map(MK1, TransportProblem(MK1, mu, nu))
        assert out == AtomSplit(0, "atom mass is split across rays")

    def test_engineered_instances_match_solver_cost(self):
        for seed in range(8):
            problem = separated_rays_problem(seed)
            coupling, _ = solve(problem)
            out = monge_map(MK1, problem)
            assert isinstance(out, MongeMap), f"seed {seed} split: {out}"
            assert abs(out.total_cost - coupling.total_cost) <= 1e-9 * (
                1 + abs(coupling.total_cost)
            )


class TestOnRayCostInvariance:
    def test_all_causal_couplings_cost_the_same(self):
        # fixed marginals on a single timelike line: the total cost depends
        # only on the marginals, so every causal coupling ties
        rng = np.random.default_rng(71)
        v = 0.6  # spatial velocity of the line
        n = 6
        base_taus = np.sort(rng.uniform(0, 1, n))
        top_taus = np.sort(rng.uniform(2, 3, n))
        mu = DiscreteMeasure.from_atoms(
            [(pt(MK1, v * t, t), 1.0 / n) for t in base_taus]
        )
        nu = DiscreteMeasure.from_atoms(
            [(pt(MK1, v * t, t), 1.0 / n) for t in top_taus]
        )
        costs = []
        for _ in range(100):
            sigma = rng.permutation(n)
            coupling = Coupling.from_entries(
                TransportProblem(MK1, mu, nu), [(i, int(sigma[i]), 1.0 / n) for i in range(n)]
            )
            costs.append(coupling.total_cost)
        assert max(costs) - min(costs) <= 1e-12


# -- the pre-array implementations, kept as references -----------------------


def reference_measure(atoms):
    """The dict-merge constructor measures used before they held arrays:
    (coordinates, weights, atom of each input pair) of the canonical measure."""
    atoms = list(atoms)
    merged = {}
    for p, w in atoms:
        merged[p] = merged.get(p, 0.0) + float(w)
    order = sorted(merged, key=lambda p: p.coords())
    index = {p: i for i, p in enumerate(order)}
    coords = np.array([p.coords() for p in order], dtype=float)
    return coords, np.array([merged[p] for p in order]), [index[p] for p, _ in atoms]


def reference_entry_atoms(model, coupling, t):
    points = [Point(tuple(row[:-1]), row[-1])
              for row in model.geodesic_points(*coupling.entry_coords(), t).tolist()]
    return [(p, mass) for p, (_, _, mass) in zip(points, coupling.entries)]


def reference_restrict(model, coupling, s1, s2):
    """(m1 arrays, m2 arrays, entries sorted by (i, j)) merged through a dict."""
    c1, w1, map1 = reference_measure(reference_entry_atoms(model, coupling, s1))
    c2, w2, map2 = reference_measure(reference_entry_atoms(model, coupling, s2))
    merged = {}
    for k, (_, _, mass) in enumerate(coupling.entries):
        key = (map1[k], map2[k])
        merged[key] = merged.get(key, 0.0) + mass
    return (c1, w1), (c2, w2), sorted((i, j, m) for (i, j), m in merged.items())


def reference_ray_decomposition(model, coupling):
    """Union-find over the join matrix, per-ray dicts of atom masses."""
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
        dirs = np.concatenate(
            [model.displacement(xc[:, :-1], yc[:, :-1]), yc[:, -1:] - xc[:, -1:]], axis=1
        )
        lens = np.linalg.norm(dirs, axis=1)
        unit = dirs / lens[:, None]
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
        for a in range(len(moving)):
            for b in np.nonzero(join[a, a + 1:])[0]:
                union(moving[a], moving[a + b + 1])

    groups = {}
    for e in range(k):
        groups.setdefault(find(e) if not identical[e] else -1 - e, []).append(e)
    mu_points, nu_points = coupling.mu.points, coupling.nu.points
    rays = []
    for key in sorted(groups, key=lambda g: min(groups[g])):
        mu_mass, nu_mass = {}, {}
        for e in groups[key]:
            i, j, mass = entries[e]
            mu_mass[i] = mu_mass.get(i, 0.0) + mass
            nu_mass[j] = nu_mass.get(j, 0.0) + mass
        mu_atoms = sorted(mu_mass, key=lambda i: mu_points[i].time)
        nu_atoms = sorted(nu_mass, key=lambda j: nu_points[j].time)
        rays.append(TransportRay(
            entry_indices=tuple(groups[key]),
            mu_atoms=tuple(mu_atoms),
            nu_atoms=tuple(nu_atoms),
            mu_taus=tuple(mu_points[i].time for i in mu_atoms),
            nu_taus=tuple(nu_points[j].time for j in nu_atoms),
            mu_masses=tuple(mu_mass[i] for i in mu_atoms),
            nu_masses=tuple(nu_mass[j] for j in nu_atoms),
            identical=key < 0,
        ))
    moving_rays_of_atom = {}
    for r, ray in enumerate(rays):
        if not ray.identical:
            for i in ray.mu_atoms:
                moving_rays_of_atom.setdefault(i, []).append(r)
    for i, rs in moving_rays_of_atom.items():
        if len(rs) > 1:
            raise MonotonicityViolation(
                f"mu-atom {i} feeds non-collinear segments (rays {rs}); "
                "branching support has no discrete ray decomposition"
            )
    return tuple(rays)


def across_the_seam(problem):
    """``problem`` on ``Cylinder(5.0)``, every atom moved by x -> x + 4.98 +
    0.04 t: the rays tilt, ray 0 crosses the seam and the others lie past
    it. Its spatial spread stays below 0.75 + 0.04 dt < dt for every pair of
    atoms, so every pair stays causal."""
    cyl = Cylinder(5.0)

    def moved(measure):
        coords = measure.coords_array().copy()
        coords[:, 0] = cyl.normalize(coords[:, 0] + 4.98 + 0.04 * coords[:, 1])
        return DiscreteMeasure.from_arrays(coords, measure.weights_array())[0]

    return TransportProblem(cyl, moved(problem.mu), moved(problem.nu))


def mirrored(problem):
    """The problem reflected in space, x -> -x (0.0 becomes -0.0)."""
    flip = np.array([-1.0, 1.0])
    return TransportProblem(*[problem.model] + [
        DiscreteMeasure.from_arrays(m.coords_array() * flip, m.weights_array())[0]
        for m in (problem.mu, problem.nu)
    ])


def outcome(f, *args):
    """``repr`` of what f returns, or the type and message of what it raises."""
    try:
        return repr(f(*args))
    except MonotonicityViolation as exc:
        return f"MonotonicityViolation: {exc}"


FAMILIES = {
    "rays": lambda: [separated_rays_problem(s) for s in range(50)],
    "rays_mirrored": lambda: [mirrored(separated_rays_problem(s)) for s in range(50)],
    "strict": lambda: [random_strict_problem(s) for s in range(5)],
    "line25": lambda: [line_blowup_problem(25)],
    "cylinder_seam": lambda: [across_the_seam(separated_rays_problem(s)) for s in range(20)],
    "weighted": lambda: [random_weighted_causal_problem(np.random.default_rng(s))
                         for s in range(20)],
}


class TestArrayPathMatchesReference:
    """Interpolation, restriction and rays agree with the pre-array code bit
    for bit: coordinates, weights, entries, rays and error messages."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family(self, family):
        for problem in FAMILIES[family]():
            model = problem.model
            coupling, _ = solve(problem)
            for t in (0.0, 0.25, 0.5, 1.0):
                got = interpolate(model, coupling, t)
                coords, weights, _ = reference_measure(reference_entry_atoms(model, coupling, t))
                assert got.coords_array().tobytes() == coords.tobytes()
                assert got.weights_array().tobytes() == weights.tobytes()
            sub, restricted = restrict(model, coupling, 0.25, 0.75, verify=False)
            side1, side2, entries = reference_restrict(model, coupling, 0.25, 0.75)
            for m, (coords, weights) in ((sub.mu, side1), (sub.nu, side2)):
                assert m.coords_array().tobytes() == coords.tobytes()
                assert m.weights_array().tobytes() == weights.tobytes()
            assert restricted.entries == tuple(entries)
            assert np.array([e[2] for e in restricted.entries]).tobytes() == np.array(
                [e[2] for e in entries]).tobytes()
            assert outcome(ray_decomposition, model, coupling) == outcome(
                reference_ray_decomposition, model, coupling)

    def test_cylinder_family_moves_mass_across_the_seam(self):
        # some entry's stored angles lie more than half the circumference apart
        crossing = 0
        for problem in FAMILIES["cylinder_seam"]():
            xs, ys = solve(problem)[0].entry_coords()
            crossing += int((np.abs(ys[:, 0] - xs[:, 0]) > 2.5).sum())
        assert crossing > 0

    def test_masses_on_a_shared_atom_add_in_entry_order(self):
        # forty entries up one line, nu-atom j taking those of mu-atoms i = j
        # mod 4: each nu-atom's entries interleave with the others', and their
        # masses span six decades, so the sum's bits depend on its order
        rng = np.random.default_rng(0)
        w = 10.0 ** rng.uniform(-6, 0, 40)
        w /= w.sum()
        mu = DiscreteMeasure.from_arrays([[0.0, 0.01 * i] for i in range(40)], w)[0]
        nu = DiscreteMeasure.from_arrays([[0.0, 2.0 + 0.1 * j] for j in range(4)],
                                         [sum(w[j::4].tolist()) for j in range(4)])[0]
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu),
                                         [(i, i % 4, w[i]) for i in range(40)])
        rays = ray_decomposition(MK1, coupling)
        assert len(rays) == 1
        assert repr(rays) == repr(reference_ray_decomposition(MK1, coupling))

    def test_mirrored_family_holds_negative_zeros(self):
        # the reflection of x = 0.0 is -0.0, which merges with 0.0 when equal
        assert np.signbit(mirrored(separated_rays_problem(0)).mu.coords_array()[:, 0]).any()

    def test_chain_of_overlaps_is_one_ray(self):
        # five segments up one line, each overlapping only its neighbours in
        # time: joined pairwise along a chain, they still form one ray
        starts = [0.0, 0.9, 1.8, 2.7, 3.6]
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, t), 0.2) for t in starts])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, t + 1.0), 0.2) for t in starts])
        coupling = Coupling.from_entries(
            TransportProblem(MK1, mu, nu), [(i, i, 0.2) for i in range(5)]
        )
        rays = ray_decomposition(MK1, coupling)
        assert [ray.entry_indices for ray in rays] == [(0, 1, 2, 3, 4)]
        assert rays == reference_ray_decomposition(MK1, coupling)

    def test_time_tie_inside_a_ray_keeps_first_appearance(self):
        # nu-atoms 0 and 1 tie at t = 1 on one ray (1e-12 apart, within the
        # collinearity tolerance); entry (0, 1) comes first, so atom 1 leads
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.5), (pt(MK1, 0, 0.5), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 1), 0.5), (pt(MK1, 1e-12, 1), 0.5)])
        coupling = Coupling.from_entries(
            TransportProblem(MK1, mu, nu), [(0, 1, 0.5), (1, 0, 0.5)]
        )
        rays = ray_decomposition(MK1, coupling)
        assert len(rays) == 1
        assert rays[0].nu_atoms == (1, 0) and rays[0].nu_taus == (1.0, 1.0)
        assert rays == reference_ray_decomposition(MK1, coupling)


class TestRayRowBlocks:
    """The pairwise passes of ``ray_decomposition`` walk row blocks: any
    block size gives the same rays and errors, and the traced peak is the
    E x E boolean join and its one-sided half plus a few block buffers."""

    BLOCK = spacetime.BLOCK_PAIRS * 8

    def test_one_row_blocks_give_the_same_outcome(self, monkeypatch):
        # entries 1 and 2 cross, so the violation lies below the first row block
        third = 1.0 / 3.0
        mu = DiscreteMeasure.from_atoms([(pt(MK1, x, 0), third) for x in (0, 1, 2)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, x, 2), third) for x in (0, 1, 2)])
        crossed = Coupling.from_entries(TransportProblem(MK1, mu, nu),
                                        [(0, 0, third), (1, 2, third), (2, 1, third)])
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, -1, 2), 0.5), (pt(MK1, 1, 2), 0.5)])
        branching = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 0.5), (0, 1, 0.5)])
        couplings = [crossed, branching] + [
            solve(problem)[0] for problem in (
                separated_rays_problem(4), mirrored(separated_rays_problem(5)),
                across_the_seam(separated_rays_problem(6)), line_blowup_problem(30),
                random_strict_problem(1))]

        def run():
            # copies, which hold no rays from an earlier run
            return [outcome(ray_decomposition, c.problem.model, replace(c)) for c in couplings]

        default = run()
        assert default[0].startswith(
            "MonotonicityViolation: two-cycle improvement between entries 1 and 2: ")
        assert default[1].startswith("MonotonicityViolation: mu-atom 0 feeds")
        monkeypatch.setattr(spacetime, "BLOCK_PAIRS", 1)
        assert run() == default

    def test_line_800_holds_the_join_and_a_few_blocks(self):
        # the index-shift coupling of the line: 800 lightlike segments
        n = 800
        problem = line_blowup_problem(n)
        k = np.arange(n)
        coupling = Coupling.from_columns(problem, k, k.copy(), problem.mu.weights_array().copy())
        coupling.cost_matrix(MK1)  # built before tracing
        tracemalloc.start()
        try:
            rays = ray_decomposition(MK1, coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rays) == n
        assert peak < 2 * n * n + 8 * self.BLOCK, f"ray_decomposition peaked at {peak} bytes"


# -- the per-ray Monge rearrangement, kept as a reference ---------------------


def reference_ray_rearrangement(ray, mu_cum, nu_cum, assignment):
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


def reference_monge_map(model, problem):
    """The Monge map with one search per ray: solve, decompose into rays,
    and rearrange each ray on its own running totals."""
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
        split_atom = reference_ray_rearrangement(
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


def shifted(measure, dt):
    """``measure`` moved by dt in time."""
    coords = measure.coords_array().copy()
    coords[:, -1] += dt
    return DiscreteMeasure.from_arrays(coords, measure.weights_array())[0]


def coarse_to_fine(seed):
    """A rays instance run backwards: mu is its nu moved down one time unit
    and nu its mu moved up two, so each mu-atom must spread over k nu-atoms."""
    problem = separated_rays_problem(seed)
    return TransportProblem(problem.model, shifted(problem.nu, -1.0), shifted(problem.mu, 2.0))


def measure(rows, weights):
    return DiscreteMeasure.from_arrays(rows, weights)[0]


class TestMongeMapMatchesReference:
    """One rearrangement pass over all rays returns what one search per ray
    did: the same map, rays and cost, or the same split atom and message."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family(self, family):
        expected = "MonotonicityViolation" if family in ("strict", "weighted") else "MongeMap"
        for problem in FAMILIES[family]():
            got = outcome(monge_map, problem.model, problem)
            assert got == outcome(reference_monge_map, problem.model, problem)
            assert got.startswith(expected)

    def test_coarse_to_fine_splits_the_first_atom(self):
        for seed in range(20):
            problem = coarse_to_fine(seed)
            got = outcome(monge_map, MK1, problem)
            assert got == outcome(reference_monge_map, MK1, problem)
            assert got == repr(AtomSplit(0, "mass interval straddles a nu-atom boundary"))

    def test_straddle_on_the_second_ray(self):
        # ray 0 (x = 0) maps both its atoms to nu-atom 0; on ray 1 (x = 1)
        # mu-atom 3 carries 1/8..1/2 of the ray's mass across nu-atom 1's
        # upper end at 1/4
        problem = TransportProblem(
            MK1, measure([[0, 0], [0, 0.1], [1, 0], [1, 0.1]], [0.25, 0.25, 0.125, 0.375]),
            measure([[0, 2], [1, 2], [1, 2.1]], [0.5, 0.25, 0.25]))
        got = outcome(monge_map, MK1, problem)
        assert got == outcome(reference_monge_map, MK1, problem)
        assert got == repr(AtomSplit(3, "mass interval straddles a nu-atom boundary"))

    def test_rays_sharing_a_nu_atom(self):
        # rays 0 and 2 come in from either side and end on nu-atom 1; ray 1
        # runs up x = 0 between them and ends on nu-atom 0
        problem = TransportProblem(
            MK1, measure([[-1, 0], [0, 0.5], [0, 0.6], [1, 0]], [0.25] * 4),
            measure([[0, 2], [0, 3]], [0.5, 0.5]))
        got = monge_map(MK1, problem)
        assert repr(got) == outcome(reference_monge_map, MK1, problem)
        assert got.assignment == (1, 0, 0, 1)
        assert [ray.nu_atoms for ray in got.rays] == [(1,), (0,), (1,)]


def spy(fn, calls):
    """``fn``, appending to ``calls`` on every call."""
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


class TestHeldRays:
    """A coupling keeps its rays, and ``monge_map`` reuses the optimum and
    the rays its caller holds."""

    def test_second_call_returns_the_same_rays(self):
        problem = separated_rays_problem(0)
        coupling, _ = solve(problem)
        rays = ray_decomposition(problem.model, coupling)
        assert ray_decomposition(problem.model, coupling) is rays

    @pytest.mark.parametrize("seed", range(5))
    def test_monge_map_reuses_the_held_optimum_and_rays(self, seed, monkeypatch):
        problem = separated_rays_problem(seed)
        model = problem.model
        coupling, _ = solve(problem)
        rays = ray_decomposition(model, coupling)
        bases, joins = [], []
        monkeypatch.setattr(solver, "_Basis", spy(solver._Basis, bases))
        monkeypatch.setattr(transport, "_joins", spy(transport._joins, joins))
        held = monge_map(model, problem)
        assert bases == [] and joins == []
        assert held.rays is rays
        # an equal problem that holds no optimum: solved and decomposed afresh
        fresh = monge_map(model, replace(problem))
        assert len(bases) == 1 and len(joins) == 1
        assert repr(held) == repr(fresh)

    def test_foreign_model_still_named_after_the_rays_are_kept(self):
        problem = separated_rays_problem(0)
        coupling, _ = solve(problem)
        ray_decomposition(MK1, coupling)
        message = "coupling is priced under Minkowski(d=1), not Cylinder(circumference=0.5)"
        for layer in (lambda: ray_decomposition(Cylinder(0.5), coupling),
                      lambda: monge_map(Cylinder(0.5), problem)):
            with pytest.raises(ValueError, match=re.escape(message)):
                layer()

    def test_violation_is_not_kept(self, monkeypatch):
        third = 1.0 / 3.0
        mu = DiscreteMeasure.from_atoms([(pt(MK1, x, 0), third) for x in (0, 1, 2)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, x, 2), third) for x in (0, 1, 2)])
        crossed = Coupling.from_entries(TransportProblem(MK1, mu, nu),
                                        [(0, 0, third), (1, 2, third), (2, 1, third)])
        audits = []
        monkeypatch.setattr(transport, "_check_two_cycles", spy(_check_two_cycles, audits))
        for _ in range(2):
            with pytest.raises(MonotonicityViolation, match="two-cycle improvement"):
                ray_decomposition(MK1, crossed)
        assert len(audits) == 2

    def test_restrict_verifies_against_a_fresh_solve(self, monkeypatch):
        problem = separated_rays_problem(0)
        coupling, _ = solve(problem)
        bases = []
        monkeypatch.setattr(solver, "_Basis", spy(solver._Basis, bases))
        for k in (1, 2):
            restrict(problem.model, coupling, 0.25, 0.75, verify=True)
            assert len(bases) == k
