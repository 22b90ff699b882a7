import numpy as np
import pytest

from conftest import two_by_two_problem
from lorot.diagnostics import lightlike_fraction
from lorot.dual import DualPotential, chain_potential, dkp_verify
from lorot.errors import MonotonicityViolation, NotCausalPair
from lorot.experiments import line_blowup_problem, separated_rays_problem
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, solve
from lorot.spacetime import Minkowski
from lorot.transport import (
    AtomSplit,
    MongeMap,
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

    def test_ray_cdf_shape(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.75), (pt(MK1, 0, 1), 0.25)])
        nu = DiscreteMeasure.from_atoms([(pt(MK1, 0, 2), 1.0)])
        coupling = Coupling.from_entries(
            TransportProblem(MK1, mu, nu), [(0, 0, 0.75), (1, 0, 0.25)]
        )
        ray = ray_decomposition(MK1, coupling)[0]
        cdf = ray.cdf_mu()
        assert cdf(-1.0) == 0.0
        assert cdf(0.0) == 0.75  # right continuous: includes the atom at 0
        assert cdf(0.5) == 0.75
        assert cdf(1.0) == cdf(99.0) == cdf.total == 1.0
        assert ray.cdf_nu().total == pytest.approx(1.0)


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
