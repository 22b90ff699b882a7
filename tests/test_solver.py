import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    random_uniform_causal_problem,
    random_weighted_causal_problem,
    two_by_two_problem,
)
from lorot.errors import Infeasible, SchemaError, TooLarge
from lorot.measures import DiscreteMeasure, grid_segment
from lorot.solver import (
    SolverOptions,
    TransportProblem,
    brute_force_oracle,
    dual_objective,
    problem_from_json,
    problem_to_json,
    solve,
)
from lorot.spacetime import Minkowski

MK1 = Minkowski(1)


def pt(*coords):
    return MK1.make_point(coords[:-1], coords[-1])


def enumerate_permutation_optimum(problem):
    """Direct permutation enumeration, written independently of the solver."""
    C = problem.cost_matrix()
    n = problem.mu.n_atoms
    w = problem.mu.weights_array()
    best = math.inf
    for sigma in itertools.permutations(range(n)):
        total = 0.0
        ok = True
        for i, j in enumerate(sigma):
            if not np.isfinite(C[i, j]):
                ok = False
                break
            total += w[i] * C[i, j]
        if ok:
            best = min(best, total)
    return best


class TestSolveExamples:
    def test_two_by_two_diagonal(self):
        problem = two_by_two_problem()
        coupling, duals = solve(problem)
        assert [(i, j) for i, j, _ in coupling.entries] == [(0, 0), (1, 1)]
        assert coupling.total_cost == pytest.approx(-2.0, abs=1e-14)
        # beats the anti-diagonal, whose cost is -sqrt(3)
        assert enumerate_permutation_optimum(problem) == pytest.approx(-2.0)

    def test_line_grids_shift_pairing(self):
        for n in (4, 9):
            mu = grid_segment(MK1, pt(0, 0), pt(1, 0), n)
            nu = grid_segment(MK1, pt(1, 1), pt(2, 1), n)
            coupling, _ = solve(TransportProblem(MK1, mu, nu))
            assert [(i, j) for i, j, _ in coupling.entries] == [(i, i) for i in range(n)]
            assert coupling.total_cost == 0.0

    def test_target_in_past_infeasible(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 1), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        with pytest.raises(Infeasible):
            solve(TransportProblem(MK1, mu, nu))

    def test_infeasible_names_side_and_atom(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 1), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        with pytest.raises(Infeasible, match="^mu-atom 0 has no causal partner among the nu-atoms$"):
            solve(TransportProblem(MK1, mu, nu))
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(1, 0), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 1), 0.5), (pt(5, 1), 0.5)])
        with pytest.raises(Infeasible, match="^nu-atom 1 has no causal partner among the mu-atoms$"):
            solve(TransportProblem(MK1, mu, nu))

    def test_partial_reachability_infeasible(self):
        # both nu atoms are causal from mu atom 0 only, which lacks the mass
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(50, 0), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 1), 0.5), (pt(0.5, 1), 0.5)])
        with pytest.raises(Infeasible):
            solve(TransportProblem(MK1, mu, nu))

    def test_cylinder_wraps_through_the_seam(self):
        from lorot.spacetime import Cylinder

        cyl = Cylinder(5.0)
        mu = DiscreteMeasure.from_atoms(
            [(cyl.make_point([4.6], 0.0), 0.5), (cyl.make_point([4.8], 0.0), 0.5)]
        )
        nu = DiscreteMeasure.from_atoms(
            [(cyl.make_point([0.1], 1.0), 0.5), (cyl.make_point([0.3], 1.0), 0.5)]
        )
        problem = TransportProblem(cyl, mu, nu)
        coupling, duals = solve(problem)
        # order preserved around the seam: 4.6 -> 0.1 and 4.8 -> 0.3
        assert [(i, j) for i, j, _ in coupling.entries] == [(0, 0), (1, 1)]
        assert coupling.total_cost == pytest.approx(
            -2 * 0.5 * (1 - 0.5**2) ** 0.5, abs=1e-12
        )
        TestDuals.check_duals(problem, coupling, duals)


class TestOracle:
    def test_matches_permutation_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            problem = random_uniform_causal_problem(rng)
            coupling, _ = solve(problem)
            oracle = brute_force_oracle(problem)
            direct = enumerate_permutation_optimum(problem)
            assert coupling.total_cost == pytest.approx(oracle.total_cost, abs=1e-10)
            assert oracle.total_cost == pytest.approx(direct, abs=1e-12)

    def test_weighted_instances_against_lp(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            problem = random_weighted_causal_problem(rng)
            coupling, _ = solve(problem)
            oracle = brute_force_oracle(problem)
            assert coupling.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)

    def test_single_atom_pair(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 1), 1.0)])
        oracle = brute_force_oracle(TransportProblem(MK1, mu, nu))
        assert oracle.entries == ((0, 0, 1.0),)

    def test_too_large(self):
        mu = grid_segment(MK1, pt(0, 0), pt(1, 0), 7)
        nu = grid_segment(MK1, pt(0, 5), pt(1, 5), 7)
        with pytest.raises(TooLarge):
            brute_force_oracle(TransportProblem(MK1, mu, nu))

    def test_oracle_infeasible(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 1), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        with pytest.raises(Infeasible):
            brute_force_oracle(TransportProblem(MK1, mu, nu))


class TestDuals:
    @staticmethod
    def check_duals(problem, coupling, duals):
        u, v = duals
        C = problem.cost_matrix()
        slack = v[None, :] - u[:, None] - C
        finite = np.isfinite(C)
        assert np.max(slack[finite]) <= 1e-9
        for i, j, _ in coupling.entries:
            assert abs(v[j] - u[i] - C[i, j]) <= 1e-8
        gap = abs(coupling.total_cost - dual_objective(coupling, duals))
        assert gap <= 1e-8 * (1 + abs(coupling.total_cost))

    def test_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            problem = random_uniform_causal_problem(rng)
            coupling, duals = solve(problem)
            self.check_duals(problem, coupling, duals)
        for _ in range(20):
            problem = random_weighted_causal_problem(rng)
            coupling, duals = solve(problem)
            self.check_duals(problem, coupling, duals)

    def test_on_line_grid(self):
        mu = grid_segment(MK1, pt(0, 0), pt(1, 0), 30)
        nu = grid_segment(MK1, pt(1, 1), pt(2, 1), 30)
        problem = TransportProblem(MK1, mu, nu)
        coupling, duals = solve(problem)
        self.check_duals(problem, coupling, duals)


class TestMarginals:
    def test_row_col_sums(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            problem = random_weighted_causal_problem(rng)
            coupling, _ = solve(problem)
            np.testing.assert_allclose(
                coupling.row_sums(), problem.mu.weights_array(), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                coupling.col_sums(), problem.nu.weights_array(), rtol=0, atol=1e-12
            )

    def test_exact_masses_sum_to_exact_weights(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        fracs = coupling.exact_mass_fractions()
        by_row = {}
        for (i, _, _), f in zip(coupling.entries, fracs):
            by_row[i] = by_row.get(i, Fraction(0)) + f
        for i, w in enumerate(problem.mu.weights):
            assert by_row[i] == Fraction(w)

    def test_mass_positive_on_entries(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            coupling, _ = solve(random_weighted_causal_problem(rng))
            assert all(mass > 0 for _, _, mass in coupling.entries)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            problem = random_weighted_causal_problem(rng)
            a, da = solve(problem)
            b, db = solve(problem)
            assert a.entries == b.entries
            assert repr(a.total_cost) == repr(b.total_cost)
            assert np.array_equal(da[0], db[0]) and np.array_equal(da[1], db[1])


class TestProblemJson:
    def test_roundtrip(self):
        problem = two_by_two_problem()
        back = problem_from_json(problem_to_json(problem))
        assert back.mu == problem.mu and back.nu == problem.nu
        assert back.model == problem.model

    def test_schema_errors(self):
        good = problem_to_json(two_by_two_problem())
        for mutate in (
            lambda o: o.pop("model"),
            lambda o: o.pop("mu"),
            lambda o: o.__setitem__("options", {"bogus": 1}),
            lambda o: o.__setitem__("options", {"tie_break": "random"}),
        ):
            obj = problem_to_json(two_by_two_problem())
            mutate(obj)
            with pytest.raises(SchemaError):
                problem_from_json(obj)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tolerance=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(tie_break="arbitrary")
