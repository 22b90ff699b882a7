import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_uniform_causal_problem,
    random_weighted_causal_problem,
    two_by_two_problem,
)
from lorot.diagnostics import audit
from lorot.dual import DualPotential, PositiveCycle, chain_potential, dkp_verify
from lorot.errors import Infeasible, SchemaError, TooLarge
from lorot.experiments import (
    line_blowup_problem,
    random_strict_problem,
    run_line_counterexample,
    separated_rays_problem,
)
from lorot.measures import DiscreteMeasure, grid_segment
from lorot.solver import (
    PRICE_TOL,
    TransportProblem,
    _Basis,
    _integer_marginals,
    _optimize,
    brute_force_oracle,
    dual_objective,
    problem_from_json,
    problem_to_json,
    solve,
)
from lorot.spacetime import Cylinder, Minkowski
from lorot.transport import MongeMap, monge_map, ray_decomposition

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

    def test_stranded_mass_names_atom(self):
        # every atom has a causal partner, but mu-atom 1 (mass 3/4) reaches
        # only nu-atom 1, which holds 1/2
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.25), (pt(10, 0), 0.75)])
        nu = DiscreteMeasure.from_atoms([(pt(-3, 4), 0.5), (pt(5, 6), 0.5)])
        with pytest.raises(Infeasible, match="^mu-atom 1 cannot place mass 1/4: "):
            solve(TransportProblem(MK1, mu, nu))

    def test_partial_reachability_infeasible(self):
        # every atom has a causal partner, but Hall's condition fails: the
        # mu-atoms at x=-6 and x=-5 (mass 3/4) reach only the nu-atom at
        # x=-5 (mass 1/4), so the search must reroute through the support
        # before it finds the stranded mass
        mu = DiscreteMeasure.from_atoms(
            [(pt(0, -100), 0.25), (pt(-5, 0), 0.25), (pt(-6, 0), 0.5)]
        )
        nu = DiscreteMeasure.from_atoms(
            [(pt(-5, 5), 0.25), (pt(20, 1), 0.25), (pt(30, 1), 0.5)]
        )
        problem = TransportProblem(MK1, mu, nu)
        finite = np.isfinite(problem.cost_matrix())
        assert finite.any(axis=0).all() and finite.any(axis=1).all()
        with pytest.raises(Infeasible, match="^mu-atom 0 cannot place mass 1/2: "):
            solve(problem)

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


@st.composite
def small_problems(draw):
    """Up to 6 atoms a side with dyadic weights; some pairs are not causal."""
    model = draw(st.sampled_from([Minkowski(1), Minkowski(2), Minkowski(3), Cylinder(5.0)]))
    coord = st.floats(0.0, 1.5, allow_subnormal=False)

    def measure(t_lo, t_hi):
        n = draw(st.integers(1, 6))
        cuts = sorted(draw(st.lists(st.integers(1, 15), min_size=n - 1, max_size=n - 1,
                                    unique=True)))
        weights = np.diff([0, *cuts, 16]) / 16.0
        return DiscreteMeasure.from_atoms(
            (model.make_point([draw(coord) for _ in range(model.spatial_dim)],
                              draw(st.floats(t_lo, t_hi))), w)
            for w in weights
        )

    return TransportProblem(model, measure(0.0, 0.5), measure(1.0, 2.5))


class TestOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_problems())
    def test_matches_oracle_on_small_instances(self, problem):
        try:
            oracle = brute_force_oracle(problem)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve(problem)
            return
        coupling, duals = solve(problem)
        assert coupling.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)
        TestDuals.check_duals(problem, coupling, duals)

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

    def test_noncausal_staircase_cell_pivoted_out(self):
        # the north-west cell (0, 0) carries mass 1/2 at the start, but its
        # pair is not causal: mu-atom 0 can only ship to nu-atom 1
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(1, 0), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(0.9, 0.5), 0.5), (pt(1.5, 2), 0.5)])
        problem = TransportProblem(MK1, mu, nu)
        assert not np.isfinite(problem.cost_matrix()[0, 0])
        coupling, duals = solve(problem)
        assert [(i, j) for i, j, _ in coupling.entries] == [(0, 1), (1, 0)]
        assert coupling.total_cost == pytest.approx(
            brute_force_oracle(problem).total_cost, abs=1e-12)
        self.check_duals(problem, coupling, duals)

    def test_line_dual_spread(self):
        # every optimal arc is lightlike (cost 0): the spread of the LP duals
        # is sqrt(2n-3), set by the steepest finite arc alone
        n = 400
        problem = line_blowup_problem(n)
        coupling, (u, v) = solve(problem)
        assert float(np.ptp(-u)) == pytest.approx(math.sqrt(2 * n - 3), abs=1e-9)
        self.check_duals(problem, coupling, (u, v))

    def test_on_line_grid(self):
        mu = grid_segment(MK1, pt(0, 0), pt(1, 0), 30)
        nu = grid_segment(MK1, pt(1, 1), pt(2, 1), 30)
        problem = TransportProblem(MK1, mu, nu)
        coupling, duals = solve(problem)
        self.check_duals(problem, coupling, duals)


class StrictlyCheckedBasis(_Basis):
    """A basis that asserts strong feasibility after every pivot."""

    pivots = 0

    def pivot(self, i, j):
        super().pivot(i, j)
        self.pivots += 1
        for x, p in enumerate(self.parent):
            if p >= 0 and self.flow[x] == 0:
                # a zero-flow arc must point away from the root: mu-parent, nu-child
                assert x >= self.n, f"zero-flow arc above mu-atom {x} points to the root"


class TestBasis:
    def test_pivots_keep_the_tree_strongly_feasible(self):
        # equal weights make ties in the staircase and degenerate pivots
        rng = np.random.default_rng(3)
        pivots = 0
        for _ in range(60):
            problem = random_uniform_causal_problem(rng, d=2)
            C = problem.cost_matrix()
            supplies, demands, _ = _integer_marginals(problem.mu.weights, problem.nu.weights)
            basis = StrictlyCheckedBasis(C, supplies, demands)
            _optimize(basis, C, PRICE_TOL * (1.0 + np.max(np.abs(C[np.isfinite(C)]))))
            pivots += basis.pivots
        assert pivots > 0


def fraction_marginals(wa, wb):
    """Reference for ``_integer_marginals`` in ``Fraction`` arithmetic: the
    demand side rescaled to the supply total, then both sides over their
    least common denominator."""
    fa = [Fraction(w) for w in wa]
    fb = [Fraction(w) for w in wb]
    scale = sum(fa) / sum(fb)
    fb = [w * scale for w in fb]
    denom = math.lcm(*[f.denominator for f in fa + fb])
    return [int(f * denom) for f in fa], [int(f * denom) for f in fb], denom


@st.composite
def weight_vectors(draw):
    """Uniform 1/n, normalised random (whose totals miss 1 by an ulp or so),
    or dyadic with atoms down to 2**-1000."""
    kind = draw(st.sampled_from(["uniform", "normalised", "dyadic"]))
    n = draw(st.integers(1, 40))
    if kind == "uniform":
        return [1.0 / n] * n
    if kind == "normalised":
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        return list(w / w.sum())
    exponents = draw(st.lists(st.integers(2, 1000), max_size=n - 1, unique=True))
    tiny = [2.0 ** -e for e in exponents]
    return [1.0 - sum(tiny), *tiny]


class TestMarginals:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weight_vectors(), weight_vectors())
    def test_integer_marginals_match_fraction_reference(self, wa, wb):
        assert _integer_marginals(wa, wb) == fraction_marginals(wa, wb)

    def test_row_col_sums(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            problem = random_weighted_causal_problem(rng)
            coupling, _ = solve(problem)
            ii, jj, mm = coupling.index_arrays()
            np.testing.assert_allclose(
                np.bincount(ii, weights=mm, minlength=problem.mu.n_atoms),
                problem.mu.weights_array(), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                np.bincount(jj, weights=mm, minlength=problem.nu.n_atoms),
                problem.nu.weights_array(), rtol=0, atol=1e-12
            )

    def test_exact_masses_sum_to_exact_weights(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        by_row = {}
        for (i, _, _), q in zip(coupling.entries, coupling.exact_masses):
            by_row[i] = by_row.get(i, Fraction(0)) + Fraction(q, coupling.exact_denominator)
        for i, w in enumerate(problem.mu.weights):
            assert by_row[i] == Fraction(w)

    def test_mass_positive_on_entries(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            coupling, _ = solve(random_weighted_causal_problem(rng))
            assert all(mass > 0 for _, _, mass in coupling.entries)


class TestOneCostMatrix:
    def test_line_study_builds_one_matrix_per_level(self, cost_matrix_calls):
        run_line_counterexample(25, levels=2)
        assert cost_matrix_calls == [(25, 25), (50, 50)]

    def test_every_layer_reads_the_problem_matrix(self, cost_matrix_calls):
        problem = separated_rays_problem(0)
        model = problem.model
        coupling, (u, v) = solve(problem)
        assert not isinstance(chain_potential(model, coupling), PositiveCycle)
        assert dkp_verify(model, coupling, DualPotential.from_arrays(u, v)).feasible
        assert audit(model, problem, coupling, (u, v)).monotonicity_violations == 0
        assert ray_decomposition(model, coupling)
        assert isinstance(monge_map(model, problem), MongeMap)
        assert len(cost_matrix_calls) == 1

    def test_read_only_and_equal_to_a_fresh_build(self):
        problem = random_strict_problem(3)
        coupling, _ = solve(problem)
        C = problem.cost_matrix()
        fresh = problem.model.cost_matrix(problem.mu.coords_array(), problem.nu.coords_array())
        assert C.tobytes() == fresh.tobytes()
        assert coupling.cost_matrix(problem.model) is C
        with pytest.raises(ValueError, match="read-only"):
            C[0, 0] = 0.0

    def test_other_model_rejected(self):
        problem = two_by_two_problem()
        coupling, (u, v) = solve(problem)
        layers = (
            lambda model: chain_potential(model, coupling),
            lambda model: dkp_verify(model, coupling, DualPotential.from_arrays(u, v)),
            lambda model: audit(model, problem, coupling, (u, v)),
            lambda model: ray_decomposition(model, coupling),
        )
        for layer in layers:
            with pytest.raises(ValueError, match=r"Minkowski\(d=1\), not Cylinder\("):
                layer(Cylinder(5.0))


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
        obj = problem_to_json(problem)
        assert sorted(obj) == ["model", "mu", "nu"]
        back = problem_from_json(obj)
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

    def test_unknown_field_named(self):
        obj = problem_to_json(two_by_two_problem())
        obj["optoins"] = {"tolerance": 1e-9}
        with pytest.raises(SchemaError, match="unknown field.*'optoins'"):
            problem_from_json(obj)
