import dataclasses
import itertools
import math
import pickle
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_uniform_causal_problem,
    random_weighted_causal_problem,
    two_by_two_problem,
)
from lorot import spacetime
from lorot.diagnostics import audit
from lorot.dual import DualPotential, PositiveCycle, chain_potential, dkp_verify
from lorot.errors import Infeasible, SchemaError, TooLarge
from lorot.experiments import (
    build_profile,
    line_blowup_problem,
    random_strict_problem,
    run_line_counterexample,
    separated_rays_problem,
    subdifferential_field,
)
from lorot.measures import DiscreteMeasure, grid_segment
from lorot.solver import (
    PRICE_TOL,
    Coupling,
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
        big = grid_segment(MK1, pt(0, 0), pt(1, 0), 201)
        small = grid_segment(MK1, pt(0, 5), pt(1, 5), 7)
        for side, problem in (("mu", TransportProblem(MK1, big, small)),
                              ("nu", TransportProblem(MK1, small, big))):
            with pytest.raises(TooLarge, match=f"^oracle handles at most 200 atoms per side; "
                                               f"{side} has 201$"):
                brute_force_oracle(problem)
            # refused before the cost matrix is built
            assert "_cost" not in problem.__dict__

    def test_oracle_infeasible(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 1), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        with pytest.raises(Infeasible):
            brute_force_oracle(TransportProblem(MK1, mu, nu))


def plane_problem(n, seed, weighted=False):
    """n atoms a side in 2-D Minkowski space, uniform over [-0.5, 0.5]^2:
    sources at t in [0, 0.2] and targets at t in [2, 2.2], so every pair is
    causal. Uniform weights, or integer weights 1 to 7 normalised."""
    rng = np.random.default_rng(seed)

    def side(t0):
        rows = np.column_stack((rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(t0, t0 + 0.2, n)))
        w = rng.integers(1, 8, n).astype(float) if weighted else np.ones(n)
        return DiscreteMeasure.from_arrays(rows, w / w.sum())[0]

    return TransportProblem(Minkowski(2), side(0.0), side(2.0))


def cylinder_field_problem(N):
    """The cylinder field as a discrete instance: N cell-centred sources at
    t = 0, each matched to its target y_theta at t = 1 (eps 0.25), all with
    weight 1 / N. The optimum is the sorted order shifted cyclically (by 18
    at N = 100), and the north-west staircase crosses non-causal pairs, so
    the solve starts on artificial arcs."""
    thetas, _, u, skipped = subdifferential_field(build_profile(0.25), 1.0, N)
    assert skipped == 0
    w = np.full(N, 1.0 / N)
    mu, _ = DiscreteMeasure.from_arrays(np.column_stack((thetas, np.zeros(N))), w)
    nu, _ = DiscreteMeasure.from_arrays(np.column_stack(((thetas + u) % 5.0, np.ones(N))), w)
    return TransportProblem(Cylinder(5.0), mu, nu)


#: instance families for the differential test; uniform n = m goes to the
#: oracle's assignment path, the rest to HiGHS
DIFFERENTIAL_FAMILIES = {
    "plane": lambda: [plane_problem(n, seed) for n in (100, 200) for seed in (0, 1)],
    "cylinder": lambda: [cylinder_field_problem(100)],
    "strict": lambda: [random_strict_problem(seed) for seed in range(5)],
    "rays": lambda: [separated_rays_problem(seed) for seed in range(5)],
    "weighted": lambda: [plane_problem(n, 0, weighted=True) for n in (50, 100)],
}


@pytest.fixture(scope="module", params=list(DIFFERENTIAL_FAMILIES))
def differential(request):
    """``(solve's coupling and duals, oracle coupling)`` per instance."""
    return [(solve(p), brute_force_oracle(p)) for p in DIFFERENTIAL_FAMILIES[request.param]()]


class TestDifferential:
    """solve against the independent oracle, at sizes where pivots happen."""

    def test_cost_matches_oracle(self, differential):
        for k, ((coupling, _), oracle) in enumerate(differential):
            scale = 1e-12 * (1.0 + abs(oracle.total_cost))
            assert abs(coupling.total_cost - oracle.total_cost) <= scale, k

    def test_strong_duality_against_oracle(self, differential):
        # solve's duals reach the independent optimum, not just solve's own cost
        for k, ((coupling, duals), oracle) in enumerate(differential):
            scale = 1e-12 * (1.0 + abs(oracle.total_cost))
            assert abs(dual_objective(coupling, duals) - oracle.total_cost) <= scale, k


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
    def test_setup_labels_equal_a_root_down_relabel(self):
        # the set-up labels each atom as its staircase cell brings it in; a
        # relabel from the root over the same tree must give the same bits
        rng = np.random.default_rng(7)
        problems = [line_blowup_problem(60), partially_reachable_problem(),
                    *(random_strict_problem(seed) for seed in range(4)),
                    *(random_weighted_causal_problem(rng) for _ in range(10))]
        artificial = 0
        for problem in problems:
            supplies, demands, _ = _integer_marginals(problem.mu.weights, problem.nu.weights)
            basis = _Basis(problem.cost_matrix(), supplies, demands)
            labels = (basis.depth[:], [p.hex() for p in basis.pot], basis.art[:])
            size = len(basis.parent)
            basis.depth[:], basis.pot[:], basis.art[:] = [0] * size, [0.0] * size, [0] * size
            for x in basis.children[0]:
                basis._relabel(x)
            assert labels == (basis.depth, [p.hex() for p in basis.pot], basis.art)
            artificial += basis.n_artificial
        assert artificial > 0

    def test_pivots_keep_the_tree_strongly_feasible(self):
        # equal weights make ties in the staircase and degenerate pivots
        rng = np.random.default_rng(3)
        pivots = 0
        for _ in range(60):
            problem = random_uniform_causal_problem(rng, d=2)
            C = problem.cost_matrix()
            supplies, demands, _ = _integer_marginals(problem.mu.weights, problem.nu.weights)
            basis = StrictlyCheckedBasis(C, supplies, demands)
            finite = np.isfinite(C)
            _optimize(basis, finite, PRICE_TOL * (1.0 + np.max(np.abs(C[finite]))))
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


class TestIndexArrays:
    def test_stored_read_only_and_equal_to_the_entries(self):
        coupling, _ = solve(separated_rays_problem(0))
        ii, jj, mass = coupling.index_arrays()
        assert all(a is b for a, b in zip(coupling.index_arrays(), (ii, jj, mass)))
        assert list(zip(ii.tolist(), jj.tolist(), mass.tolist())) == list(coupling.entries)
        with pytest.raises(ValueError, match="read-only"):
            ii[0] = 1

    def test_replaced_coupling_follows_its_new_entries(self):
        coupling, _ = solve(two_by_two_problem())
        entries = ((0, 1, 0.5), (1, 0, 0.5))
        moved = dataclasses.replace(coupling, entries=entries)
        ii, jj, mass = moved.index_arrays()
        assert (ii.tolist(), jj.tolist(), mass.tolist()) == ([0, 1], [1, 0], [0.5, 0.5])
        assert coupling.index_arrays()[1].tolist() == [0, 1]
        assert moved != coupling


class TestFromEntries:
    @pytest.mark.parametrize("entries, message", [
        ([], "at least one entry"),
        ([(0, 0, 0.5), (1, 1, 0.0)], r"entry \(1,1\) has nonpositive mass"),
        ([(0, 0, 0.5), (0, 1, 0.5)], r"entry \(0,1\) pairs non-causal atoms"),
        ([(0, 1, 0.5), (-1, 1, 0.5)], r"entry \(-1,1\) lies outside the 2x2 problem"),
        ([(1, 2, 0.5), (0, 0, 0.5)], r"entry \(1,2\) lies outside the 2x2 problem"),
        ([(0, 0, 0.5), (1, 2**64, 0.5)], r"entry \(1,18446744073709551616\) lies outside"),
        ([(1, 1, 0.25), (0, 0, 0.5), (1, 1, 0.25)], r"entry \(1,1\) appears more than once"),
        ([(0, 0, 0.9), (1, 1, 0.9)],
         r"mu-atom 0 carries mass 0\.9 in the coupling, not its weight 0\.5"),
    ], ids=["empty", "nonpositive-mass", "non-causal", "negative-index", "index-past-end",
            "index-past-int64", "duplicate", "marginal-missed"])
    def test_rejects(self, entries, message):
        # nu's atoms sit 0.5 after mu's, so only the diagonal pairs are causal
        mu = DiscreteMeasure.from_atoms([(pt(0.0, 0.0), 0.5), (pt(1.0, 0.0), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(0.0, 0.5), 0.5), (pt(1.0, 0.5), 0.5)])
        with pytest.raises(ValueError, match=message):
            Coupling.from_entries(TransportProblem(MK1, mu, nu), entries)

    def test_rejects_a_missed_column_sum(self):
        # every pair is causal here; both rows are right, nu-atom 0 gets all
        with pytest.raises(ValueError, match=r"^nu-atom 0 carries mass 1\.0 in the coupling, "
                                             r"not its weight 0\.5$"):
            Coupling.from_entries(two_by_two_problem(), [(0, 0, 0.5), (1, 0, 0.5)])

    def test_total_cost_is_the_sequential_sum_of_the_entries(self):
        # the loop the vectorised total replaced: (i, j) order, from the int 0
        def loop_total(coupling):
            C, total = coupling.problem.cost_matrix(), 0
            for i, j, mass in coupling.entries:
                total += mass * C.item(i, j)
            return float(total)

        problems = [line_blowup_problem(40), *(random_strict_problem(seed) for seed in range(5)),
                    *(separated_rays_problem(seed) for seed in range(5))]
        for problem in problems:
            coupling, _ = solve(problem)
            assert repr(coupling.total_cost) == repr(loop_total(coupling))
        # a cost of -0.0 on every entry: the loop's 0 + -0.0 reads 0.0
        problem = two_by_two_problem()
        object.__setattr__(problem, "_cost", np.array([[-0.0, np.inf], [np.inf, -0.0]]))
        coupling = Coupling.from_entries(problem, [(1, 1, 0.5), (0, 0, 0.5)])
        assert repr(coupling.total_cost) == repr(loop_total(coupling)) == "0.0"

    def test_accepts_masses_within_the_tolerance(self):
        coupling = Coupling.from_entries(two_by_two_problem(),
                                         [(0, 0, 0.5 + 4e-10), (1, 1, 0.5 - 4e-10)])
        assert coupling.n_entries == 2


def reference_from_columns(problem, ii, jj, masses, exact_masses=None, exact_denominator=None):
    """The mask-per-check ``Coupling.from_columns`` the one-pass checks replaced."""
    if not len(ii):
        raise ValueError("coupling must have at least one entry")
    C = problem.cost_matrix()
    n, m = C.shape
    order = np.lexsort((jj, ii))
    ii, jj, masses = ii[order], jj[order], masses[order]
    if exact_masses is not None:
        exact_masses = tuple([exact_masses[k] for k in order.tolist()])
    outside = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= m)
    cost = C[np.where(outside, 0, ii), np.where(outside, 0, jj)]
    checks = (outside, ~(masses > 0), ~np.isfinite(cost),
              np.concatenate(([False], (ii[1:] == ii[:-1]) & (jj[1:] == jj[:-1]))))
    bad = np.logical_or.reduce(checks)
    if bad.any():
        k = int(np.argmax(bad))
        i, j, mass = ii.item(k), jj.item(k), masses.item(k)
        raise ValueError(next(message for check, message in zip(checks, (
            f"entry ({i},{j}) lies outside the {n}x{m} problem",
            f"entry ({i},{j}) has nonpositive mass {mass}",
            f"entry ({i},{j}) pairs non-causal atoms",
            f"entry ({i},{j}) appears more than once",
        )) if check[k]))
    total = float(np.add.accumulate(masses * cost)[-1]) + 0.0
    entries = tuple(zip(ii.tolist(), jj.tolist(), masses.tolist()))
    coupling = Coupling(problem, entries, total, exact_masses, exact_denominator,
                        columns=(ii, jj, masses))
    for side, index, measure in (("mu", ii, problem.mu), ("nu", jj, problem.nu)):
        w = measure.weights_array()
        sums = np.bincount(index, weights=masses, minlength=len(w))
        off = np.flatnonzero(np.abs(sums - w) > 1e-9 * (1.0 + w))
        if len(off):
            k = off[0]
            raise ValueError(
                f"{side}-atom {k} carries mass {float(sums[k])!r} in the coupling, "
                f"not its weight {float(w[k])!r}"
            )
    return coupling


def overlapping_problem(rng):
    """Random 1-D instance whose time ranges overlap, so some pairs are not causal."""
    n, m = (int(k) for k in rng.integers(2, 7, size=2))
    sides = [DiscreteMeasure.from_arrays(
        np.column_stack([rng.uniform(-1, 1, k), rng.uniform(lo, lo + 1.5, k)]),
        np.full(k, 1.0 / k))[0] for k, lo in ((n, 0.0), (m, 0.5))]
    return TransportProblem(MK1, *sides)


def column_faults(rng, problem, coupling):
    """The coupling's columns, shuffled, with zero to two faults mixed in:
    an index out of range, a nonpositive or NaN mass, a non-causal pair, a
    repeated pair, or a missed row or column sum."""
    ii, jj, masses = (np.array(c) for c in coupling.index_arrays())
    exact = list(coupling.exact_masses)
    C = problem.cost_matrix()
    n, m = C.shape
    for fault in rng.choice(7, size=int(rng.integers(0, 3))):
        k = int(rng.integers(len(ii)))
        if fault == 0:
            if rng.random() < 0.5:
                ii[k] = rng.choice([-1, n, n + 3, -2**62])
            else:
                jj[k] = rng.choice([-1, m, 2**62])
        elif fault == 1:
            masses[k] = rng.choice([0.0, -0.0, -masses[k], np.nan])
        elif fault == 2:
            blocked = np.argwhere(~np.isfinite(C))
            if len(blocked):
                ii[k], jj[k] = blocked[rng.integers(len(blocked))]
        elif fault == 3:
            # one entry split in two halves of the same pair: the sums still hold
            masses[k] /= 2
            ii, jj, masses = np.append(ii, ii[k]), np.append(jj, jj[k]), np.append(masses, masses[k])
            exact.append(exact[k])
        elif fault == 4:
            masses[k] *= 1.5
        elif fault == 5:
            jj[k] = rng.integers(m)
        else:
            ii[k] = rng.integers(n)
    order = rng.permutation(len(ii))
    return ii[order], jj[order], masses[order], [exact[q] for q in order]


FAULT_MESSAGES = {"outside": "lies outside", "nonpositive": "nonpositive mass",
                  "non-causal": "non-causal", "repeated": "more than once",
                  "mu-sum": "mu-atom", "nu-sum": "nu-atom"}


class TestFromColumnsAgainstReference:
    def test_fuzz_matches_reference(self):
        # entries, total-cost bits and exact masses, or the error message,
        # on shuffled columns carrying up to two faults
        rng = np.random.default_rng(2121)
        problems = [line_blowup_problem(6), *(random_strict_problem(s, max_side=12)
                                               for s in range(3))]
        problems += [random_weighted_causal_problem(rng) for _ in range(6)]
        problems += [overlapping_problem(rng) for _ in range(12)]
        outcomes = set()
        for problem in problems:
            try:
                coupling, _ = solve(problem)
            except Infeasible:
                continue
            for _ in range(80):
                ii, jj, masses, exact = column_faults(rng, problem, coupling)
                results = []
                for build in (Coupling.from_columns, reference_from_columns):
                    try:
                        got = build(problem, ii, jj, masses, exact, coupling.exact_denominator)
                    except ValueError as exc:
                        results.append(("ValueError", str(exc)))
                    else:
                        results.append((got.entries, repr(got.total_cost), got.exact_masses,
                                        got.exact_denominator,
                                        [a.tobytes() for a in got.index_arrays()]))
                assert results[0] == results[1]
                kind, message = results[0][:2]
                if kind == "ValueError":
                    outcomes.add(next(name for name, text in FAULT_MESSAGES.items()
                                      if text in message))
                else:
                    outcomes.add("valid")
        # every fault is met, and so is a valid coupling
        assert outcomes == set(FAULT_MESSAGES) | {"valid"}


def pivoting_problem(n, seed):
    """2-D instance with uniform weights and every pair causal, which pivots."""
    rng = np.random.default_rng(seed)
    model = Minkowski(2)
    xs = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(0.0, 0.2, n)])
    ys = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(2.0, 2.2, n)])
    w = np.full(n, 1.0 / n)
    return TransportProblem(model, DiscreteMeasure.from_arrays(xs, w)[0],
                            DiscreteMeasure.from_arrays(ys, w)[0])


def partially_reachable_problem():
    """Hall's condition fails, so the stranded-mass pass runs."""
    mu = DiscreteMeasure.from_atoms([(pt(0, -100), 0.25), (pt(-5, 0), 0.25), (pt(-6, 0), 0.5)])
    nu = DiscreteMeasure.from_atoms([(pt(-5, 5), 0.25), (pt(20, 1), 0.25), (pt(30, 1), 0.5)])
    return TransportProblem(MK1, mu, nu)


@pytest.fixture
def pivots(monkeypatch):
    """The entering arc of every pivot made while the test runs."""
    made = []
    pivot = _Basis.pivot

    def counted(basis, i, j):
        made.append((i, j))
        pivot(basis, i, j)

    monkeypatch.setattr(_Basis, "pivot", counted)
    return made


class TestRowBlocks:
    PROBLEMS = {
        "line-50": lambda: line_blowup_problem(50),
        "strict-3": lambda: random_strict_problem(3),
        "pivoting-2d": lambda: pivoting_problem(30, 1),
        "infeasible": partially_reachable_problem,
    }

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_one_row_blocks_give_the_same_bits(self, name, pivots, monkeypatch):
        def run():
            # a fresh problem, so its cost matrix is built under the block size
            try:
                coupling, (u, v) = solve(self.PROBLEMS[name]())
            except Infeasible as exc:
                return str(exc)
            return (coupling.entries, coupling.exact_masses, repr(coupling.total_cost),
                    u.tobytes(), v.tobytes())

        default, default_pivots = run(), pivots[:]
        monkeypatch.setattr(spacetime, "BLOCK_PAIRS", 1)
        pivots.clear()
        assert run() == default
        assert pivots == default_pivots
        if name == "pivoting-2d":
            assert len(pivots) > 10
        if name == "infeasible":
            assert default.startswith("mu-atom 0 cannot place mass 1/2: ")

    def test_solve_holds_less_than_one_more_dense_array(self):
        problem = line_blowup_problem(400)
        C = problem.cost_matrix()
        tracemalloc.start()
        try:
            solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < C.nbytes, f"solve peaked at {peak} bytes beside a {C.nbytes}-byte matrix"


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            problem = random_weighted_causal_problem(rng)
            a, da = solve(problem)
            # an equal problem, so the held optimum is not handed back
            b, db = solve(dataclasses.replace(problem))
            assert a.entries == b.entries
            assert repr(a.total_cost) == repr(b.total_cost)
            assert np.array_equal(da[0], db[0]) and np.array_equal(da[1], db[1])


class TestHeldOptimum:
    """While a caller holds the coupling ``solve`` returned, a later call on
    the same problem object hands back that optimum; once the coupling is
    dropped, the next call solves again."""

    def test_second_solve_returns_the_same_objects(self, pivots):
        problem = pivoting_problem(30, 1)
        coupling, (u, v) = solve(problem)
        made = len(pivots)
        again, (u2, v2) = solve(problem)
        assert again is coupling and u2 is u and v2 is v
        assert len(pivots) == made > 10

    def test_duals_are_read_only_on_a_miss_and_on_a_hit(self):
        problem = separated_rays_problem(0)
        miss = solve(problem)
        hit = solve(problem)
        assert hit[0] is miss[0]
        for _, duals in (miss, hit):
            for dual in duals:
                with pytest.raises(ValueError, match="read-only"):
                    dual[0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    dual += 1.0

    def test_a_dropped_optimum_is_freed_and_solved_again(self, pivots):
        problem = pivoting_problem(30, 1)
        coupling, (u, v) = solve(problem)
        first = (coupling.entries, coupling.exact_masses, repr(coupling.total_cost),
                 u.tobytes(), v.tobytes())
        made = pivots[:]
        held = weakref.ref(coupling)
        del coupling, u, v
        # no gc.collect(): the problem holds the coupling weakly, so no cycle
        # keeps it alive
        assert held() is None
        pivots.clear()
        coupling, (u, v) = solve(problem)
        assert pivots == made
        assert (coupling.entries, coupling.exact_masses, repr(coupling.total_cost),
                u.tobytes(), v.tobytes()) == first

    def test_infeasible_raises_on_every_call(self):
        problem = partially_reachable_problem()
        for _ in range(3):
            with pytest.raises(Infeasible, match="mu-atom 0 cannot place mass 1/2: "):
                solve(problem)
        assert "_optimum" not in problem.__dict__

    def test_a_replaced_coupling_is_never_returned(self):
        problem = separated_rays_problem(0)
        coupling, _ = solve(problem)
        copy = dataclasses.replace(coupling)
        assert solve(problem)[0] is coupling
        del coupling
        again, _ = solve(problem)
        assert again is not copy and again == copy

    def test_a_solved_problem_pickles_without_its_optimum(self):
        problem = separated_rays_problem(0)
        coupling, _ = solve(problem)
        back = pickle.loads(pickle.dumps(problem))
        assert back == problem and "_optimum" not in back.__dict__
        assert solve(back)[0] == coupling

    def test_a_pickle_round_trip_keeps_every_array_read_only(self):
        problem = separated_rays_problem(0)
        coupling, _ = solve(problem)
        ray_decomposition(problem.model, coupling)

        def measure_arrays(m):
            return [m.coords_array(), m.weights_array()]

        def problem_arrays(p):
            return [p.cost_matrix(), *measure_arrays(p.mu), *measure_arrays(p.nu)]

        for original, arrays_of in ((problem, problem_arrays),
                                    (coupling, lambda c: [*c.index_arrays(), *problem_arrays(c.problem)]),
                                    (problem.mu, measure_arrays)):
            back = pickle.loads(pickle.dumps(original))
            assert back == original
            assert not {"_cost", "_optimum", "_rays"} & set(back.__dict__)
            for array in arrays_of(back):
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0.0


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
