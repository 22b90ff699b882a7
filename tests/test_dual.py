import math
import tracemalloc

import numpy as np
import pytest

from conftest import two_by_two_problem, value_copy
from lorot import spacetime
from lorot.dual import (
    CYCLE_TOL,
    DualPotential,
    PositiveCycle,
    _longest_paths,
    c_transform,
    chain_potential,
    dkp_verify,
)
from lorot.errors import UnreachableAtom
from lorot.experiments import (
    line_blowup_problem,
    random_strict_problem,
    separated_rays_problem,
    strictified_line_problem,
)
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, held_cost_matrix, solve
from lorot.spacetime import Minkowski

MK1 = Minkowski(1)


def pt(*coords):
    return MK1.make_point(coords[:-1], coords[-1])


def chain_value_oracle(model, coupling, max_len=4):
    """Exhaustive enumeration of chain values, independent of the solver path.

    Walks every chain of support pairs up to max_len steps from the root and
    records the best value arriving at each mu-atom.
    """
    C = model.cost_matrix(coupling.mu.coords_array(), coupling.nu.coords_array())
    pairs = [(i, j) for i, j, _ in coupling.entries]
    root = pairs[0]
    n = coupling.mu.n_atoms
    best = [-math.inf] * n

    def walk(pair, value, depth):
        i, j = pair
        for k in range(n):
            if k != i and np.isfinite(C[k, j]):
                arrived = value + C[i, j] - C[k, j]
                if arrived > best[k]:
                    best[k] = arrived
                if depth < max_len:
                    for nxt in pairs:
                        if nxt[0] == k:
                            walk(nxt, arrived, depth + 1)

    best[root[0]] = 0.0
    walk(root, 0.0, 1)
    return best


class TestCTransform:
    def test_single_point_infimum(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 2), 1.0)])
        assert c_transform(MK1, mu, [0.0], nu) == [-2.0]

    def test_unreachable_sentinel(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        nu = DiscreteMeasure.from_atoms([(pt(9, 1), 1.0)])
        assert c_transform(MK1, mu, [0.0], nu) == [None]

    def test_two_by_two_values(self):
        problem = two_by_two_problem()
        psi = [0.0, -2.0 + math.sqrt(3)]
        phi = c_transform(MK1, problem.mu, psi, problem.nu)
        # hand infimum: phi_0 = min(0 - 2, psi_1 - sqrt(3)), phi_1 likewise
        assert phi[0] == pytest.approx(-2.0, abs=1e-15)
        assert phi[1] == pytest.approx(math.sqrt(3) - 4.0, abs=1e-15)

    def test_sentinel_not_allowed_in_potential(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 1.0)])
        # outside the mu-atom's cone every cost, and so the infimum, is +inf;
        # the error names the first such nu-atom
        for atoms, first in (([(pt(9, 1), 1.0)], 0),
                             ([(pt(0, 2), 0.5), (pt(5, 1), 0.25), (pt(9, 1), 0.25)], 1)):
            nu = DiscreteMeasure.from_atoms(atoms)
            with pytest.raises(ValueError, match=rf"^nu-atom {first} has no causal source; "
                                                 r"phi is \+inf there$"):
                DualPotential.from_psi(MK1, mu, [0.0], nu)


class TestChainPotential:
    def test_two_by_two_value(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        psi = chain_potential(MK1, coupling)
        oracle = chain_value_oracle(MK1, coupling)
        np.testing.assert_allclose(psi, oracle, rtol=0, atol=1e-12)
        assert psi[1] == pytest.approx(-2.0 + math.sqrt(3), abs=1e-12)
        assert psi[0] == 0.0

    def test_identity_coupling_zero(self):
        # the lexicographic root of an up-left null line is its causal top,
        # so every atom is reachable and all chains have zero value
        pts = [pt(-float(i), float(i)) for i in range(4)]
        mu = DiscreteMeasure.from_atoms([(p, 0.25) for p in pts])
        coupling = Coupling.from_entries(
            TransportProblem(MK1, mu, mu), [(k, k, 0.25) for k in range(4)]
        )
        psi = chain_potential(MK1, coupling)
        assert np.array_equal(psi, np.zeros(4))

    def test_line_spread_matches_enumeration(self):
        for n in (3, 5, 8, 12):
            problem = line_blowup_problem(n)
            coupling, _ = solve(problem)
            psi = chain_potential(MK1, coupling)
            oracle = chain_value_oracle(MK1, coupling, max_len=n + 1)
            np.testing.assert_allclose(psi, oracle, rtol=0, atol=1e-12)
            spread = psi.max() - psi.min()
            assert spread == pytest.approx(math.sqrt(2 * n - 3), abs=1e-9)

    def test_positive_cycle_on_crossed_coupling(self):
        problem = two_by_two_problem()
        crossed = Coupling.from_entries(
            problem, [(0, 1, 0.5), (1, 0, 0.5)]
        )
        out = chain_potential(MK1, crossed)
        assert isinstance(out, PositiveCycle)
        # the two-cycle gain is (c01 + c10) - (c00 + c11) = 4 - 2*sqrt(3)
        assert out.gain == pytest.approx(4 - 2 * math.sqrt(3), abs=1e-12)
        assert set(out.atoms) == {0, 1}

    def test_positive_cycle_away_from_root(self):
        # the root pair (0, 0) is vertical; atoms 1 and 2 swap their targets
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(1, 0), 0.25), (pt(2, 0), 0.25)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 4), 0.5), (pt(1, 4), 0.25), (pt(2, 4), 0.25)])
        crossed = Coupling.from_entries(
            TransportProblem(MK1, mu, nu), [(0, 0, 0.5), (1, 2, 0.25), (2, 1, 0.25)]
        )
        out = chain_potential(MK1, crossed)
        assert isinstance(out, PositiveCycle)
        assert set(out.atoms) == {1, 2}
        # (c12 + c21) - (c11 + c22) = 8 - 2*sqrt(15)
        assert out.gain == pytest.approx(8 - 2 * math.sqrt(15), abs=1e-12)

    def test_cycle_tolerance_cut(self):
        # crossed 2x2 coupling of width delta: its two-cycle gains
        # 2 * (2 - sqrt(4 - delta**2)), about delta**2 / 2
        def crossed(delta):
            mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(delta, 0), 0.5)])
            nu = DiscreteMeasure.from_atoms([(pt(0, 2), 0.5), (pt(delta, 2), 0.5)])
            return Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 1, 0.5), (1, 0, 0.5)])

        psi = chain_potential(MK1, crossed(1e-6))  # gain 5e-13: rounding noise
        assert isinstance(psi, np.ndarray)
        assert psi[0] == 0.0
        out = chain_potential(MK1, crossed(1e-4))  # gain 5e-9: a real cycle
        assert isinstance(out, PositiveCycle)
        assert set(out.atoms) == {0, 1}
        assert out.gain == pytest.approx(5e-9, rel=1e-3)

    def test_unreachable_atom(self):
        mu = DiscreteMeasure.from_atoms([(pt(0, 0), 0.5), (pt(100, 0), 0.5)])
        nu = DiscreteMeasure.from_atoms([(pt(0, 1), 0.5), (pt(100, 1), 0.5)])
        coupling = Coupling.from_entries(TransportProblem(MK1, mu, nu), [(0, 0, 0.5), (1, 1, 0.5)])
        with pytest.raises(UnreachableAtom) as err:
            chain_potential(MK1, coupling)
        assert err.value.atom_index == 1

    def test_entry_order_invariance(self):
        problem = line_blowup_problem(6)
        coupling, _ = solve(problem)
        shuffled = Coupling.from_entries(
            problem, list(reversed(coupling.entries))
        )
        np.testing.assert_array_equal(
            chain_potential(MK1, coupling), chain_potential(MK1, shuffled)
        )


def reference_atom_arc_matrix(C, coupling):
    """The arc matrix raised one support entry at a time: the per-entry loop
    that ``_atom_arc_matrix`` replaced, kept as its oracle."""
    n = coupling.mu.n_atoms
    W = np.full((n, n), -np.inf)
    for i, j, _ in coupling.entries:
        W[i] = np.maximum(W[i], C[i, j] - C[:, j])
    np.fill_diagonal(W, -np.inf)
    return W


def reference_longest_paths(W, root):
    """FIFO longest paths that relax each popped atom by gathers on the atoms
    whose label rose by more than CYCLE_TOL: the routine ``_longest_paths``
    replaced, on the same noise rule, kept as its oracle."""
    n = W.shape[0]
    dist = np.full(n, -np.inf)
    dist[root] = 0.0
    pred = np.full(n, -1)
    queued = np.zeros(n, dtype=bool)
    queued[root] = True
    batch = [root]
    for _ in range(n):
        following = []
        for u in batch:
            queued[u] = False
            cand = dist[u] + W[u]
            rose = np.flatnonzero(cand > dist + CYCLE_TOL)
            dist[rose] = cand[rose]
            pred[rose] = u
            fresh = rose[~queued[rose]]
            queued[fresh] = True
            following.extend(fresh.tolist())
        batch = following
        if not batch:
            return dist, None
    walk = [batch[0]]
    while walk.count(walk[-1]) == 1:
        walk.append(int(pred[walk[-1]]))
    atoms = walk[walk.index(walk[-1]):-1][::-1]
    gain = float(sum(W[a, b] for a, b in zip(atoms, atoms[1:] + atoms[:1])))
    return None, PositiveCycle(tuple(atoms), gain)


def permuted_coupling(n, seed):
    """A random permutation coupling of a dense 2-D instance (every pair
    causal): rarely optimal, so its chain graph mostly has a positive cycle."""
    rng = np.random.default_rng(seed)
    model = Minkowski(2)
    xs = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(0.0, 0.2, n)])
    ys = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(2.0, 2.2, n)])
    w = np.full(n, 1.0 / n)
    problem = TransportProblem(model, DiscreteMeasure.from_arrays(xs, w)[0],
                               DiscreteMeasure.from_arrays(ys, w)[0])
    sigma = rng.permutation(n).tolist()
    return Coupling.from_entries(problem, [(i, sigma[i], 1.0 / n) for i in range(n)])


@pytest.fixture(scope="module")
def solved_families():
    """``solve``'s coupling and duals on line n = 25 ... 400, strict seeds 0-19
    and rays seeds 0-49."""
    problems = [line_blowup_problem(n) for n in range(25, 401, 25)]
    problems += [random_strict_problem(seed) for seed in range(20)]
    problems += [separated_rays_problem(seed) for seed in range(50)]
    return [solve(problem) for problem in problems]


def two_island_coupling():
    """The optimal coupling of two causally separate islands of 3 + 3 atoms,
    at x = 0 ... 1 and x = 10 ... 11: a chain never crosses between them."""
    xs = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0]
    mu = DiscreteMeasure.from_atoms([(pt(x, 0), 1 / 6) for x in xs])
    nu = DiscreteMeasure.from_atoms([(pt(x + 0.25, 2), 1 / 6) for x in xs])
    return solve(TransportProblem(MK1, mu, nu))[0]


@pytest.fixture(scope="module")
def kernel_couplings(solved_families):
    """Solved line, strict and rays couplings, crossed ones with a cycle, a
    two-island coupling, and line n = 800 and 1600. The permutations of 4
    atoms (seeds 2 and 20) report another cycle if the walk starts elsewhere;
    seeds 13 and 41 give cycles of 3 and 4 atoms; the 100-atom permutation
    runs the cycle re-run on a graph larger than the others'."""
    couplings = [coupling for coupling, _ in solved_families]
    couplings.append(Coupling.from_entries(two_by_two_problem(), [(0, 1, 0.5), (1, 0, 0.5)]))
    couplings += [permuted_coupling(n, seed) for n, seed in
                  ((3, 3), (10, 10), (40, 40), (4, 2), (4, 20), (10, 13), (40, 41), (100, 100))]
    couplings.append(two_island_coupling())
    couplings += [solve(line_blowup_problem(n))[0] for n in (800, 1600)]
    return couplings


class TestKernelsAgainstReference:
    def test_longest_paths_same_bits_as_the_reference_kernels(self, kernel_couplings):
        cycles = unreached = 0
        for coupling in kernel_couplings:
            C = coupling.cost_matrix(coupling.problem.model)
            ii, jj, _ = coupling.index_arrays()
            W = reference_atom_arc_matrix(C, coupling)
            for root in {coupling.entries[0][0], coupling.entries[-1][0]}:
                (dist, cycle), (want, want_cycle) = (
                    _longest_paths(C, ii, jj, root), reference_longest_paths(W, root))
                if want_cycle is None:
                    assert cycle is None and dist.tobytes() == want.tobytes()
                    unreached += int(np.isneginf(dist).sum())
                else:
                    cycles += 1
                    assert dist is None
                    assert cycle.atoms == want_cycle.atoms
                    assert cycle.gain.hex() == want_cycle.gain.hex()
                    assert cycle.gain > CYCLE_TOL
        assert cycles >= 4
        assert unreached >= 6  # the other island, from either root


class CountedReads(np.ndarray):
    """A view of a cost matrix that counts its ``__getitem__`` calls."""

    reads = 0

    def __getitem__(self, key):
        CountedReads.reads += 1
        return super().__getitem__(key)


def wide_rays_problem():
    """A ``separated_rays_problem`` with more atoms: 4 rays of 32 targets
    each, and 4 sources per target (512 sources)."""
    rng = np.random.default_rng(0)
    mu_rows, nu_rows = [], []
    for r in range(4):
        mu_rows += [(r * 0.25, t) for t in np.sort(rng.uniform(0.0, 0.2, 128)).tolist()]
        nu_rows += [(r * 0.25, t) for t in np.sort(rng.uniform(1.0, 1.2, 32)).tolist()]
    mu = DiscreteMeasure.from_arrays(mu_rows, np.full(len(mu_rows), 1.0 / len(mu_rows)))[0]
    nu = DiscreteMeasure.from_arrays(nu_rows, np.full(len(nu_rows), 1.0 / len(nu_rows)))[0]
    return TransportProblem(MK1, mu, nu)


class TestLongestPathsWork:
    def test_each_atom_is_popped_about_once_on_multi_ray_couplings(self):
        """The kernel reads every entry's own cost in one read, and popping an
        atom reads C once per support entry of it (its column), so 1 + 2
        reads per entry allow every atom two pops. Taking rounding-noise
        rises kept tied rays in the queue for all n passes: up to 46 reads
        per entry on rays seeds 0-49, 956 on the 512-source instance."""
        problems = [separated_rays_problem(seed) for seed in range(50)]
        problems.append(wide_rays_problem())
        assert problems[-1].mu.n_atoms == 512
        for problem in problems:
            coupling, _ = solve(problem)
            C = coupling.cost_matrix(MK1)
            ii, jj, _ = coupling.index_arrays()
            CountedReads.reads = 0
            dist, cycle = _longest_paths(C.view(CountedReads), ii, jj, coupling.entries[0][0])
            assert cycle is None and np.isfinite(dist).all()
            assert CountedReads.reads <= 1 + 2 * len(ii), (problem.mu.n_atoms, CountedReads.reads)


class TestTwoDuals:
    def test_chain_potential_is_the_least_rooted_dual(self, solved_families):
        """psi <= u - u[root]: the chain potential is the least potential, zero
        at the root, that the support's inequalities allow, and the solver's
        duals satisfy the same inequalities."""
        for coupling, (u, _) in solved_families:
            psi = chain_potential(coupling.problem.model, coupling)
            assert not isinstance(psi, PositiveCycle)
            root = coupling.entries[0][0]
            excess = np.max(psi - (u - u[root]))
            assert excess <= 1e-12 * (1.0 + np.max(np.abs(u))), (coupling.mu.n_atoms, excess)

    @pytest.mark.parametrize("family", ["line", "strictified", "strict", "rays"])
    def test_solver_dual_is_the_chain_potential(self, family):
        """u - u[root] = psi to n * CYCLE_TOL: the network simplex and the
        longest-path kernel reach the same potential on these families (the
        largest gaps are about 9e-14 on the line, 0 on strict and 3e-16 on
        the strictified line and the rays)."""
        problems = {
            "line": lambda: [line_blowup_problem(n) for n in (25, 100, 400)],
            "strictified": lambda: [strictified_line_problem(n) for n in (25, 100, 400)],
            "strict": lambda: [random_strict_problem(seed) for seed in range(20)],
            "rays": lambda: [separated_rays_problem(seed) for seed in range(50)],
        }[family]()
        for problem in problems:
            coupling, (u, _) = solve(problem)
            psi = chain_potential(problem.model, coupling)
            root = coupling.entries[0][0]
            gap = np.max(np.abs(u - u[root] - psi))
            assert gap <= len(u) * CYCLE_TOL, (problem.mu.n_atoms, gap)


class TestPotentialLengths:
    """A potential of the wrong length is refused, naming the side and both
    lengths, not read short or broadcast."""

    def test_c_transforms_refuse_a_short_psi(self):
        # over the live problem's held matrix and streamed over copies
        problem = random_strict_problem(0)
        C = problem.cost_matrix()
        assert C.shape == (70, 54) and held_cost_matrix(MK1, problem.mu, problem.nu) is C
        for mu, nu in ((problem.mu, problem.nu), (value_copy(problem.mu), value_copy(problem.nu))):
            with pytest.raises(ValueError, match="psi has 1 values for 70 mu-atoms"):
                c_transform(MK1, mu, [0.0], nu)
            with pytest.raises(ValueError, match="psi has 71 values for 70 mu-atoms"):
                c_transform(MK1, mu, np.zeros(71), nu)

    def test_dkp_verify_refuses_a_short_potential(self):
        problem = random_strict_problem(0)
        coupling, (u, v) = solve(problem)
        with pytest.raises(ValueError, match="psi has 69 values for 70 mu-atoms"):
            dkp_verify(MK1, coupling, DualPotential.from_arrays(u[:-1], v))
        with pytest.raises(ValueError, match="phi has 53 values for 54 nu-atoms"):
            dkp_verify(MK1, coupling, DualPotential.from_arrays(u, v[1:]))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8, -math.inf])
    def test_dkp_verify_refuses_a_tolerance_not_positive_and_finite(self, tol):
        # an infinite tolerance would certify any potential
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        far_off = DualPotential.from_arrays(np.zeros(2), np.full(2, 1e300))
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            dkp_verify(MK1, coupling, far_off, tol=tol)
        assert not dkp_verify(MK1, coupling, far_off).feasible


class TestPotentialNan:
    """A NaN or an infinity in a potential is refused, naming the side, the
    first such atom and its value: either would drop out of every infimum
    and maximum, an infinity with an ``inf - inf`` warning beside it."""

    def test_c_transforms_refuse_a_nan_psi(self):
        # over the live problem's held matrix and streamed over copies
        problem = random_strict_problem(0)
        C = problem.cost_matrix()
        assert held_cost_matrix(MK1, problem.mu, problem.nu) is C
        for bad in (np.nan, np.inf, -np.inf):
            psi = np.zeros(70)
            psi[[3, 5]] = bad
            for mu, nu in ((problem.mu, problem.nu), (value_copy(problem.mu), value_copy(problem.nu))):
                with pytest.raises(ValueError, match=rf"psi\[3\] is {bad}$"):
                    c_transform(MK1, mu, psi, nu)

    def test_dkp_verify_refuses_a_nan_potential(self):
        problem = random_strict_problem(0)
        coupling, _ = solve(problem)
        psi = chain_potential(MK1, coupling)
        potential = DualPotential.from_psi(MK1, problem.mu, psi, problem.nu)
        assert dkp_verify(MK1, coupling, potential).feasible
        for bad in (np.nan, np.inf, -np.inf):
            psi[3] = bad
            with pytest.raises(ValueError, match=rf"psi\[3\] is {bad}$"):
                dkp_verify(MK1, coupling, DualPotential.from_arrays(psi, potential.phi))
            phi = np.array(potential.phi)
            phi[2] = bad
            with pytest.raises(ValueError, match=rf"phi\[2\] is {bad}$"):
                dkp_verify(MK1, coupling, DualPotential.from_arrays(potential.psi, phi))


def traced_peak(run):
    """Peak bytes traced while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockBuffers:
    """Each dense pass on line-400 holds a few block buffers (BLOCK_PAIRS
    float64 values each) allocated once, not a handful more per block."""

    BLOCK = spacetime.BLOCK_PAIRS * 8

    @pytest.fixture(scope="class")
    def line400(self):
        problem = line_blowup_problem(400)
        coupling, _ = solve(problem)
        psi = chain_potential(MK1, coupling)
        return problem, coupling, psi, DualPotential.from_psi(MK1, problem.mu, psi, problem.nu)

    def test_cost_matrix_holds_its_output_and_three_blocks(self, line400):
        problem = line400[0]
        xs, ys = problem.mu.coords_array(), problem.nu.coords_array()
        peak = traced_peak(lambda: MK1.cost_matrix(xs, ys))
        assert peak < problem.cost_matrix().nbytes + 3 * self.BLOCK

    def test_c_transform_holds_four_blocks(self, line400):
        # value-equal copies of the measures, so the costs are streamed
        problem, _, psi, _ = line400
        mu, nu = value_copy(problem.mu), value_copy(problem.nu)
        assert held_cost_matrix(MK1, mu, nu) is None
        assert traced_peak(lambda: c_transform(MK1, mu, psi, nu)) < 4 * self.BLOCK

    def test_held_c_transform_holds_under_two_blocks(self, line400):
        # the live problem's own measures, so the rows of its matrix are read
        problem, _, psi, _ = line400
        assert held_cost_matrix(MK1, problem.mu, problem.nu) is problem.cost_matrix()
        assert traced_peak(lambda: c_transform(MK1, problem.mu, psi, problem.nu)) < 2 * self.BLOCK

    def test_dkp_verify_holds_two_blocks(self, line400):
        _, coupling, _, potential = line400
        assert traced_peak(lambda: dkp_verify(MK1, coupling, potential)) < 2 * self.BLOCK


class TestChainPotentialMemory:
    """The chain potential holds O(n) memory beyond the cost matrix: each
    atom's row of gains is built into one reused buffer when it is popped."""

    @pytest.mark.parametrize("n", [400, 1600])
    def test_chain_potential_holds_64_floats_per_atom(self, n):
        coupling, _ = solve(line_blowup_problem(n))
        coupling.cost_matrix(MK1)  # built before tracing
        assert traced_peak(lambda: chain_potential(MK1, coupling)) < 64 * n * 8


class TestDkpVerify:
    def test_chain_potential_is_tight(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        psi = chain_potential(MK1, coupling)
        pot = DualPotential.from_psi(MK1, problem.mu, psi, problem.nu)
        report = dkp_verify(MK1, coupling, pot, tol=1e-10)
        assert report.feasible and report.support_tight
        assert report.max_violation <= 1e-12

    def test_perturbed_psi_not_tight(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        psi = chain_potential(MK1, coupling)
        pot = DualPotential.from_psi(MK1, problem.mu, psi, problem.nu)
        bumped = DualPotential.from_arrays(
            np.asarray(psi) + np.array([0.0, 1.0]), pot.phi
        )
        report = dkp_verify(MK1, coupling, bumped, tol=1e-8)
        assert report.feasible  # raising psi only loosens feasibility
        assert not report.support_tight
        assert report.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_lp_duals_pass(self):
        problem = two_by_two_problem()
        coupling, (u, v) = solve(problem)
        report = dkp_verify(MK1, coupling, DualPotential.from_arrays(u, v), tol=1e-8)
        assert report.feasible and report.support_tight


class TestRowBlocks:
    def test_one_row_blocks_give_the_same_bits(self, monkeypatch):
        problem = line_blowup_problem(60)
        coupling, (u, v) = solve(problem)
        psi = chain_potential(MK1, coupling)
        # one more nu-atom that no mu-atom reaches, for the None sentinel
        coords = np.vstack([problem.nu.coords_array(), [[9.0, 1.0]]])
        nu = DiscreteMeasure.from_arrays(coords, np.full(len(coords), 1.0 / len(coords)))[0]

        assert held_cost_matrix(MK1, problem.mu, nu) is None

        def run():  # phi streams its costs; the transform of u reads the held matrix
            phi = c_transform(MK1, problem.mu, psi, nu)
            potential = DualPotential.from_psi(MK1, problem.mu, psi, problem.nu)
            return (phi, c_transform(MK1, problem.mu, u, problem.nu),
                    dkp_verify(MK1, coupling, potential),
                    dkp_verify(MK1, coupling, DualPotential.from_arrays(u, v)))

        default = run()
        assert default[0][-1] is None and None not in default[0][:-1]
        monkeypatch.setattr(spacetime, "BLOCK_PAIRS", 1)
        assert repr(run()) == repr(default)


class TestDoubleTransform:
    def test_chain_potential_stable(self):
        for seed in range(6):
            problem = random_strict_problem(seed, max_side=40)
            coupling, _ = solve(problem)
            psi = chain_potential(MK1, coupling)
            assert not isinstance(psi, PositiveCycle)
            phi = c_transform(MK1, problem.mu, psi, problem.nu)
            assert all(p is not None for p in phi)
            # the reverse transform: psi(x) = max over finite arcs of phi(y) - cost(x, y)
            C = problem.cost_matrix()
            vals = np.asarray(phi)[None, :] - C
            back = np.max(vals, axis=1, initial=-np.inf, where=np.isfinite(C))
            np.testing.assert_allclose(back, psi, rtol=0, atol=1e-9)
