import math

import numpy as np
import pytest

from conftest import two_by_two_problem
from lorot.dual import (
    DualPotential,
    PositiveCycle,
    c_transform,
    chain_potential,
    dkp_verify,
)
from lorot.errors import UnreachableAtom
from lorot.experiments import line_blowup_problem, random_strict_problem
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, solve
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
        nu = DiscreteMeasure.from_atoms([(pt(9, 1), 1.0)])
        with pytest.raises(ValueError):
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

    def test_explicit_root(self):
        problem = two_by_two_problem()
        coupling, _ = solve(problem)
        psi = chain_potential(MK1, coupling, root=(1, 1))
        assert psi[1] == 0.0
        with pytest.raises(ValueError):
            chain_potential(MK1, coupling, root=(0, 1))


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
