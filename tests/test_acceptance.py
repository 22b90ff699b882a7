"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS line with the measured quantities after its
assertions hold, so a verbose run doubles as a criterion-by-criterion
report. Tolerances are pinned in the assertions themselves.
"""

import math
import time
import numpy as np
import pytest

from lorot.diagnostics import audit, lightlike_fraction
from lorot.dual import DualPotential, PositiveCycle, chain_potential, dkp_verify
from lorot.experiments import (
    SHIPPED_FAMILIES,
    build_profile,
    line_blowup_problem,
    random_strict_problem,
    run_cylinder_example,
    separated_rays_problem,
)
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, brute_force_oracle, solve
from lorot.spacetime import Minkowski
from lorot.transport import MongeMap, contraction_check, monge_map, restrict

LINE_SIZES = (25, 50, 100, 200)


@pytest.fixture(scope="module")
def line_family():
    """Solved line instances for the refinement sizes, with wall time."""
    t0 = time.monotonic()
    solutions = {}
    for n in LINE_SIZES:
        problem = line_blowup_problem(n)
        coupling, duals = solve(problem)
        solutions[n] = (problem, coupling, duals)
    return solutions, time.monotonic() - t0


@pytest.fixture(scope="module")
def strict_instances():
    """20 randomized strictly timelike instances with connected grid supports."""
    out = []
    for seed in range(20):
        problem = random_strict_problem(seed, eps=0.1)
        coupling, duals = solve(problem)
        out.append((problem, coupling, duals))
    return out


@pytest.fixture(scope="module")
def ray_instances():
    """50 random multi-ray instances engineered to avoid atom splits."""
    out = []
    for seed in range(50):
        problem = separated_rays_problem(seed)
        coupling, duals = solve(problem)
        out.append((problem, coupling, duals))
    return out


def test_criterion_01_line_coupling_uniqueness(line_family):
    solutions, elapsed = line_family
    for n, (problem, coupling, _) in solutions.items():
        pattern = [(i, j) for i, j, _ in coupling.entries]
        assert pattern == [(i, i) for i in range(n)], f"support pattern at n={n}"
        masses = np.array([m for _, _, m in coupling.entries])
        np.testing.assert_array_equal(masses, problem.mu.weights_array())
        assert abs(coupling.total_cost) <= 1e-12
    assert elapsed < 10.0, f"line solves took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 1 PASS: index-shift pairing and zero cost at "
          f"n={LINE_SIZES}, solved in {elapsed:.2f} s")


def test_criterion_02_line_dual_blowup(line_family):
    solutions, _ = line_family
    spreads = {}
    for n, (problem, coupling, _) in solutions.items():
        psi = chain_potential(problem.model, coupling)
        assert not isinstance(psi, PositiveCycle)
        spread = float(psi.max() - psi.min())
        assert abs(spread - math.sqrt(2 * n - 3)) <= 1e-6, f"spread at n={n}"
        spreads[n] = spread
    ratios = [spreads[2 * n] / spreads[n] for n in (25, 50, 100)]
    for r in ratios:
        assert 1.30 <= r <= 1.48
    slope = float(np.polyfit(np.log(LINE_SIZES),
                             np.log([spreads[n] for n in LINE_SIZES]), 1)[0])
    assert 0.45 <= slope <= 0.55
    print(f"\nACCEPTANCE 2 PASS: spread=sqrt(2n-3) within 1e-6, "
          f"ratios={['%.4f' % r for r in ratios]}, slope={slope:.4f}")


def test_criterion_03_strict_instances_admit_tight_duals(strict_instances):
    from lorot.diagnostics import strict_margin

    for k, (problem, coupling, _) in enumerate(strict_instances):
        assert strict_margin(problem.model, coupling) >= 0.1 - 1e-9
        psi = chain_potential(problem.model, coupling)
        assert not isinstance(psi, PositiveCycle), f"instance {k} gave a cycle"
        potential = DualPotential.from_psi(problem.model, problem.mu, psi, problem.nu)
        report = dkp_verify(problem.model, coupling, potential, tol=1e-8)
        assert report.feasible, f"instance {k} infeasible potential"
        assert report.support_tight, f"instance {k} not tight: {report}"
    print(f"\nACCEPTANCE 3 PASS: {len(strict_instances)} strictified instances "
          f"(margin >= 0.1) all admit tight chain potentials at 1e-8")


def test_criterion_04_duality_and_monotonicity(line_family, strict_instances,
                                               ray_instances):
    solutions, _ = line_family
    suite = list(solutions.values()) + strict_instances + ray_instances
    worst_gap = 0.0
    for problem, coupling, duals in suite:
        report = audit(problem.model, problem, coupling, duals,
                       samples=1000, seed=0)
        rel_gap = report.dual_gap / (1 + abs(coupling.total_cost))
        assert rel_gap <= 1e-8
        assert report.monotonicity_violations == 0
        worst_gap = max(worst_gap, rel_gap)
    print(f"\nACCEPTANCE 4 PASS: {len(suite)} solved instances, worst relative "
          f"dual gap {worst_gap:.2e}, zero 2-cycle violations in 1000 samples each")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(2024)
    model = Minkowski(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = rng.uniform(-1, 1, n)
        ts = rng.uniform(-0.2, 0.2, n)
        mu = DiscreteMeasure.from_atoms(
            [(model.make_point([xs[i]], ts[i]), 1.0 / n) for i in range(n)]
        )
        nu = DiscreteMeasure.from_atoms(
            [(model.make_point([xs[i] + rng.uniform(-0.3, 0.3)],
                               ts[i] + rng.uniform(1.5, 2.5)), 1.0 / n)
             for i in range(n)]
        )
        problem = TransportProblem(model, mu, nu)
        coupling, _ = solve(problem)
        oracle = brute_force_oracle(problem)
        diff = abs(coupling.total_cost - oracle.total_cost)
        assert diff <= 1e-10
        worst = max(worst, diff)
    print(f"\nACCEPTANCE 5 PASS: 100 instances (<= 6 atoms/side), solver vs "
          f"enumeration oracle, worst cost difference {worst:.2e}")


def test_criterion_06_cylinder_reproduction():
    t0 = time.monotonic()
    build_profile(0.25)  # validates the defining conditions or raises
    report = run_cylinder_example(0.25, 10000, 1.0, etas=(0.1, 0.05, 0.01))
    elapsed = time.monotonic() - t0
    measures = {
        eta: report.scalars[f"near_null_measure_eta_{eta}"].value
        for eta in (0.1, 0.05, 0.01)
    }
    for eta, m in measures.items():
        assert m > 0, f"near-null set at eta={eta} should have positive measure"
    delta = report.scalars["delta_trailing_cone"].value
    assert delta > 0
    assert elapsed < 60.0, f"cylinder run took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 6 PASS: profile valid; near-null measures "
          f"{ {k: round(v, 4) for k, v in measures.items()} }; "
          f"delta={delta:.3g} > 0; {elapsed:.1f} s")


def test_criterion_07_flat_model_contraction():
    rng = np.random.default_rng(404)
    checked = 0
    worst = 0.0
    for trial in range(20):
        model = Minkowski(int(rng.integers(1, 4)))
        d = model.spatial_dim
        k = d + 1 + int(rng.integers(1, 5))
        verts = [model.make_point(rng.uniform(-1, 1, d), 0.0) for _ in range(k)]
        y = model.make_point(rng.uniform(-0.5, 0.5, d), rng.uniform(2.5, 4.0))
        for t in (0.25, 0.5, 0.9):
            measured, predicted = contraction_check(model, verts, y, t)
            diff = abs(measured - predicted)
            assert diff <= 1e-12
            worst = max(worst, diff)
            checked += 1
    print(f"\nACCEPTANCE 7 PASS: {checked} contraction checks, "
          f"|measured - (1-t)^d vol| worst {worst:.2e} <= 1e-12")


def test_criterion_08_on_ray_cost_invariance():
    rng = np.random.default_rng(808)
    model = Minkowski(1)
    v = 0.4
    n = 8
    base = np.sort(rng.uniform(0.0, 1.0, n))
    top = np.sort(rng.uniform(2.0, 3.0, n))
    mu = DiscreteMeasure.from_atoms(
        [(model.make_point([v * t], t), 1.0 / n) for t in base]
    )
    nu = DiscreteMeasure.from_atoms(
        [(model.make_point([v * t], t), 1.0 / n) for t in top]
    )
    costs = []
    for _ in range(100):
        sigma = rng.permutation(n)
        coupling = Coupling.from_entries(
            TransportProblem(model, mu, nu), [(i, int(sigma[i]), 1.0 / n) for i in range(n)]
        )
        costs.append(coupling.total_cost)
    span = max(costs) - min(costs)
    assert span <= 1e-12
    print(f"\nACCEPTANCE 8 PASS: 100 causal couplings on one timelike line, "
          f"cost span {span:.2e} <= 1e-12")


def test_criterion_09_monge_consistency(ray_instances):
    worst = 0.0
    for k, (problem, coupling, _) in enumerate(ray_instances):
        out = monge_map(problem.model, problem)
        assert isinstance(out, MongeMap), f"instance {k} returned {out}"
        diff = abs(out.total_cost - coupling.total_cost)
        assert diff <= 1e-9 * (1 + abs(coupling.total_cost))
        worst = max(worst, diff)

        rproblem, rcoupling = restrict(problem.model, coupling, 0.0, 0.5)
        psi = chain_potential(problem.model, rcoupling)
        assert not isinstance(psi, PositiveCycle)
        potential = DualPotential.from_psi(
            problem.model, rproblem.mu, psi, rproblem.nu
        )
        report = dkp_verify(problem.model, rcoupling, potential, tol=1e-8)
        assert report.feasible and report.support_tight, f"instance {k}: {report}"
    print(f"\nACCEPTANCE 9 PASS: {len(ray_instances)} instances, Monge map cost "
          f"matches solver within {worst:.2e}; restricted couplings pass the "
          f"dual tightness check")


def test_criterion_10_lightlike_dichotomy():
    levels = (0, 1, 2)
    stats = {}
    for name, family in SHIPPED_FAMILIES.items():
        spreads = []
        fractions = []
        for level in levels:
            problem = family(level)
            coupling, _ = solve(problem)
            psi = chain_potential(problem.model, coupling)
            assert not isinstance(psi, PositiveCycle)
            spreads.append(float(psi.max() - psi.min()))
            fractions.append(lightlike_fraction(problem.model, coupling))
        stats[name] = (spreads, fractions)

    for name, (spreads, fractions) in stats.items():
        growth = [b / a for a, b in zip(spreads, spreads[1:])]
        bounded = max(spreads) <= 1.05 * spreads[0]
        if bounded:
            assert max(fractions) <= 0.01, f"{name}: bounded spread but lightlike"
        if min(fractions) >= 0.99:
            assert min(growth) >= 1.3, f"{name}: lightlike but spread not growing"

    line_fracs = stats["line_blowup"][1]
    strict_spreads = stats["strictified_line"][0]
    assert min(line_fracs) >= 0.99
    assert max(strict_spreads) <= 1.05 * strict_spreads[0]
    print(f"\nACCEPTANCE 10 PASS: strictified family spread stays within 5% "
          f"(lightlike {max(stats['strictified_line'][1]):.3f}); line family "
          f"lightlike {min(line_fracs):.2f} with spread growth "
          f"{['%.3f' % g for g in [b/a for a, b in zip(*[stats['line_blowup'][0][:-1], stats['line_blowup'][0][1:]])]]}")
