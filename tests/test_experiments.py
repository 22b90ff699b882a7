import math

import numpy as np
import pytest

from lorot.errors import ValidationFailed
from lorot.experiments import (
    ProfileFunction,
    _validate_profile,
    build_profile,
    cylinder_potential,
    run_cylinder_example,
    run_line_counterexample,
    subdifferential_field,
)
from lorot.spacetime import Cylinder

CYL = Cylinder(5.0)


class TestLineCounterexample:
    def test_small_spread_values(self):
        rep = run_line_counterexample(3, levels=1)
        assert rep.scalars["spread_n3"].value == pytest.approx(math.sqrt(3), abs=1e-6)
        rep = run_line_counterexample(51, levels=1)
        assert rep.scalars["spread_n51"].value == pytest.approx(math.sqrt(99), abs=1e-6)

    def test_lightlike_and_cost(self):
        rep = run_line_counterexample(100, levels=1)
        row = rep.tables["levels"][0]
        assert row["lightlike_fraction"] == 1.0
        assert abs(row["total_cost"]) <= 1e-12

    def test_ratios_and_slope(self):
        rep = run_line_counterexample(25, levels=4)
        for key, scalar in rep.scalars.items():
            if key.startswith("ratio_"):
                assert 1.30 <= scalar.value <= 1.48
        slope = rep.scalars["log_log_slope"].value
        assert 0.45 <= slope <= 0.55

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            run_line_counterexample(2)

    def test_feasible_arcs_are_lower_triangular(self):
        # grid i can reach shifted grid j only for j <= i, which is what
        # forces the index-shift pairing to be the unique feasible coupling
        from lorot.experiments import line_blowup_problem

        problem = line_blowup_problem(40)
        finite = np.isfinite(problem.cost_matrix())
        assert np.array_equal(finite, np.tril(np.ones((40, 40), dtype=bool)))


class TestProfile:
    def test_values(self):
        f = build_profile(0.25)
        assert f(0.5) == 1.25
        assert f(2.0) == 0.0
        assert f(3.5) == -0.75

    def test_periodic_and_continuous(self):
        f = build_profile(0.3)
        assert f(0.0) == pytest.approx(f(5.0 - 1e-12), abs=1e-5)
        xs = np.linspace(0, 5, 5001)
        vals = f(xs)
        # square-root modulus of continuity: steps bounded by 2*sqrt(dx)
        assert np.max(np.abs(np.diff(vals))) < 2 * math.sqrt(xs[1] - xs[0])

    def test_derivative_signs(self):
        f = build_profile(0.25)
        assert f.derivative(0.5) == 0.0
        assert f.derivative(3.5) == 0.0
        assert f.derivative(1.9) < 0 and f.derivative(2.1) < 0
        assert f.derivative(4.5) == pytest.approx(math.pi, abs=1e-12)
        assert math.isnan(f.derivative(2.0))

    def test_eps_bounds(self):
        for eps in (0.0, 0.5, -0.1, 0.75):
            with pytest.raises(ValueError):
                ProfileFunction(eps)

    def test_validation_failure_detected(self):
        class Broken(ProfileFunction):
            def __call__(self, x):
                base = ProfileFunction.__call__(self, x)
                if np.isscalar(base):
                    return 0.1 if x % 5.0 == 2.0 else base
                out = np.asarray(base).copy()
                out[np.asarray(x) % 5.0 == 2.0] = 0.1
                return out

        with pytest.raises(ValidationFailed) as err:
            _validate_profile(Broken(0.25))
        assert err.value.condition == 3


class TestCylinderPotential:
    def test_slice_value_is_profile(self):
        f = build_profile(0.25)
        for theta in (0.0, 1.3, 2.7, 4.9):
            y = CYL.make_point([theta], 0.0)
            assert cylinder_potential(f, y, 5000) == pytest.approx(f(theta), abs=1e-12)

    def test_flat_piece_vertical_is_critical_but_seam_wins(self):
        # above the flat piece the vertical value f - t = 0.25 is a critical
        # value (f' = 0) and an upper bound, but sources on the seam piece
        # undercut it, so the infimum is strictly smaller
        f = build_profile(0.25)
        y = CYL.make_point([0.5], 1.0)
        phi = cylinder_potential(f, y, 20000)
        vertical = f(0.5) + CYL.cost(CYL.make_point([0.5], 0.0), y)
        assert vertical == 0.25
        assert phi <= vertical
        oracle = dense_grid_oracle(f, y, 200000)
        assert phi == pytest.approx(oracle, abs=1e-6)

    def test_generic_point_matches_dense_grid(self):
        f = build_profile(0.25)
        for theta, t in ((2.0, 0.5), (3.3, 0.8), (1.1, 0.2)):
            y = CYL.make_point([theta], t)
            got = cylinder_potential(f, y, 10000)
            assert got == pytest.approx(dense_grid_oracle(f, y, 200000), abs=1e-6)

    def test_negative_time_rejected(self):
        f = build_profile(0.25)
        with pytest.raises(ValueError):
            cylinder_potential(f, CYL.make_point([0.0], -1.0), 1000)

    def test_grid_size_named(self):
        y = CYL.make_point([1.0], 0.5)
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"got {bad}$"):
                cylinder_potential(build_profile(0.25), y, bad)


def dense_grid_oracle(profile, y, n):
    """Plain dense minimization of the potential objective."""
    thetas = np.linspace(0.0, 5.0, n, endpoint=False)
    xs = np.column_stack([thetas, np.zeros(n)])
    C = CYL.cost_matrix(xs, np.array([[y.spatial[0], y.time]]))[:, 0]
    vals = profile(thetas) + C
    return float(np.min(vals))


class TestSubdifferentialField:
    def test_bisection_matches_closed_form(self):
        # the critical equation u / sqrt(t^2 - u^2) = f'(theta) has the
        # closed-form solution u = t f' / sqrt(1 + f'^2)
        f = build_profile(0.25)
        t = 1.0
        thetas, u, skipped = subdifferential_field(f, t, 4000)
        assert skipped == 0
        fp = f.derivative(thetas)
        expected = t * fp / np.sqrt(1.0 + fp * fp)
        np.testing.assert_allclose(u, expected, rtol=0, atol=1e-9)

    def test_offset_grid_avoids_cusp(self):
        for n in (100, 1234, 10000):
            thetas, _, _ = subdifferential_field(build_profile(0.2), 0.5, n)
            assert not np.any(thetas == 2.0)

    def test_t_range(self):
        with pytest.raises(ValueError):
            subdifferential_field(build_profile(0.25), 0.0, 100)

    def test_grid_size_named(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"got {bad}$"):
                subdifferential_field(build_profile(0.25), 1.0, bad)

    def test_tiny_t_scales_the_unit_field(self):
        # the equation depends on u / t only, but t * t underflows at t = 1e-200
        f = build_profile(0.25)
        _, unit, _ = subdifferential_field(f, 1.0, 1000)
        _, u, skipped = subdifferential_field(f, 1e-200, 1000)
        assert skipped == 0
        np.testing.assert_allclose(u / 1e-200, unit, rtol=1e-15, atol=0)

    def test_tiny_t_keeps_the_leading_cone_distance(self):
        # the distances to the cone points are of order t, far below an
        # ulp of the circumference
        report = run_cylinder_example(0.25, 1000, 1e-200)
        assert report.scalars["delta_leading_cone"].value > 0


class TestRunCylinderExample:
    def test_report_contents(self):
        rep = run_cylinder_example(0.25, 2000, 1.0)
        for eta in (0.1, 0.05, 0.01):
            assert rep.scalars[f"near_null_measure_eta_{eta}"].value > 0
        assert rep.scalars["delta_trailing_cone"].value > 0
        # the leading-cone distance is grid stable: t * (1 - pi/sqrt(1+pi^2))
        stable = 1.0 * (1 - math.pi / math.sqrt(1 + math.pi**2))
        assert rep.scalars["delta_leading_cone"].value == pytest.approx(stable, abs=1e-3)
        assert rep.scalars["critical_equation_residual"].value < 1e-9

    def test_tiny_t_residual_finite(self):
        rep = run_cylinder_example(0.25, 1000, 1e-200)
        assert rep.scalars["critical_equation_residual"].value < 1e-9

    def test_flat_piece_margin_full(self):
        rep = run_cylinder_example(0.25, 2000, 1.0)
        rows = rep.tables["subdifferential"]
        near_half = min(rows, key=lambda r: abs(r["theta"] - 0.5))
        assert near_half["margin"] == pytest.approx(1.0, abs=1e-9)
        assert near_half["y_theta"] == pytest.approx(near_half["theta"], abs=1e-9)

    def test_near_null_measure_shrinks_with_eta(self):
        rep = run_cylinder_example(0.25, 4000, 1.0)
        m = [rep.scalars[f"near_null_measure_eta_{eta}"].value for eta in (0.1, 0.05, 0.01)]
        assert m[0] >= m[1] >= m[2] > 0
