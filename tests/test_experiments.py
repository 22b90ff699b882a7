import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from lorot._csv import _CHUNK, CsvWriter
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
from lorot.spacetime import BLOCK_PAIRS, Cylinder

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

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.4])
    def test_branches_match_the_select_forms(self, eps):
        # the cylinder_cli angle grid, and the junctions with their neighbours
        junctions = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        grid = (np.arange(100_000) + 0.5) * (5.0 / 100_000)
        edges = np.concatenate([junctions, np.nextafter(junctions, 0.0),
                                np.nextafter(junctions, np.inf)])
        f, oracle = ProfileFunction(eps), SelectProfile(eps)
        for x in (grid, edges):
            assert f(x).tobytes() == oracle(x).tobytes()
            assert f.derivative(x).tobytes() == oracle.derivative(x).tobytes()


class SelectProfile(ProfileFunction):
    """The profile with all five branches evaluated over every point and then
    picked by ``np.select``, as a reference for the branch-wise forms."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float) % 5.0
        e = self.eps
        arch_up = np.sqrt(np.clip(x * (2.0 - x), 0.0, None))
        arch_dn = np.sqrt(np.clip((x - 2.0) * (4.0 - x), 0.0, None))
        out = np.select(
            [x <= 1.0, x <= 2.0, x <= 3.0, x <= 4.0],
            [1.0 + e, (1.0 + e) * arch_up, -(1.0 - e) * arch_dn, e - 1.0],
            default=e - np.cos(np.pi * (x - 4.0)),
        )
        return out if out.ndim else float(out)

    def derivative(self, x):
        """dF/dx away from the cusp; NaN at exactly x = 2."""
        x = np.asarray(x, dtype=float) % 5.0
        e = self.eps
        with np.errstate(divide="ignore", invalid="ignore"):
            d_up = (1.0 + e) * (1.0 - x) / np.sqrt(np.clip(x * (2.0 - x), 1e-300, None))
            d_dn = -(1.0 - e) * (3.0 - x) / np.sqrt(
                np.clip((x - 2.0) * (4.0 - x), 1e-300, None)
            )
        out = np.select(
            [x <= 1.0, x < 2.0, x == 2.0, x <= 3.0, x <= 4.0],
            [0.0, d_up, np.nan, d_dn, 0.0],
            default=np.pi * np.sin(np.pi * (x - 4.0)),
        )
        return out if out.ndim else float(out)


class TestCylinderPotential:
    def test_slice_value_is_profile(self):
        f = build_profile(0.25)
        thetas = (0.0, 1.3, 2.7, 4.9)
        phi = cylinder_potential(f, [[theta, 0.0] for theta in thetas], 5000)
        for theta, value in zip(thetas, phi):
            assert value == pytest.approx(f(theta), abs=1e-12)

    def test_flat_piece_vertical_is_critical_but_seam_wins(self):
        # above the flat piece the vertical value f - t = 0.25 is a critical
        # value (f' = 0) and an upper bound, but sources on the seam piece
        # undercut it, so the infimum is strictly smaller
        f = build_profile(0.25)
        y = CYL.make_point([0.5], 1.0)
        phi = cylinder_potential(f, [y.coords()], 20000)[0]
        vertical = f(0.5) + CYL.cost(CYL.make_point([0.5], 0.0), y)
        assert vertical == 0.25
        assert phi <= vertical
        oracle = dense_grid_oracle(f, y, 200000)
        assert phi == pytest.approx(oracle, abs=1e-6)

    def test_generic_point_matches_dense_grid(self):
        f = build_profile(0.25)
        ys = [CYL.make_point([theta], t) for theta, t in ((2.0, 0.5), (3.3, 0.8), (1.1, 0.2))]
        got = cylinder_potential(f, [y.coords() for y in ys], 10000)
        for y, value in zip(ys, got):
            assert value == pytest.approx(dense_grid_oracle(f, y, 200000), abs=1e-6)

    def test_negative_time_rejected(self):
        f = build_profile(0.25)
        with pytest.raises(ValueError):
            cylinder_potential(f, [[0.0, -1.0]], 1000)

    def test_grid_size_named(self):
        for bad in (0, -3, 2.7, True):
            with pytest.raises(ValueError, match=f"^theta_grid must be an integer >= 1, got {bad}$"):
                cylinder_potential(build_profile(0.25), [[1.0, 0.5]], bad)

    @pytest.mark.parametrize("ys, message", [
        ([[1.0, np.nan]], r"target row 0 .* got \[1.0, nan\]$"),
        ([[np.inf, 0.5]], r"target row 0 .* got \[inf, 0.5\]$"),
        ([[1.0, 0.5], [2.0, -1e-300], [1.0, np.nan]], r"target row 1 .* got \[2.0, -1e-300\]$"),
        ([[1.0, 0.5], [1.0, 1e300]], r"target row 1 .* got \[1.0, 1e\+300\]$"),
        ([[1.0, 0.2, 0.5]], r"got shape \(1, 3\)$"),
        ([1.0, 0.5], r"got shape \(2,\)$"),
    ], ids=["nan-time", "inf-angle", "first-bad-row", "beyond-bound", "three-columns", "one-target-flat"])
    def test_malformed_targets_rejected(self, ys, message):
        with pytest.raises(ValueError, match=message):
            cylinder_potential(build_profile(0.25), ys, 1000)

    def test_fractional_grid_rejected(self):
        with pytest.raises(ValueError, match="got 1.5$"):
            cylinder_potential(build_profile(0.25), [[1.0, 0.5]], 1.5)
        assert np.isfinite(cylinder_potential(build_profile(0.25), [[1.0, 0.5]], np.int64(1)))

    @pytest.mark.parametrize("t", [1.0, 0.5, 1e-200])
    def test_cusp_targets_match_per_target_search(self, t):
        f = build_profile(0.25)
        hs = 2.0 ** -np.arange(3, 11)
        ys = np.column_stack([np.concatenate([2.0 + hs, 2.0 - hs]), np.full(16, t)])
        expected = np.array([reference_potential(f, y, 4000) for y in ys])
        assert cylinder_potential(f, ys, 4000).tobytes() == expected.tobytes()

    def test_mixed_targets_match_per_target_search(self):
        # one batch of targets on and off the slice t = 0, across the circle
        f = build_profile(0.25)
        ys = np.array([[1.3, 0.0], [2.0 + 2.0**-5, 1.0], [4.9, 0.3], [0.5, 1.0], [2.0, 1e-9]])
        expected = np.array([reference_potential(f, y, 4000) for y in ys])
        assert cylinder_potential(f, ys, 4000).tobytes() == expected.tobytes()
        assert cylinder_potential(f, ys[:1], 4000).tobytes() == expected[:1].tobytes()

    def test_memory_holds_the_grid_and_four_blocks(self):
        # the 16 cusp targets of run_cylinder_example at t = 1; a (grid, 16)
        # float64 temporary at 200,000 angles takes 25.6 MB on its own
        f = build_profile(0.25)
        hs = 2.0 ** -np.arange(3, 11)
        ys = np.column_stack([np.concatenate([2.0 + hs, 2.0 - hs]), np.full(16, 1.0)])
        cylinder_potential(f, ys, 1000)  # numpy imports some code lazily
        tracemalloc.start()
        try:
            cylinder_potential(f, ys, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 200_000 + 4 * BLOCK_PAIRS * 8


def reference_potential(profile, y, theta_grid):
    """One target's potential by its own minimum over the grid angles and its
    own angle: the per-target pass the batched :func:`cylinder_potential`
    replaces by row blocks."""
    thetas = np.concatenate([np.arange(theta_grid) * (5.0 / theta_grid), [y[0]]])
    xs = np.column_stack([CYL.normalize(thetas), np.zeros_like(thetas)])
    return float(np.min(profile(thetas) + CYL.cost_matrix(xs, np.array([y]))[:, 0]))


def dense_grid_oracle(profile, y, n):
    """Plain dense minimization of the potential objective."""
    thetas = np.linspace(0.0, 5.0, n, endpoint=False)
    xs = np.column_stack([thetas, np.zeros(n)])
    C = CYL.cost_matrix(xs, np.array([[y.spatial[0], y.time]]))[:, 0]
    vals = profile(thetas) + C
    return float(np.min(vals))


def reference_bisection(fp, t):
    """u in (-t, t) with u / sqrt(t^2 - u^2) = fp by 64 rounds of bisection
    in s = u / t: the loop the closed form in :func:`subdifferential_field`
    replaced. NaN where the root cannot be bracketed."""
    def slope(s):
        return s / np.sqrt(1.0 - s * s)

    lo = np.full(len(fp), -(1.0 - 1e-14))
    hi = np.full(len(fp), 1.0 - 1e-14)
    bad = ~np.isfinite(fp) | (slope(lo) > fp) | (slope(hi) < fp)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = slope(mid) < fp
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(bad, np.nan, t * (0.5 * (lo + hi)))


class StubProfile:
    """Stands in for a profile whose derivative is the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def derivative(self, x):
        assert len(x) == len(self.values)
        return self.values


class TestSubdifferentialField:
    def test_closed_form_matches_reference_bisection(self):
        f = build_profile(0.25)
        for t in (1.0, 0.5, 1e-200):
            thetas, fp, u, skipped = subdifferential_field(f, t, 4000)
            assert skipped == 0
            assert fp.tobytes() == f.derivative(thetas).tobytes()
            # both solve in s = u / t to about an ulp of 1
            np.testing.assert_allclose(u, reference_bisection(fp, t), rtol=0,
                                       atol=2 * np.finfo(float).eps * t)

    def test_skip_rule(self):
        # the largest slope solved is that of |s| = 1 - 1e-14, about 7.07e6
        fp = [np.nan, np.inf, -np.inf, 1e7, -1e7, 7e6, 0.0]
        _, _, u, skipped = subdifferential_field(StubProfile(fp), 1.0, len(fp))
        assert skipped == 5
        assert np.array_equal(np.isnan(u), [True] * 5 + [False] * 2)
        assert u[5] == pytest.approx(1.0, abs=1e-13) and u[6] == 0.0
        assert np.array_equal(np.isnan(u), np.isnan(reference_bisection(np.array(fp), 1.0)))

    def test_field_is_odd(self):
        fp = np.concatenate([np.geomspace(1e-300, 7e6, 997), [0.0, 1.0, 2.5]])
        _, _, up, _ = subdifferential_field(StubProfile(fp), 0.5, len(fp))
        _, _, un, _ = subdifferential_field(StubProfile(-fp), 0.5, len(fp))
        assert (-un).tobytes() == up.tobytes()

    @pytest.mark.parametrize("cells", [slice(0, _CHUNK), slice(_CHUNK, None), slice(5, 17),
                                       slice(None, None, 3), slice(-7, None), slice(40, 40)])
    def test_cells_match_the_whole_grid(self, cells):
        f = build_profile(0.25)
        whole = subdifferential_field(f, 0.5, 2 * _CHUNK + 11)
        part = subdifferential_field(f, 0.5, 2 * _CHUNK + 11, cells)
        for w, p in zip(whole[:3], part[:3]):
            assert p.tobytes() == w[cells].tobytes()
        assert part[3] == np.count_nonzero(np.isnan(whole[2][cells]))

    def test_offset_grid_avoids_cusp(self):
        for n in (100, 1234, 10000):
            thetas, _, _, _ = subdifferential_field(build_profile(0.2), 0.5, n)
            assert not np.any(thetas == 2.0)

    def test_t_range(self):
        with pytest.raises(ValueError):
            subdifferential_field(build_profile(0.25), 0.0, 100)

    @pytest.mark.parametrize("t", [1e-320, 5e-324])
    def test_subnormal_t_named(self, t):
        # u = t * s keeps too few bits there, and u + t rounds to 0
        with pytest.raises(ValueError, match=re.escape(f"got {t!r}")):
            subdifferential_field(build_profile(0.25), t, 100)
        with pytest.raises(ValueError, match=re.escape(f"got {t!r}")):
            run_cylinder_example(0.25, 10000, t)

    def test_smallest_normal_t_runs(self):
        report = run_cylinder_example(0.25, 1000, sys.float_info.min)
        assert report.scalars["delta_trailing_cone"].value > 0

    def test_grid_size_named(self):
        for bad in (0, -3, 2.7, True):
            with pytest.raises(ValueError, match=f"^theta_grid must be an integer >= 1, got {bad}$"):
                subdifferential_field(build_profile(0.25), 1.0, bad)

    def test_tiny_t_scales_the_unit_field(self):
        # the equation depends on u / t only, but t * t underflows at t = 1e-200
        f = build_profile(0.25)
        _, _, unit, _ = subdifferential_field(f, 1.0, 1000)
        _, _, u, skipped = subdifferential_field(f, 1e-200, 1000)
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

    def test_grid_size_named(self):
        # the rule of cylinder_potential and subdifferential_field, not int()
        for bad in (0, 2.7, True):
            with pytest.raises(ValueError, match=f"^theta_grid must be an integer >= 1, got {bad}$"):
                run_cylinder_example(0.25, bad, 1.0)
        rep = run_cylinder_example(0.25, np.int64(1000), 1.0)
        assert rep.scalars["near_null_measure_eta_0.01"].value > 0

    @pytest.mark.parametrize("eps", [1e-12, 0.01, 0.25, 0.4999])
    @pytest.mark.parametrize("grid", range(250, 261))
    def test_near_null_checks_pass_from_the_cli_floor(self, eps, grid):
        # the CLI's least --grid: a cell centre lies under eta = 0.01 near the
        # cusp whenever 5 / grid < 0.02 * (1 + eps**2) / t; grid 245 fails at
        # t = 1 for eps <= 0.01
        rep = run_cylinder_example(eps, grid, 1.0)
        assert rep.scalars["near_null_measure_eta_0.01"].value > 0

    def test_tiny_t_residual_finite(self):
        rep = run_cylinder_example(0.25, 1000, 1e-200)
        assert rep.scalars["critical_equation_residual"].value < 1e-9

    def test_flat_piece_margin_full(self):
        # f' = 0 on [0, 1] and [3, 4]: the transport there is exactly vertical
        rep = run_cylinder_example(0.25, 2000, 1.0)
        table = rep.tables["subdifferential"]
        theta = table["theta"]
        flat = ((theta >= 0) & (theta <= 1)) | ((theta >= 3) & (theta <= 4))
        assert np.count_nonzero(flat) == 800
        assert np.all(table["margin"][flat] == 1.0)
        assert np.all(table["y_theta"][flat] == theta[flat])

    @pytest.mark.parametrize("eps,t", [(0.1, 0.5), (0.25, 1.0), (0.4, 1.0)])
    def test_benchmark_pairs_residual(self, eps, t):
        rep = run_cylinder_example(eps, 100000, t)
        assert rep.scalars["skipped_thetas"].value == 0
        assert rep.scalars["critical_equation_residual"].value < 1e-9

    def test_memory_is_flat_in_the_grid(self, tmp_path):
        # the CLI's sink: every block is formatted as CSV text and dropped
        def peak(grid):
            tracemalloc.start()
            try:
                with CsvWriter(tmp_path / f"{grid}.csv") as rows:
                    run_cylinder_example(0.25, grid, 1.0, rows=rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # numpy imports some code lazily
        small, large = peak(100_000), peak(400_000)
        # one float64 array over the grid of 4e5 takes 3 MiB, so holding any breaks the bound
        assert max(small, large) < 4 * 2**20
        assert abs(large - small) < _CHUNK * 3 * 8  # one block of (theta, y_theta, margin) rows

    def test_sink_receives_the_collected_table(self):
        blocks = []
        streamed = run_cylinder_example(0.25, 2 * _CHUNK + 1, 1.0, rows=blocks.append)
        collected = run_cylinder_example(0.25, 2 * _CHUNK + 1, 1.0)
        assert [len(b) for b in blocks] == [_CHUNK, _CHUNK, 1]
        assert "subdifferential" not in streamed.tables
        assert np.concatenate(blocks).tobytes() == collected.tables["subdifferential"].tobytes()
        assert streamed.as_dict() == collected.as_dict()

    def test_near_null_measure_shrinks_with_eta(self):
        rep = run_cylinder_example(0.25, 4000, 1.0)
        m = [rep.scalars[f"near_null_measure_eta_{eta}"].value for eta in (0.1, 0.05, 0.01)]
        assert m[0] >= m[1] >= m[2] > 0
