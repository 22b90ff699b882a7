"""Turn-key experiments and shipped instance families.

Two quantitative stories ship with the toolkit:

* The line counterexample. Uniform mass on a unit interval of a spatial
  slice is pushed to the unit-shifted interval one time unit up. Every
  feasible coupling is the index shift, all transport is lightlike, and the
  chain-constructed dual potential has spread exactly sqrt(2n-3) on an
  n-atom endpoint grid, so it blows up like sqrt(n) under refinement: no
  bounded dual potential survives the continuum limit.

* The cylinder example. A height profile on the circle, flat on part of it
  and dipping through zero with a square-root cusp, induces a dual potential
  whose subdifferential transport comes arbitrarily close to the light cone
  on a set of positive measure while staying uniformly away from the
  opposite cone edge.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import audit
from .dual import chain_potential, PositiveCycle
from .errors import ExperimentCheckFailed, ValidationFailed
from .measures import DiscreteMeasure, grid_segment, strictify
from .solver import TransportProblem, solve
from .spacetime import Cylinder, Minkowski


@dataclass(frozen=True)
class ScalarResult:
    """A named result together with how it was checked.

    ``tolerance`` is the absolute tolerance of an equality check against
    ``target``; ``window`` is an inclusive (lo, hi) range check. Both may be
    None for values that are reported without assertion.
    """

    value: float
    tolerance: float | None = None
    target: float | None = None
    window: tuple[float, float] | None = None

    def as_dict(self):
        out = {"value": self.value}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.target is not None:
            out["target"] = self.target
        if self.window is not None:
            out["window"] = list(self.window)
        return out


@dataclass
class ExperimentReport:
    """Named scalars and tables of one experiment run.

    Each table is a numpy record array: ``table["margin"]`` is a column,
    ``table[k]`` a record, and ``for row in table: row["n"]`` reads rows.
    """

    name: str
    scalars: dict[str, ScalarResult] = field(default_factory=dict)
    tables: dict[str, np.recarray] = field(default_factory=dict)

    def as_dict(self):
        """The ``result`` block of the CLI's ``result.json``; tables go to CSV."""
        return {
            "name": self.name,
            "scalars": {k: v.as_dict() for k, v in self.scalars.items()},
        }


def _check(condition, message):
    if not condition:
        raise ExperimentCheckFailed(f"experiment check failed: {message}")


# ---------------------------------------------------------------------------
# instance families


def line_blowup_problem(n: int) -> TransportProblem:
    """Uniform n-atom grid on [0,1]x{0} vs the shifted grid on [1,2]x{1}."""
    model = Minkowski(1)
    mu = grid_segment(model, model.make_point([0.0], 0.0), model.make_point([1.0], 0.0), n)
    nu = grid_segment(model, model.make_point([1.0], 1.0), model.make_point([2.0], 1.0), n)
    return TransportProblem(model, mu, nu)


def strictified_line_problem(n: int, eps: float = 0.5) -> TransportProblem:
    """The line instance with the source flowed back in time by eps."""
    p = line_blowup_problem(n)
    return TransportProblem(p.model, strictify(p.model, p.mu, eps), p.nu)


def random_strict_problem(seed: int, eps: float = 0.1,
                          max_side: int = 80) -> TransportProblem:
    """Random strictly timelike instance with connected grid supports.

    Both marginals are endpoint grids on spatial slices, sized and placed so
    every ordered pair is causal; the source is then strictified by eps, so
    every margin is at least eps. Each side gets between 8 and max_side
    atoms.
    """
    rng = np.random.default_rng(seed)
    model = Minkowski(1)
    n = int(rng.integers(8, max_side + 1))
    m = int(rng.integers(8, max_side + 1))
    x0 = float(rng.uniform(-1, 1))
    w1 = float(rng.uniform(0.5, 2.0))
    x1 = x0 + float(rng.uniform(-0.5, 0.5))
    w2 = float(rng.uniform(0.5, 2.0))
    reach = max(abs(x1 + w2 - x0), abs(x0 + w1 - x1), abs(x1 - x0))
    T = reach + float(rng.uniform(0.05, 0.35))
    mu = grid_segment(model, model.make_point([x0], 0.0), model.make_point([x0 + w1], 0.0), n)
    nu = grid_segment(model, model.make_point([x1], T), model.make_point([x1 + w2], T), m)
    return TransportProblem(model, strictify(model, mu, eps), nu)


def separated_rays_problem(seed: int) -> TransportProblem:
    """Random multi-ray instance engineered so a Monge map exists.

    Several vertical lines, far enough apart that vertical transport is
    strictly optimal but close enough that every pair is causal (keeping the
    chain graph connected). Per line, the source carries k atoms for each
    target atom and all weights are dyadic, so the per-ray rearrangement
    never has to split an atom.
    """
    rng = np.random.default_rng(seed)
    model = Minkowski(1)
    n_rays = int(rng.integers(2, 5))
    M = int(rng.choice([4, 8]))
    k = int(rng.choice([2, 4]))
    # random composition of M target atoms over the rays, each ray >= 1
    cuts = np.sort(rng.choice(np.arange(1, M), size=n_rays - 1, replace=False))
    per_ray = np.diff(np.concatenate([[0], cuts, [M]])).astype(int)
    N = k * M
    mu_rows, nu_rows = [], []
    for r, m_r in enumerate(per_ray):
        lo_times = np.sort(rng.uniform(0.0, 0.2, size=k * int(m_r)))
        hi_times = np.sort(rng.uniform(1.0, 1.2, size=int(m_r)))
        mu_rows += [(r * 0.25, t) for t in lo_times.tolist()]
        nu_rows += [(r * 0.25, t) for t in hi_times.tolist()]
    mu, _ = DiscreteMeasure.from_arrays(mu_rows, np.full(N, 1.0 / N))
    nu, _ = DiscreteMeasure.from_arrays(nu_rows, np.full(M, 1.0 / M))
    return TransportProblem(model, mu, nu)


#: Families used by the refinement dichotomy checks: level L gets a grid
#: 2**L times finer than the base.
SHIPPED_FAMILIES = {
    "line_blowup": lambda level: line_blowup_problem(50 << level),
    "strictified_line": lambda level: strictified_line_problem(50 << level),
}


# ---------------------------------------------------------------------------
# the line counterexample


def _line_level(n: int) -> tuple:
    problem = line_blowup_problem(n)
    coupling, duals = solve(problem)
    shift = [(i, j) for i, j, _ in coupling.entries]
    _check(shift == [(i, i) for i in range(n)],
           f"support at n={n} is not the index-shift pairing")
    _check(abs(coupling.total_cost) <= 1e-12,
           f"total cost at n={n} is {coupling.total_cost!r}, not 0")
    psi = chain_potential(problem.model, coupling)
    _check(not isinstance(psi, PositiveCycle), "unexpected positive cycle")
    spread = float(psi.max() - psi.min())
    expected = math.sqrt(2 * n - 3)
    _check(abs(spread - expected) <= 1e-6,
           f"spread at n={n} is {spread!r}, expected {expected!r}")
    report = audit(problem.model, problem, coupling, duals)
    return n, spread, expected, coupling.total_cost, report.lightlike_fraction, report.dual_gap


def run_line_counterexample(n: int, levels: int = 3) -> ExperimentReport:
    """Grid refinement study of the line instance.

    Builds endpoint grids of n, 2n, ..., 2**(levels-1) * n atoms. At each
    level the solved coupling must be exactly the index-shift pairing with
    zero cost, and the chain-potential spread must equal sqrt(2n-3) within
    1e-6. Reports the spread growth ratios and the fitted log-log slope.
    """
    if n < 3 or levels < 1:
        raise ValueError(f"need n >= 3 and levels >= 1, got n={n!r}, levels={levels!r}")
    table = np.rec.fromrecords(
        [_line_level(n << level) for level in range(levels)],
        names="n,spread,expected_spread,total_cost,lightlike_fraction,dual_gap",
    )

    report = ExperimentReport(name="line-counterexample")
    report.tables["levels"] = table
    for size, spread, expected, cost, lightlike, _ in table.tolist():
        report.scalars[f"spread_n{size}"] = ScalarResult(spread, tolerance=1e-6, target=expected)
        report.scalars[f"cost_n{size}"] = ScalarResult(cost, tolerance=1e-12, target=0.0)
        report.scalars[f"lightlike_fraction_n{size}"] = ScalarResult(lightlike)
    sizes, spreads = table["n"].tolist(), table["spread"].tolist()
    for a, b, sa, sb in zip(sizes, sizes[1:], spreads, spreads[1:]):
        report.scalars[f"ratio_n{a}_to_n{b}"] = ScalarResult(sb / sa, window=(1.30, 1.48))
    if levels >= 2:
        slope = float(np.polyfit(np.log(table["n"]), np.log(table["spread"]), 1)[0])
        report.scalars["log_log_slope"] = ScalarResult(slope, window=(0.45, 0.55))
    return report


# ---------------------------------------------------------------------------
# the cylinder profile and its subdifferential field


_JUNCTIONS = np.array([1.0, 2.0, 3.0, 4.0])


def _by_branch(x, pieces):
    """Each of the five pieces evaluated on the points of its own branch:
    piece k on (k, k + 1], piece 0 on [0, 1] and the last also on NaN."""
    branch = np.searchsorted(_JUNCTIONS, x)
    out = np.empty_like(x)
    for k, piece in enumerate(pieces):
        at = branch == k
        out[at] = piece(x[at])
    return out


@dataclass(frozen=True)
class ProfileFunction:
    """Periodic height profile on the circle of circumference 5.

    Piecewise on [0, 5]: the constant 1+eps on [0,1]; (1+eps) times the
    upper light-cone arch sqrt(x(2-x)) on [1,2]; minus (1-eps) times the
    lower arch sqrt((x-2)(4-x)) on [2,3]; the constant eps-1 on [3,4]; and
    eps - cos(pi(x-4)) on [4,5]. Continuous, smooth except at 2 where it has
    a square-root (Hoelder-1/2) cusp through zero, and C^1 at the other
    junctions.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")

    def __call__(self, x):
        x = np.asarray(x, dtype=float) % 5.0
        e = self.eps
        out = _by_branch(x, (
            lambda x: 1.0 + e,
            lambda x: (1.0 + e) * np.sqrt(np.clip(x * (2.0 - x), 0.0, None)),
            lambda x: -(1.0 - e) * np.sqrt(np.clip((x - 2.0) * (4.0 - x), 0.0, None)),
            lambda x: e - 1.0,
            lambda x: e - np.cos(np.pi * (x - 4.0)),
        ))
        return out if out.ndim else float(out)

    def derivative(self, x):
        """dF/dx away from the cusp; NaN at exactly x = 2."""
        x = np.asarray(x, dtype=float) % 5.0
        e = self.eps
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _by_branch(x, (
                lambda x: 0.0,
                lambda x: (1.0 + e) * (1.0 - x) / np.sqrt(np.clip(x * (2.0 - x), 1e-300, None)),
                lambda x: -(1.0 - e) * (3.0 - x) / np.sqrt(
                    np.clip((x - 2.0) * (4.0 - x), 1e-300, None)),
                lambda x: 0.0,
                lambda x: np.pi * np.sin(np.pi * (x - 4.0)),
            ))
        out[x == 2.0] = np.nan
        return out if out.ndim else float(out)


def _validate_profile(f: ProfileFunction):
    e = f.eps
    grid = np.linspace(0.0, 5.0, 10001)
    x = grid[(grid >= 0) & (grid <= 1)]
    if not np.all(f(x) == 1.0 + e):
        raise ValidationFailed(1)
    x = grid[(grid >= 1) & (grid < 2)]
    if not np.all(f(x) > np.sqrt(x * (2.0 - x))):
        raise ValidationFailed(2)
    if f(2.0) != 0.0:
        raise ValidationFailed(3)
    x = grid[(grid > 2) & (grid <= 3)]
    if not np.all(f(x) > -np.sqrt((x - 2.0) * (4.0 - x))):
        raise ValidationFailed(4)
    delta = 0.1
    x = np.concatenate([
        np.linspace(2.0 - delta, 2.0, 200, endpoint=False),
        np.linspace(2.0 + 1e-9, 2.0 + delta, 200),
    ])
    x = x[x != 2.0]
    if not np.all(f.derivative(x) < 0):
        raise ValidationFailed(5)
    x = grid[(grid >= 3) & (grid <= 4)]
    if not np.all(f(x) == e - 1.0):
        raise ValidationFailed(6)
    # square-root modulus at the cusp: |f(2 +- h)| / sqrt(h) stays bounded
    h = 2.0 ** -np.arange(1, 41)
    holder = max(
        np.max(np.abs(f(2.0 + h)) / np.sqrt(h)),
        np.max(np.abs(f(2.0 - h)) / np.sqrt(h)),
    )
    if not holder < 4.0:
        raise ValidationFailed("holder")
    # continuity across junctions and the period seam
    for junction in (1.0, 2.0, 3.0, 4.0, 5.0):
        jump = abs(float(f(junction - 1e-12)) - float(f(junction + 1e-12)))
        if jump > 1e-5:
            raise ValidationFailed("continuity")


def build_profile(eps: float) -> ProfileFunction:
    """Construct the cusp profile and validate its defining conditions."""
    f = ProfileFunction(eps)
    _validate_profile(f)
    return f


def _grid_size(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"theta_grid must be an integer >= 1, got {n!r}")
    return int(n)


def cylinder_potential(profile: ProfileFunction, ys, theta_grid: int = 100000) -> np.ndarray:
    """inf over the circle of profile(theta) + cost((theta, 0), y), per target.

    ``ys`` is a finite (k, 2) array of targets at times >= 0, time last, as
    for :meth:`SpacetimeModel.cost_matrix` (a ``ValueError`` names the first
    bad row); returns the k values. Each infimum is taken over theta_grid
    equispaced angles plus the target's own angle (the only causal source when
    y lies on the slice t=0), then refined by ternary search around the grid
    argmin to width 1e-10. All k searches run in lockstep, each until its own
    width is reached.
    """
    theta_grid = _grid_size(theta_grid)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != 2:
        raise ValueError(f"targets must form a (k, 2) array, got shape {ys.shape}")
    bad = np.flatnonzero(~np.isfinite(ys).all(axis=1) | (ys[:, 1] < 0))
    if len(bad):
        raise ValueError(f"target row {bad[0]} must be finite at time >= 0, got {ys[bad[0]].tolist()}")
    model = Cylinder(5.0)

    def objective(thetas, targets):
        # +inf outside the causal past; sources are reduced onto the circle
        xs = np.stack([model.normalize(thetas), np.zeros_like(thetas)], axis=-1)
        return profile(thetas) + model.costs(xs, targets)

    h = 5.0 / theta_grid
    grid = np.arange(theta_grid) * h
    vals = np.vstack([objective(grid[:, None], ys), objective(ys[:, 0], ys)])
    best = np.argmin(vals, axis=0)
    phi = vals[best, np.arange(len(ys))]
    theta = np.where(best < theta_grid, grid[best % theta_grid], ys[:, 0])
    lo, hi = theta - h, theta + h
    active = np.flatnonzero(np.isfinite(phi) & (hi - lo > 1e-10))
    while len(active):
        a, b = lo[active], hi[active]
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = objective(np.stack([m1, m2]), ys[active])
        left = f1 <= f2
        hi[active] = np.where(left, m2, b)
        lo[active] = np.where(left, a, m1)
        active = active[hi[active] - lo[active] > 1e-10]
    mid = objective((lo + hi) / 2.0, ys)
    return np.where(np.isfinite(phi) & (mid < phi), mid, phi)


def _slope(s):
    """u / sqrt(t**2 - u**2) in terms of s = u / t, so that t**2 never appears."""
    return s / np.sqrt(1.0 - s * s)


def subdifferential_field(profile: ProfileFunction, t: float, theta_grid: int):
    """Solve the critical-point equation of the potential's subdifferential.

    For each theta on a cell-centered grid (which provably never hits the
    cusp at 2), find the displacement u in (-t, t) with
    u / sqrt(t**2 - u**2) = profile'(theta). In s = u / t the equation reads
    s / sqrt(1 - s**2) = profile'(theta), whose solution is
    s = profile' / sqrt(1 + profile'**2); u = t * s, so tiny t cannot
    underflow. The matched target is y_theta = (theta + u, t).

    A grid point is skipped, with u = NaN, when profile' there is not finite
    or exceeds in modulus the slope at |s| = 1 - 1e-14 (about 7.07e6).

    Returns (thetas, fp, u, skipped): fp holds profile' on the grid, and
    skipped counts the skipped points (reported, never silently dropped).
    """
    if not sys.float_info.min <= t <= 1.0:
        # below the normal range u = t * s keeps too few bits, and u + t rounds to 0
        raise ValueError(f"t must lie in [{sys.float_info.min!r}, 1], got {t!r}")
    N = _grid_size(theta_grid)
    thetas = (np.arange(N) + 0.5) * (5.0 / N)
    fp = profile.derivative(thetas)
    ok = np.abs(fp) <= _slope(1.0 - 1e-14)  # false on NaN
    u = np.full(N, np.nan)
    u[ok] = t * (fp[ok] / np.hypot(1.0, fp[ok]))
    return thetas, fp, u, N - int(np.count_nonzero(ok))


def run_cylinder_example(eps: float, theta_grid: int, t: float,
                         etas=(0.1, 0.05, 0.01)) -> ExperimentReport:
    """Measure how close the cylinder transport comes to the light cone.

    For every source (theta, 0) on a grid avoiding the cusp, the matched
    target y_theta at time t is computed from the critical-point equation.
    Reported and asserted:

    (a) for each threshold eta, the measure of sources whose cone margin is
        below eta -- positive, because the profile's derivative diverges at
        the cusp and drags the transport onto the cone;
    (b) the minimum distance from the trailing cone point (theta - t, t) to
        y_theta -- positive on any finite grid; the distance to the leading
        cone point (theta + t, t) is reported too, and that one stays
        bounded away from zero uniformly in the grid.
    """
    profile = build_profile(eps)
    thetas, fp, u, skipped = subdifferential_field(profile, t, theta_grid)
    ok = np.isfinite(u)
    margins = t - np.abs(u[ok])

    report = ExperimentReport(name="cylinder-example")
    report.scalars["eps"] = ScalarResult(eps)
    report.scalars["t"] = ScalarResult(t)
    report.scalars["skipped_thetas"] = ScalarResult(float(skipped))
    for eta in etas:
        measure = 5.0 / len(thetas) * float(np.count_nonzero(margins < eta))
        _check(measure > 0, f"near-null set at eta={eta} has zero measure")
        report.scalars[f"near_null_measure_eta_{eta}"] = ScalarResult(
            measure, window=(np.nextafter(0.0, 1.0), 5.0)
        )
    circle = Cylinder(5.0)
    dist_trailing = np.abs(circle.displacement(0.0, u[ok] + t))
    dist_leading = np.abs(circle.displacement(0.0, u[ok] - t))
    delta = float(np.min(dist_trailing))
    _check(delta > 0, "transport touches the trailing cone point on the grid")
    report.scalars["delta_trailing_cone"] = ScalarResult(
        delta, window=(np.nextafter(0.0, 1.0), math.inf)
    )
    report.scalars["delta_leading_cone"] = ScalarResult(float(np.min(dist_leading)))
    resid = np.abs(fp[ok] - _slope(u[ok] / t))
    report.scalars["critical_equation_residual"] = ScalarResult(float(np.max(resid)))

    # the potential's modulus of continuity across the cusp image, reported
    # only: |phi(2+h) - phi(2-h)| / sqrt(h) over dyadic offsets
    hs = 2.0 ** -np.arange(3, 11)
    cusp = np.column_stack([np.concatenate([2.0 + hs, 2.0 - hs]), np.full(2 * len(hs), t)])
    phi = cylinder_potential(profile, cusp, 4000)
    modulus = np.max(np.abs(phi[:len(hs)] - phi[len(hs):]) / np.sqrt(hs))
    report.scalars["potential_sqrt_modulus_at_cusp"] = ScalarResult(float(modulus))

    theta = thetas[ok]
    report.tables["subdifferential"] = np.rec.fromarrays(
        [theta, (theta + u[ok]) % 5.0, margins], names="theta,y_theta,margin"
    )
    return report
