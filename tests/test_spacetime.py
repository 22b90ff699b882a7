import math

import numpy as np
import pytest

from lorot.diagnostics import class_fractions
from lorot.errors import Infeasible, NotCausalPair
from lorot.measures import DiscreteMeasure
from lorot.solver import Coupling, TransportProblem, solve
from lorot.spacetime import (
    CausalClass,
    Cylinder,
    Minkowski,
    model_from_config,
)
from lorot.transport import interpolate

MK1 = Minkowski(1)
MK2 = Minkowski(2)
CYL = Cylinder(5.0)


def pt(model, *coords):
    return model.make_point(coords[:-1], coords[-1])


def winding_cost_oracle(circumference, x, y):
    """Minimal cost over explicit winding representatives of the displacement."""
    dtau = y.time - x.time
    best = math.inf
    for k in range(-2, 3):
        dth = abs(y.spatial[0] - x.spatial[0] + k * circumference)
        if dtau >= dth:
            best = min(best, -math.sqrt(dtau * dtau - dth * dth))
    return best


class TestCost:
    def test_pure_time_displacement(self):
        assert MK1.cost(pt(MK1, 0, 0), pt(MK1, 0, 1)) == -1.0

    def test_null_boundary(self):
        c = MK1.cost(pt(MK1, 0, 0), pt(MK1, 1, 1))
        assert math.isfinite(c) and c == 0.0

    def test_cylinder_winding_minimal(self):
        x, y = pt(CYL, 4, 0), pt(CYL, 0, 3)
        expected = winding_cost_oracle(5.0, x, y)
        assert expected == -math.sqrt(8)
        assert CYL.cost(x, y) == pytest.approx(expected, abs=1e-15)

    def test_cylinder_matches_winding_oracle_randomly(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = pt(CYL, rng.uniform(0, 5), rng.uniform(-1, 1))
            y = pt(CYL, rng.uniform(0, 5), x.time + rng.uniform(0, 4))
            expected = winding_cost_oracle(5.0, x, y)
            got = CYL.cost(x, y)
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_self_cost_zero(self):
        for model, p in [(MK1, pt(MK1, 0.37, -1.2)), (CYL, pt(CYL, 4.9, 2.0))]:
            c = model.cost(p, p)
            assert math.isfinite(c) and c == 0.0

    def test_spacelike_infinite(self):
        assert not math.isfinite(MK1.cost(pt(MK1, 0, 0), pt(MK1, 2, 1)))
        assert not math.isfinite(MK1.cost(pt(MK1, 0, 0), pt(MK1, 0, -1)))


class TestCausalClass:
    def test_examples(self):
        assert MK1.causal_class(pt(MK1, 0, 0), pt(MK1, 0, 2)) is CausalClass.CHRONOLOGICAL
        assert MK1.causal_class(pt(MK1, 0, 0), pt(MK1, 2, 1)) is CausalClass.NOT_CAUSAL
        assert MK1.causal_class(pt(MK1, 0, 0), pt(MK1, 0, 0)) is CausalClass.IDENTICAL
        assert MK1.causal_class(pt(MK1, 0, 0), pt(MK1, 1, 1)) is CausalClass.NULL

    def test_consistent_with_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = pt(MK2, *rng.uniform(-2, 2, 3))
            y = pt(MK2, *rng.uniform(-2, 2, 3))
            cls = MK2.causal_class(x, y)
            c = MK2.cost(x, y)
            if cls is CausalClass.NOT_CAUSAL:
                assert not math.isfinite(c)
            elif cls is CausalClass.NULL:
                assert c == 0.0 and x != y
            elif cls is CausalClass.IDENTICAL:
                assert c == 0.0 and x == y
            else:
                assert math.isfinite(c) and c < 0


class TestConeMargin:
    def test_examples(self):
        assert MK1.cone_margin(pt(MK1, 0, 0), pt(MK1, 0, 1)) == 1.0
        assert MK1.cone_margin(pt(MK1, 0, 0), pt(MK1, 1, 1)) == 0.0
        assert MK1.cone_margin(pt(MK1, 0, 0), pt(MK1, 3, 1)) == -2.0

    def test_sign_matches_class(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            x = pt(MK1, rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = pt(MK1, rng.uniform(-2, 2), rng.uniform(-2, 2))
            margin = MK1.cone_margin(x, y)
            cls = MK1.causal_class(x, y)
            if margin > 1e-12:
                assert cls is CausalClass.CHRONOLOGICAL
            elif margin < -1e-12:
                assert cls is CausalClass.NOT_CAUSAL
            else:
                assert cls in (CausalClass.NULL, CausalClass.IDENTICAL)


class TestGeodesic:
    def test_midpoint(self):
        g = MK1.geodesic_point(pt(MK1, 0, 0), pt(MK1, 0, 2), 0.5)
        assert g == pt(MK1, 0, 1)

    def test_null_line(self):
        g = MK1.geodesic_point(pt(MK1, 0, 0), pt(MK1, 1, 1), 0.25)
        assert g == pt(MK1, 0.25, 0.25)

    def test_cylinder_winding_chord(self):
        g = CYL.geodesic_point(pt(CYL, 4, 0), pt(CYL, 0, 3), 1 / 3)
        assert g.time == 1.0
        assert g.spatial[0] == pytest.approx((4 + 1 / 3) % 5, abs=1e-12)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(5)
        for model in (MK1, MK2, CYL):
            for _ in range(100):
                d = model.spatial_dim
                x = model.make_point(rng.uniform(-2, 2, d), rng.uniform(-1, 1))
                y = model.make_point(
                    np.asarray(x.spatial) + rng.uniform(-0.5, 0.5, d),
                    x.time + rng.uniform(1, 2),
                )
                assert model.geodesic_point(x, y, 0.0) == x
                assert model.geodesic_point(x, y, 1.0) == y

    def test_time_affine(self):
        x, y = pt(MK2, 0.3, -0.4, 0.1), pt(MK2, 0.7, 0.2, 1.7)
        for t in np.linspace(0, 1, 17):
            g = MK2.geodesic_point(x, y, t)
            assert g.time == (1 - t) * x.time + t * y.time

    def test_reverse_triangle_equality_on_segments(self):
        rng = np.random.default_rng(13)
        for model in (MK1, MK2, CYL):
            d = model.spatial_dim
            for _ in range(200):
                x = model.make_point(rng.uniform(-2, 2, d), rng.uniform(-1, 1))
                y = model.make_point(
                    np.asarray(x.spatial) + rng.uniform(-0.6, 0.6, d),
                    x.time + rng.uniform(1.0, 2.0),
                )
                t = rng.uniform(0, 1)
                g = model.geodesic_point(x, y, t)
                lhs = model.cost(x, g) + model.cost(g, y)
                assert lhs == pytest.approx(model.cost(x, y), abs=1e-12)

    def test_null_segment_additivity_exact(self):
        x, y = pt(MK1, 0, 0), pt(MK1, 2, 2)
        for t in (0.25, 0.5, 0.75):
            g = MK1.geodesic_point(x, y, t)
            assert MK1.cost(x, g) + MK1.cost(g, y) == 0.0

    def test_not_causal_raises(self):
        with pytest.raises(NotCausalPair):
            MK1.geodesic_point(pt(MK1, 0, 0), pt(MK1, 3, 1), 0.5)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            MK1.geodesic_point(pt(MK1, 0, 0), pt(MK1, 0, 1), 1.5)


def random_causal_pair(model, rng, base=None):
    d = model.spatial_dim
    if base is None:
        base = model.make_point(rng.uniform(-2, 2, d), rng.uniform(-1, 1))
    step = rng.uniform(-1, 1, d)
    # winding-minimal on the cylinder
    dist = float(np.linalg.norm(model.displacement(np.zeros(d), step)))
    # mix strictly timelike and exactly null displacements
    if rng.random() < 0.2:
        dt = dist
    else:
        dt = dist + rng.uniform(0, 1.5)
    target = model.make_point(np.asarray(base.spatial) + step, base.time + dt)
    return base, target


class TestReverseTriangleInequality:
    def test_random_triples(self):
        rng = np.random.default_rng(17)
        for model in (MK1, MK2, CYL):
            for _ in range(3400):
                x, y = random_causal_pair(model, rng)
                y, z = random_causal_pair(model, rng, base=y)
                cxz = model.cost(x, z)
                assert math.isfinite(cxz)
                assert cxz <= model.cost(x, y) + model.cost(y, z) + 1e-12


class TestTauMonotonicity:
    def test_finite_cost_implies_time_increase(self):
        rng = np.random.default_rng(19)
        for model in (MK1, MK2, CYL):
            for _ in range(1000):
                d = model.spatial_dim
                x = model.make_point(rng.uniform(-2, 2, d), rng.uniform(-2, 2))
                y = model.make_point(rng.uniform(-2, 2, d), rng.uniform(-2, 2))
                if x != y and math.isfinite(model.cost(x, y)):
                    assert y.time > x.time


class TestCylinderConventions:
    def test_shift_by_circumference_invariant(self):
        x = pt(CYL, 1.25, 0.0)
        x_shifted = CYL.make_point([1.25 + 5.0], 0.0)
        assert x == x_shifted
        y = pt(CYL, 3.5, 4.0)
        assert CYL.cost(x, y) == CYL.cost(x_shifted, y)

    def test_normalization_range(self):
        assert CYL.make_point([-0.5], 0.0).spatial[0] == 4.5
        assert 0.0 <= CYL.make_point([7.3], 0.0).spatial[0] < 5.0

    def test_tiny_negative_coordinate_wraps_to_zero(self):
        # -1e-17 % 5.0 rounds to 5.0 itself, outside [0, C)
        x = CYL.make_point([-1e-17], 0.0)
        assert x == CYL.make_point([0.0], 0.0)
        assert 0.0 <= x.spatial[0] < CYL.circumference

    def test_negative_displacement_is_exact(self):
        # a difference just below 0 must not round at the scale of C
        assert CYL.displacement(0.0, -0.1) == -0.1
        assert CYL.displacement(0.0, -1e-17) == -1e-17

    def test_antipodal_distance(self):
        assert CYL.cone_margin(pt(CYL, 0, 0), pt(CYL, 2.5, 2.5)) == 0.0


def kernel_draw(model, rng, n=40):
    """n sources and 2n + 5 targets, many of them at the edges of the null band.

    The targets are n random points, n points built from the sources at
    margin -1e-12, 0 or +1e-12 plus a jitter of at most 4e-15, and five
    copies of sources (identical pairs).
    """
    d = model.spatial_dim
    xs = [model.make_point(rng.uniform(-2, 2, d), rng.uniform(-1, 1)) for _ in range(n)]
    ys = [model.make_point(rng.uniform(-2, 2, d), rng.uniform(-1, 2)) for _ in range(n)]
    for x in xs:
        step = rng.uniform(-1, 1, d)
        dist = float(np.linalg.norm(model.displacement(np.zeros(d), step)))
        edge = rng.choice([-1e-12, 0.0, 1e-12]) + rng.uniform(-4e-15, 4e-15)
        ys.append(model.make_point(np.asarray(x.spatial) + step, x.time + dist + edge))
    ys += xs[:5]
    return xs, ys


class TestOneKernel:
    """Scalar geometry, the all-pairs kernel and the diagnostics agree."""

    MODELS = (Minkowski(1), Minkowski(2), Minkowski(3), CYL)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
    def test_scalar_class_and_fractions_agree_with_kernel(self, model):
        rng = np.random.default_rng(2024)
        xs, ys = kernel_draw(model, rng)
        X = np.array([p.coords() for p in xs])
        Y = np.array([p.coords() for p in ys])
        dtau, dist = model.separation(X[:, None], Y[None, :])
        margins = dtau - dist
        costs = model.cost_matrix(X, Y)

        scalar_margins = np.array([[model.cone_margin(x, y) for y in ys] for x in xs])
        scalar_costs = np.array([[model.cost(x, y) for y in ys] for x in xs])
        for scalar, kernel in ((scalar_margins, margins), (scalar_costs, costs)):
            differ = np.count_nonzero(scalar.view(np.int64) != kernel.view(np.int64))
            assert differ == 0, f"{differ} of {kernel.size} pairs differ in their bits"
        near_edge = np.abs(np.abs(margins) - 1e-12) <= 4e-15
        assert near_edge.sum() >= 10

        classes = [[model.causal_class(x, y) for y in ys] for x in xs]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                c, cls = costs[i, j], classes[i][j]
                if x == y:
                    assert cls is CausalClass.IDENTICAL and c == 0.0
                elif c == math.inf:
                    assert cls is CausalClass.NOT_CAUSAL
                elif c == 0.0:
                    assert cls is CausalClass.NULL
                else:
                    assert c < 0.0 and cls is CausalClass.CHRONOLOGICAL

        # every causal pair on the support, with distinct integer masses so
        # that each class's mass sum is exact
        mu, mu_index = DiscreteMeasure.from_arrays([x.coords() for x in xs],
                                                   np.full(len(xs), 1.0 / len(xs)))
        nu, nu_index = DiscreteMeasure.from_arrays([y.coords() for y in ys],
                                                   np.full(len(ys), 1.0 / len(ys)))
        pairs = [(i, j) for i in range(len(xs)) for j in range(len(ys)) if costs[i, j] < math.inf]
        entries = [(mu_index[i], nu_index[j], float(k + 1)) for k, (i, j) in enumerate(pairs)]
        coupling = Coupling.from_entries(TransportProblem(model, mu, nu), entries)
        sums = {cls: 0.0 for cls in CausalClass}
        for k, (i, j) in enumerate(pairs):
            sums[classes[i][j]] += float(k + 1)
        total = sum(sums.values())
        assert class_fractions(model, coupling) == {
            "lightlike": sums[CausalClass.NULL] / total,
            "chronological": sums[CausalClass.CHRONOLOGICAL] / total,
            "identical": sums[CausalClass.IDENTICAL] / total,
        }


class TestBandEdgeRegressions:
    """Pairs a hair outside the null band, where per-pair and all-pairs
    arithmetic used to round differently."""

    ORIGIN = MK2.make_point([0.0, 0.0], 0.0)

    def problem(self, y):
        mu = DiscreteMeasure.from_atoms([(self.ORIGIN, 1.0)])
        nu = DiscreteMeasure.from_atoms([(y, 1.0)])
        return TransportProblem(MK2, mu, nu)

    def test_solved_null_arc_interpolates(self):
        y = MK2.make_point([2.427889057357545, 0.796402388924672], 2.5551716263132547)
        coupling, _ = solve(self.problem(y))
        assert coupling.total_cost == 0.0
        mid = interpolate(MK2, coupling, 0.5)
        assert mid.n_atoms == 1

    def test_class_cost_matrix_and_solve_agree(self):
        y = MK2.make_point([2.063153711037767, 2.234057086757288], 3.0409890335634704)
        x = self.ORIGIN
        causal = MK2.causal_class(x, y) is not CausalClass.NOT_CAUSAL
        assert math.isfinite(MK2.cost(x, y)) == causal
        C = MK2.cost_matrix(np.array([x.coords()]), np.array([y.coords()]))
        assert math.isfinite(C[0, 0]) == causal
        if causal:
            coupling, _ = solve(self.problem(y))
            assert coupling.total_cost == MK2.cost(x, y)
        else:
            with pytest.raises(Infeasible):
                solve(self.problem(y))


class TestModelConfig:
    def test_roundtrip(self):
        for model in (Minkowski(3), Cylinder(7.5)):
            assert model_from_config(model.to_config()) == model

    def test_bad_configs(self):
        from lorot.errors import SchemaError

        # JSON true and false are not numbers, though bool subclasses int
        for obj in ({}, {"kind": "klein"}, {"kind": "minkowski", "d": 0},
                    {"kind": "cylinder", "circumference": -1},
                    {"kind": "minkowski", "d": True}, {"kind": "minkowski", "d": False},
                    {"kind": "cylinder", "circumference": True}):
            with pytest.raises(SchemaError):
                model_from_config(obj)

    def test_make_point_validation(self):
        with pytest.raises(ValueError):
            MK2.make_point([1.0], 0.0)
        with pytest.raises(ValueError):
            MK1.make_point([math.nan], 0.0)
