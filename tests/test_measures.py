import json

import numpy as np
import pytest

from lorot.errors import BadGrid, SchemaError
from lorot.measures import (
    DiscreteMeasure,
    grid_segment,
    measure_from_json,
    strictify,
)
from lorot.spacetime import Cylinder, Minkowski

MK1 = Minkowski(1)


def pt(model, *coords):
    return model.make_point(coords[:-1], coords[-1])


class TestGridSegment:
    def test_three_atoms(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 3)
        assert [p.spatial[0] for p in m.points] == [0.0, 0.5, 1.0]
        assert all(w == pytest.approx(1 / 3) for w in m.weights)

    def test_two_atoms(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 2)
        assert [p.spatial[0] for p in m.points] == [0.0, 1.0]
        assert m.weights == (0.5, 0.5)

    def test_slice_spacing(self):
        m = grid_segment(MK1, pt(MK1, 1, 1), pt(MK1, 2, 1), 5)
        xs = [p.spatial[0] for p in m.points]
        assert xs == [1.0, 1.25, 1.5, 1.75, 2.0]
        assert all(p.time == 1.0 for p in m.points)

    def test_endpoints_exact(self):
        m = grid_segment(MK1, pt(MK1, 0.1, -0.3), pt(MK1, 0.7, 1.1), 7)
        assert m.points[0] == pt(MK1, 0.1, -0.3)
        assert m.points[-1] == pt(MK1, 0.7, 1.1)

    def test_bad_grid(self):
        with pytest.raises(BadGrid):
            grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 1)
        with pytest.raises(BadGrid):
            grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 0, 0), 3)


def push(m, mapping):
    """Image of m under a point map, built the way interpolate and restrict
    push a coupling's entries forward: equal images merge."""
    measure, index = DiscreteMeasure.from_arrays(
        [mapping(p).coords() for p in m.points], m.weights_array()
    )
    return measure, index.tolist()


class TestPushforward:
    def test_shift_map(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 3)
        shifted, index = push(m, lambda p: MK1.make_point([p.spatial[0] + 1], p.time + 1))
        assert [p.coords() for p in shifted.points] == [(1.0, 1.0), (1.5, 1.0), (2.0, 1.0)]
        assert shifted.weights == m.weights
        assert index == [0, 1, 2]

    def test_identity(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 4)
        assert push(m, lambda p: p) == (m, [0, 1, 2, 3])

    def test_constant_map_merges(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 5)
        target = pt(MK1, 0, 9)
        collapsed, index = push(m, lambda p: target)
        assert collapsed.n_atoms == 1
        assert collapsed.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert index == [0] * 5

    def test_mass_preserved(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 9)
        out, index = push(m, lambda p: MK1.make_point([p.spatial[0] ** 2], p.time))
        assert float(np.sum(out.weights_array())) == pytest.approx(1.0, abs=1e-12)
        # x -> x**2 keeps the order of [0, 1], so atom k lands on atom k
        assert index == list(range(9))


class TestStrictify:
    def test_single_atom(self):
        m = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        out = strictify(MK1, m, 0.1)
        assert out.points[0] == pt(MK1, 0, -0.1)

    def test_tiny_eps_near_identity(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 3)
        out = strictify(MK1, m, 1e-15)
        for p, q in zip(m.points, out.points):
            assert p.spatial == q.spatial
            assert abs(p.time - q.time) <= 1e-14

    def test_flow_additivity_dyadic(self):
        m = grid_segment(MK1, pt(MK1, 0, 0.5), pt(MK1, 1, 0.5), 4)
        once = strictify(MK1, m, 0.25)
        twice = strictify(MK1, strictify(MK1, m, 0.125), 0.125)
        assert once == twice

    def test_margin_shift_exact_dyadic(self):
        mu = DiscreteMeasure.from_atoms([(pt(MK1, 0.25, 0.0), 1.0)])
        y = pt(MK1, 0.75, 1.5)
        before = MK1.cone_margin(mu.points[0], y)
        after = MK1.cone_margin(strictify(MK1, mu, 0.5).points[0], y)
        assert after == before + 0.5

    def test_margin_shift_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = pt(MK1, rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = pt(MK1, rng.uniform(-1, 1), x.time + rng.uniform(0, 2))
            eps = rng.uniform(0.01, 0.5)
            m = DiscreteMeasure.from_atoms([(x, 1.0)])
            shifted = strictify(MK1, m, eps).points[0]
            assert MK1.cone_margin(shifted, y) == pytest.approx(
                MK1.cone_margin(x, y) + eps, abs=1e-12
            )

    def test_eps_validation(self):
        m = DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 1.0)])
        with pytest.raises(ValueError):
            strictify(MK1, m, 0.0)


class TestInvariants:
    def test_canonical_order(self):
        a = pt(MK1, 1.0, 0.0)
        b = pt(MK1, 0.0, 1.0)
        c = pt(MK1, 0.0, 0.0)
        m = DiscreteMeasure.from_atoms([(a, 0.25), (b, 0.5), (c, 0.25)])
        assert m.points == (c, b, a)

    def test_duplicates_merge_exactly(self):
        p = pt(MK1, 0.1, 0.2)
        q = pt(MK1, 0.1 + 1e-16, 0.2)  # distinct float stays a distinct atom
        m = DiscreteMeasure.from_atoms([(p, 0.3), (p, 0.3), (pt(MK1, 1, 1), 0.4)])
        assert m.n_atoms == 2
        assert m.weights[0] == pytest.approx(0.6)
        if q.spatial != p.spatial:
            m2 = DiscreteMeasure.from_atoms([(p, 0.5), (q, 0.5)])
            assert m2.n_atoms == 2

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), 0.9)])
        with pytest.raises(ValueError):
            DiscreteMeasure.from_atoms([(pt(MK1, 0, 0), -0.5), (pt(MK1, 1, 0), 1.5)])
        with pytest.raises(ValueError):
            DiscreteMeasure.from_atoms([])


class TestJson:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(29)
        atoms = [
            (pt(MK1, 0.1, 1 / 3), 0.1),
            (pt(MK1, -2.5e-7, 0.7), 0.2),
            (pt(MK1, np.pi, 1e300), 0.7),
        ]
        m = DiscreteMeasure.from_atoms(atoms)
        text = json.dumps(m.to_json_obj())
        back = measure_from_json(MK1, json.loads(text))
        assert back == m
        for _ in range(50):
            pts = rng.uniform(-10, 10, size=(4, 2))
            w = rng.dirichlet(np.ones(4))
            m = DiscreteMeasure.from_atoms(
                [(pt(MK1, *pts[i]), w[i]) for i in range(4)]
            )
            back = measure_from_json(MK1, json.loads(json.dumps(m.to_json_obj())))
            assert back == m

    def test_cylinder_normalization_on_load(self):
        cyl = Cylinder(5.0)
        obj = {"atoms": [{"x": [6.0], "t": 0.0, "w": 1.0}]}
        m = measure_from_json(cyl, obj)
        assert m.points[0].spatial[0] == 1.0

    def test_schema_errors(self):
        for obj in (
            {},
            {"atoms": []},
            {"atoms": [{"x": [0.0], "t": 0.0}]},
            {"atoms": [{"x": [0.0], "t": 0.0, "w": 0.0}]},
            {"atoms": [{"x": [0.0], "t": float("nan"), "w": 1.0}]},
            {"atoms": [{"x": "zero", "t": 0.0, "w": 1.0}]},
            # JSON true and false are not numbers, though bool subclasses int
            {"atoms": [{"x": [True], "t": 0.0, "w": 1.0}]},
            {"atoms": [{"x": [0.0], "t": False, "w": 1.0}]},
            {"atoms": [{"x": [0.0], "t": 0.0, "w": True}]},
            {"atoms": [{"x": [True], "t": False, "w": True}]},
        ):
            with pytest.raises(SchemaError):
                measure_from_json(MK1, obj)


class TestFromArrays:
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_merge_onto_the_first_occurrence(self, first, second):
        m, index = DiscreteMeasure.from_arrays([[first, 1.0], [second, 1.0]], [0.25, 0.75])
        assert index.tolist() == [0, 0]
        assert m.weights == (1.0,)
        assert np.signbit(m.coords_array()[0, 0]) == np.signbit(first)
        assert m == DiscreteMeasure.from_atoms([(pt(MK1, second, 1.0), 1.0)])

    def test_first_occurrence_among_later_rows(self):
        # the duplicate of the second row comes last; weights add in input order
        m, index = DiscreteMeasure.from_arrays(
            [[1.0, 0.0], [-0.0, 0.0], [0.5, 0.0], [0.0, 0.0]], [0.1, 0.2, 0.3, 0.4]
        )
        assert index.tolist() == [2, 0, 1, 0]
        assert np.signbit(m.coords_array()[0, 0])
        assert m.weights == (0.2 + 0.4, 0.3, 0.1)

    def test_stored_arrays_are_read_only_and_not_rebuilt(self):
        source = np.array([[0.0, 0.0], [1.0, 0.0]])
        m, _ = DiscreteMeasure.from_arrays(source, [0.5, 0.5])
        source[0, 0] = 7.0
        assert m.coords_array() is m.coords_array()
        assert m.coords_array()[0, 0] == 0.0
        for array in (m.coords_array(), m.weights_array()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_points_and_weights_are_python_values(self):
        m = grid_segment(MK1, pt(MK1, 0, 0), pt(MK1, 1, 0), 3)
        assert all(type(c) is float for p in m.points for c in p.coords())
        assert all(type(w) is float for w in m.weights)
        assert m.points[1] == pt(MK1, 0.5, 0.0)
