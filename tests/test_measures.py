import json

import numpy as np
import pytest

from lorot.errors import BadGrid, SchemaError
from lorot.experiments import line_blowup_problem
from lorot.measures import (
    DiscreteMeasure,
    _is_number,
    grid_segment,
    measure_from_json,
    strictify,
)
from lorot.spacetime import Cylinder, Minkowski, SpacetimeModel

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
            # JSON integers past binary64: float() overflows
            {"atoms": [{"x": [10**400], "t": 0.0, "w": 1.0}]},
            {"atoms": [{"x": [0.0], "t": -10**400, "w": 1.0}]},
            {"atoms": [{"x": [0.0], "t": 0.0, "w": 10**400}]},
        ):
            with pytest.raises(SchemaError):
                measure_from_json(MK1, obj)

    def test_integers_past_int64_read_as_floats(self):
        as_int = measure_from_json(MK1, {"atoms": [{"x": [-10**20], "t": 10**20, "w": 1}]})
        as_float = measure_from_json(MK1, {"atoms": [{"x": [-1e20], "t": 1e20, "w": 1.0}]})
        assert as_int.coords_array().tobytes() == as_float.coords_array().tobytes()
        assert as_int.points == as_float.points


def reference_measure_from_json(model, obj):
    """The reader as it stood when every atom went through ``make_point``."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise SchemaError("measure must be an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError("empty measure")
    rows, weights = [], []
    for a in atoms:
        if not isinstance(a, dict) or not {"x", "t", "w"} <= set(a):
            raise SchemaError("each atom needs 'x', 't' and 'w' fields")
        x, t, w = a["x"], a["t"], a["w"]
        if not isinstance(x, list) or not all(_is_number(c) for c in x):
            raise SchemaError("atom 'x' must be a list of numbers")
        if not _is_number(t) or not _is_number(w):
            raise SchemaError("atom 't' and 'w' must be numbers")
        try:  # a JSON integer may fit no int64, or no binary64 (OverflowError)
            x, t, w = [float(c) for c in x], float(t), float(w)
            finite = np.isfinite(x).all() and np.isfinite([t, w]).all()
        except OverflowError:
            finite = False
        if not finite:
            raise SchemaError("atom coordinates and weight must be finite")
        if not w > 0:
            raise SchemaError("atom weight must be positive")
        try:
            rows.append(model.make_point(x, t).coords())
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        weights.append(float(w))
    try:
        return DiscreteMeasure.from_arrays(rows, weights)[0]
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


FUZZ_MODELS = (Minkowski(1), Minkowski(2), Cylinder(5.0))
# values no atom may hold, and numbers at the edges of what one may
FAULTS = (True, False, None, "1", [0.0], float("nan"), float("inf"), -float("inf"),
          10**400, -10**400)
EDGES = (10**20, -10**20, -0.0, 0, 7, 5.0, -5.0, -1e-17, 12.5, 1e300)


def fuzz_value(rng, fault_rate):
    r = rng.random()
    if r < fault_rate:
        return FAULTS[rng.integers(len(FAULTS))]
    if r < fault_rate + 0.15:
        return EDGES[rng.integers(len(EDGES))]
    return float(rng.uniform(-7.0, 7.0))


def fuzz_measure(rng, model):
    """A JSON measure of 1-5 atoms, mostly well formed, with faults mixed in:
    non-numbers, non-finite or oversized numbers, wrong-length ``x``,
    missing fields, repeated events and weights that miss a total of 1."""
    n = int(rng.integers(1, 6))
    fault_rate = (0.0, 0.02, 0.1)[rng.integers(3)]
    weights = rng.dirichlet(np.ones(n)).tolist()
    if rng.random() < 0.1:
        weights[rng.integers(n)] *= 2.0
    atoms = []
    for w in weights:
        if atoms and rng.random() < 0.15:  # the same event again
            atoms.append(dict(atoms[-1], w=w))
            continue
        d = model.spatial_dim + (int(rng.integers(-1, 2)) if rng.random() < 0.05 else 0)
        atom = {"x": [fuzz_value(rng, fault_rate) for _ in range(d)],
                "t": fuzz_value(rng, fault_rate),
                "w": fuzz_value(rng, fault_rate / 2) if rng.random() < fault_rate else w}
        if rng.random() < 0.02:
            del atom[("x", "t", "w")[rng.integers(3)]]
        atoms.append(atom)
    return {"atoms": atoms}


def read_outcome(reader, model, obj):
    """The coordinate and weight bytes a reader returns, or what it raises."""
    try:
        m = reader(model, obj)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)
    return m.coords_array().tobytes(), m.weights_array().tobytes()


class TestReaderAgainstReference:
    def test_fuzz_matches_reference(self):
        rng = np.random.default_rng(2020)
        outcomes = set()
        for k in range(6000):
            model = FUZZ_MODELS[k % 3]
            obj = fuzz_measure(rng, model)
            expected = read_outcome(reference_measure_from_json, model, obj)
            assert read_outcome(measure_from_json, model, obj) == expected, (model, obj)
            outcomes.add(expected[0] if isinstance(expected[0], type) else "read")
        # the set reaches success and both error paths, not one of them only
        assert outcomes == {"read", SchemaError}

    def test_wrapper_faults_match_reference(self):
        for obj in (None, [], {}, {"atoms": None}, {"atoms": []}, {"atoms": [1.0]},
                    {"atoms": {"x": [0.0], "t": 0.0, "w": 1.0}}):
            expected = read_outcome(reference_measure_from_json, MK1, obj)
            assert read_outcome(measure_from_json, MK1, obj) == expected

    def test_dimension_message_is_make_points(self):
        for model in FUZZ_MODELS:
            for k in (0, model.spatial_dim + 1):
                with pytest.raises(ValueError) as expected:
                    model.make_point([0.5] * k, 0.0)
                with pytest.raises(SchemaError) as got:
                    measure_from_json(model, {"atoms": [{"x": [0.5] * k, "t": 0.0, "w": 1.0}]})
                assert str(got.value) == str(expected.value)

    def test_reads_without_make_point(self, monkeypatch):
        line = line_blowup_problem(400).mu.to_json_obj()
        angles = [-1e-17, -2.5, 0.0, 4.75, 5.0, 7.5, 12.25, -7.0]
        cylinder = {"atoms": [{"x": [a], "t": 0.125 * k, "w": 0.125}
                              for k, a in enumerate(angles)]}
        cases = [(MK1, line), (Cylinder(5.0), cylinder)]
        expected = [reference_measure_from_json(model, obj) for model, obj in cases]

        def refuse(self, spatial, time):
            raise AssertionError("the reader built a Point")

        monkeypatch.setattr(SpacetimeModel, "make_point", refuse)
        for (model, obj), want in zip(cases, expected):
            got = measure_from_json(model, obj)
            assert got.coords_array().tobytes() == want.coords_array().tobytes()
            assert got.weights_array().tobytes() == want.weights_array().tobytes()
        assert expected[0].n_atoms == 400
        assert (expected[1].coords_array()[:, 0] < 5.0).all()


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
