"""Finite atomic probability measures on a model spacetime.

A :class:`DiscreteMeasure` holds a read-only ``(n, d+1)`` coordinate array
(time last) and a read-only array of positive weights summing to one.
:meth:`DiscreteMeasure.from_arrays` merges atoms at exactly equal coordinates
and sorts them lexicographically, so two measures with the same atoms compare
equal and serialize identically. ``points`` and ``weights`` build
:class:`Point` objects and Python floats on access, for the API edge.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadGrid, SchemaError
from .spacetime import Point, SpacetimeModel, _points

MASS_TOL = 1e-12


class DiscreteMeasure:
    """Validated atoms, kept in the given order; see :meth:`from_arrays`."""

    def __init__(self, coords, weights):
        coords, weights = np.array(coords, dtype=float), np.array(weights, dtype=float)
        if coords.ndim != 2 or len(coords) == 0 or weights.shape != coords.shape[:1]:
            raise ValueError("need n >= 1 coordinate rows (time last) and one weight per row")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        if not (weights > 0).all():
            raise ValueError("weights must be positive")
        total = float(np.sum(weights))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights must sum to 1 within {MASS_TOL}, got {total!r}")
        coords.setflags(write=False)
        weights.setflags(write=False)
        self._coords, self._weights = coords, weights

    @classmethod
    def from_arrays(cls, coords, weights):
        """Canonical measure of the rows of ``coords`` weighted by ``weights``.

        Rows are sorted lexicographically, spatial coordinates first and time
        last. Equal rows merge onto their first input occurrence, and their
        weights add in input order. Returns ``(measure, index)``, where
        ``index[k]`` is the atom row k landed on.
        """
        coords = np.asarray(coords, dtype=float)
        if not len(coords):
            raise ValueError("measure must have at least one atom")
        order = np.lexsort(coords.T[::-1])
        ranked = coords[order]
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        index = np.empty(len(ranked), dtype=np.int64)
        index[order] = np.cumsum(first) - 1
        merged = np.bincount(index, weights=np.asarray(weights, dtype=float))
        return cls(ranked[first], merged), index

    @classmethod
    def from_atoms(cls, atoms) -> "DiscreteMeasure":
        """Build from (point, weight) pairs: merge duplicates, sort canonically."""
        atoms = list(atoms)
        return cls.from_arrays([p.coords() for p, _ in atoms], [w for _, w in atoms])[0]

    @property
    def n_atoms(self) -> int:
        return len(self._weights)

    @property
    def points(self) -> tuple[Point, ...]:
        return _points(self._coords)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self._weights.tolist())

    def coords_array(self) -> np.ndarray:
        """Coordinates as a read-only (n, d+1) array, time last."""
        return self._coords

    def weights_array(self) -> np.ndarray:
        return self._weights

    def __reduce__(self):  # through __init__, so the arrays come back read-only
        return DiscreteMeasure, (self._coords, self._weights)

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (np.array_equal(self._coords, other._coords)
                and np.array_equal(self._weights, other._weights))

    def __hash__(self):
        return hash((self.points, self.weights))

    def __repr__(self):
        return f"DiscreteMeasure(points={self.points!r}, weights={self.weights!r})"

    def to_json_obj(self) -> dict:
        return {
            "atoms": [
                {"x": row[:-1], "t": row[-1], "w": w}
                for row, w in zip(self._coords.tolist(), self._weights.tolist())
            ]
        }


def _is_number(value) -> bool:
    """A JSON number: ``true`` and ``false`` are not (``bool`` subclasses ``int``)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def measure_from_json(model: SpacetimeModel, obj: dict) -> DiscreteMeasure:
    """Check each JSON atom in plain Python, then normalize all spatial columns at once."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise SchemaError("measure must be an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError("empty measure")
    d, rows = model.spatial_dim, []
    for a in atoms:
        if not isinstance(a, dict) or not {"x", "t", "w"} <= set(a):
            raise SchemaError("each atom needs 'x', 't' and 'w' fields")
        x, t, w = a["x"], a["t"], a["w"]
        if not isinstance(x, list) or not all(_is_number(c) for c in x):
            raise SchemaError("atom 'x' must be a list of numbers")
        if not _is_number(t) or not _is_number(w):
            raise SchemaError("atom 't' and 'w' must be numbers")
        try:  # a JSON integer may fit no int64, or no binary64 (OverflowError)
            row = [float(c) for c in x] + [float(t), float(w)]
        except OverflowError:
            row = [math.inf]
        if not all(map(math.isfinite, row)):
            raise SchemaError("atom coordinates and weight must be finite")
        if not row[-1] > 0:
            raise SchemaError("atom weight must be positive")
        if len(x) != d:  # the message of SpacetimeModel.make_point
            raise SchemaError(f"expected {d} spatial coordinates, got {len(x)}")
        rows.append(row)
    table = np.array(rows)
    table[:, :-2] = model.normalize(table[:, :-2])
    try:
        return DiscreteMeasure.from_arrays(table[:, :-1], table[:, -1])[0]
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def grid_segment(model: SpacetimeModel, start: Point, end: Point, n: int) -> DiscreteMeasure:
    """n equally weighted atoms on the segment from start to end.

    Atoms sit at the endpoint grid ``start + i/(n-1) * (end - start)`` for
    ``i = 0..n-1`` (spacing ``1/(n-1)``), interpolated in the stored
    coordinates. Raises :class:`BadGrid` for n < 2.
    """
    if n < 2:
        raise BadGrid(f"grid needs at least 2 atoms, got {n}")
    if start == end:
        raise BadGrid("grid endpoints must differ")
    s = (np.arange(n) / (n - 1))[:, None]
    coords = (1.0 - s) * np.array(start.coords()) + s * np.array(end.coords())
    coords[:, :-1] = model.normalize(coords[:, :-1])
    return DiscreteMeasure.from_arrays(coords, np.full(n, 1.0 / n))[0]


def strictify(model: SpacetimeModel, m: DiscreteMeasure, eps: float) -> DiscreteMeasure:
    """Flow every atom backwards in time by eps.

    Shifting the source measure of a causal pair down in time increases every
    cone margin by exactly eps, turning lightlike transport into timelike
    transport with a uniform margin.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    coords = m.coords_array().copy()
    coords[:, -1] -= eps
    return DiscreteMeasure.from_arrays(coords, m.weights_array())[0]
