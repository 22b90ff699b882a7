"""Finite atomic probability measures on a model spacetime.

A :class:`DiscreteMeasure` is a list of (point, weight) atoms with positive
weights summing to one. Atoms at exactly equal coordinates are merged on
construction and the atom order is canonical (lexicographic by coordinates),
so two measures with the same atoms compare equal and serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadGrid, SchemaError
from .spacetime import Point, SpacetimeModel

MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    points: tuple[Point, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("measure must have at least one atom")
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if any(not w > 0 for w in self.weights):
            raise ValueError("weights must be positive")
        total = float(np.sum(np.asarray(self.weights)))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights must sum to 1 within {MASS_TOL}, got {total!r}")

    @classmethod
    def from_atoms(cls, atoms) -> "DiscreteMeasure":
        """Build from (point, weight) pairs: merge duplicates, sort canonically."""
        measure, _ = cls.from_atoms_with_index_map(atoms)
        return measure

    @classmethod
    def from_atoms_with_index_map(cls, atoms):
        """Like :meth:`from_atoms` but also return the atom index each input
        pair landed on (useful when rebuilding couplings after a pushforward)."""
        atoms = list(atoms)
        merged: dict[Point, float] = {}
        for p, w in atoms:
            merged[p] = merged.get(p, 0.0) + float(w)
        order = sorted(merged, key=lambda p: p.key())
        index = {p: i for i, p in enumerate(order)}
        measure = cls(tuple(order), tuple(merged[p] for p in order))
        return measure, [index[p] for p, _ in atoms]

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    def coords_array(self) -> np.ndarray:
        """Coordinates as an (n, d+1) array, time last."""
        return np.array([p.coords() for p in self.points], dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def to_json_obj(self) -> dict:
        return {
            "atoms": [
                {"x": list(p.spatial), "t": p.time, "w": w}
                for p, w in zip(self.points, self.weights)
            ]
        }


def measure_from_json(model: SpacetimeModel, obj: dict) -> DiscreteMeasure:
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise SchemaError("measure must be an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError("empty measure")
    pairs = []
    for a in atoms:
        if not isinstance(a, dict) or not {"x", "t", "w"} <= set(a):
            raise SchemaError("each atom needs 'x', 't' and 'w' fields")
        x, t, w = a["x"], a["t"], a["w"]
        if not isinstance(x, list) or not all(isinstance(c, (int, float)) for c in x):
            raise SchemaError("atom 'x' must be a list of numbers")
        if not isinstance(t, (int, float)) or not isinstance(w, (int, float)):
            raise SchemaError("atom 't' and 'w' must be numbers")
        if not np.isfinite(x).all() or not np.isfinite([t, w]).all():
            raise SchemaError("atom coordinates and weight must be finite")
        if not w > 0:
            raise SchemaError("atom weight must be positive")
        try:
            pairs.append((model.make_point(x, t), float(w)))
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    try:
        return DiscreteMeasure.from_atoms(pairs)
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
    w = 1.0 / n
    atoms = []
    for i in range(n):
        s = i / (n - 1)
        spatial = tuple(
            (1.0 - s) * a + s * b for a, b in zip(start.spatial, end.spatial)
        )
        time = (1.0 - s) * start.time + s * end.time
        atoms.append((model.make_point(spatial, time), w))
    return DiscreteMeasure.from_atoms(atoms)


def strictify(model: SpacetimeModel, m: DiscreteMeasure, eps: float) -> DiscreteMeasure:
    """Flow every atom backwards in time by eps.

    Shifting the source measure of a causal pair down in time increases every
    cone margin by exactly eps, turning lightlike transport into timelike
    transport with a uniform margin.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return DiscreteMeasure.from_atoms(
        (model.make_point(p.spatial, p.time - eps), w)
        for p, w in zip(m.points, m.weights)
    )
