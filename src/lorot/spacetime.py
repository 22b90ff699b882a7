"""Flat model spacetimes: Lorentzian cost, causal classification, geodesics.

Two models are provided. ``Minkowski(d)`` is flat space with ``d`` spatial
coordinates and one time coordinate. ``Cylinder(circumference)`` has a single
periodic spatial coordinate. In both, the cost of an ordered pair ``(x, y)``
is minus the time separation, ``-sqrt(dtau**2 - |dtheta|**2)``, when ``y``
lies in the causal future of ``x`` and ``+inf`` otherwise. On the cylinder
the spatial displacement is minimized over winding representatives.

Every value here is immutable and every operation is a pure function, so
instances can be shared freely between tasks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCausalPair, SchemaError

# Pairs whose cone margin is within this tolerance of zero are classified as
# lightlike. Grid data has exact margins, so the tolerance only matters for
# coordinates produced by inexact arithmetic.
DEFAULT_NULL_TOL = 1e-12


@dataclass(frozen=True)
class Point:
    """An event: spatial coordinates plus a time coordinate.

    ``spatial`` has length equal to the model's spatial dimension. On the
    cylinder the (single) spatial coordinate is stored normalized to
    ``[0, circumference)``; use :meth:`SpacetimeModel.make_point` to build
    normalized points.
    """

    spatial: tuple[float, ...]
    time: float

    def key(self):
        """Lexicographic sort key: spatial coordinates first, then time."""
        return self.spatial + (self.time,)

    def coords(self):
        return self.spatial + (self.time,)

    def __repr__(self):
        xs = ", ".join(repr(c) for c in self.spatial)
        return f"({xs}; {self.time!r})"


class CausalClass(enum.Enum):
    CHRONOLOGICAL = "chronological"
    NULL = "null"
    NOT_CAUSAL = "not_causal"
    IDENTICAL = "identical"


class SpacetimeModel:
    """Common interface of the flat models."""

    spatial_dim: int

    def make_point(self, spatial, time) -> Point:
        """Build a point, validating and normalizing coordinates."""
        if np.isscalar(spatial):
            spatial = (spatial,)
        spatial = tuple(float(c) for c in spatial)
        time = float(time)
        if len(spatial) != self.spatial_dim:
            raise ValueError(
                f"expected {self.spatial_dim} spatial coordinates, got {len(spatial)}"
            )
        if not all(math.isfinite(c) for c in spatial) or not math.isfinite(time):
            raise ValueError("coordinates must be finite")
        return Point(self._normalize_spatial(spatial), time)

    def _normalize_spatial(self, spatial):
        return spatial

    def spatial_delta(self, x: Point, y: Point) -> np.ndarray:
        """Displacement from x to y (winding-minimal on the cylinder)."""
        raise NotImplementedError

    def spatial_distance_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spatial_delta_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Signed displacements from each x to each y, shape (n, m, d)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    # -- scalar operations ------------------------------------------------

    def cone_margin(self, x: Point, y: Point) -> float:
        """dtau - |dtheta|: positive inside the cone, zero on it, negative outside."""
        dtau = y.time - x.time
        dist = float(np.linalg.norm(self.spatial_delta(x, y)))
        return dtau - dist

    def cost(self, x: Point, y: Point, null_tol: float = DEFAULT_NULL_TOL) -> float:
        """Minus the time separation from x to y: nonpositive, or inf off the cone."""
        dtau = y.time - x.time
        dist = float(np.linalg.norm(self.spatial_delta(x, y)))
        margin = dtau - dist
        if margin < -null_tol:
            return math.inf
        if margin <= null_tol:
            # lightlike band: the class and the value must agree, so pairs
            # classified null get cost exactly zero
            return 0.0
        return -math.sqrt(max(dtau * dtau - dist * dist, 0.0))

    def causal_class(
        self, x: Point, y: Point, null_tol: float = DEFAULT_NULL_TOL
    ) -> CausalClass:
        if x == y:
            return CausalClass.IDENTICAL
        margin = self.cone_margin(x, y)
        if margin > null_tol:
            return CausalClass.CHRONOLOGICAL
        if margin >= -null_tol:
            return CausalClass.NULL
        return CausalClass.NOT_CAUSAL

    def geodesic_point(self, x: Point, y: Point, t: float) -> Point:
        """Point at parameter t on the minimizing segment from x to y.

        The segment is parametrized time-affinely: the time coordinate of the
        returned point is ``(1-t)*time(x) + t*time(y)``. Endpoints are
        returned exactly. Raises :class:`NotCausalPair` for spacelike pairs.
        """
        if self.causal_class(x, y) is CausalClass.NOT_CAUSAL:
            raise NotCausalPair(f"{x} does not causally precede {y}")
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"parameter must lie in [0, 1], got {t}")
        if t == 0.0:
            return x
        if t == 1.0:
            return y
        delta = self.spatial_delta(x, y)
        spatial = tuple(xc + t * dc for xc, dc in zip(x.spatial, delta))
        time = (1.0 - t) * x.time + t * y.time
        return self.make_point(spatial, time)

    # -- vectorized operations --------------------------------------------

    def margin_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Cone margins for all ordered pairs.

        ``xs`` and ``ys`` are coordinate arrays of shape (n, d+1) with the
        time coordinate last; returns shape (n, m).
        """
        dtau = ys[None, :, -1] - xs[:, None, -1]
        dist = self.spatial_distance_matrix(xs[:, :-1], ys[:, :-1])
        return dtau - dist

    def cost_matrix(
        self, xs: np.ndarray, ys: np.ndarray, null_tol: float = DEFAULT_NULL_TOL
    ) -> np.ndarray:
        """Pairwise costs, +inf on non-causal pairs; shape (n, m).

        Pairs whose cone margin is within ``null_tol`` of zero are lightlike
        and get cost exactly zero, matching :meth:`causal_class`.
        """
        dtau = ys[None, :, -1] - xs[:, None, -1]
        dist = self.spatial_distance_matrix(xs[:, :-1], ys[:, :-1])
        margin = dtau - dist
        c = np.full(margin.shape, np.inf)
        gap = np.maximum(dtau * dtau - dist * dist, 0.0)
        chrono = margin > null_tol
        c[chrono] = -np.sqrt(gap[chrono])
        c[np.abs(margin) <= null_tol] = 0.0
        return c


@dataclass(frozen=True)
class Minkowski(SpacetimeModel):
    """Flat spacetime with d spatial dimensions and Euclidean spatial metric."""

    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("spatial dimension must be >= 1")

    @property
    def spatial_dim(self) -> int:
        return self.d

    def spatial_delta(self, x: Point, y: Point) -> np.ndarray:
        return np.asarray(y.spatial) - np.asarray(x.spatial)

    def spatial_distance_matrix(self, xs, ys):
        diff = ys[None, :, :] - xs[:, None, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def spatial_delta_matrix(self, xs, ys):
        return ys[None, :, :] - xs[:, None, :]

    def to_config(self):
        return {"kind": "minkowski", "d": self.d}


@dataclass(frozen=True)
class Cylinder(SpacetimeModel):
    """Product of a circle (periodic spatial coordinate) with a time axis."""

    circumference: float = 5.0

    def __post_init__(self):
        if not (self.circumference > 0):
            raise ValueError("circumference must be positive")

    @property
    def spatial_dim(self) -> int:
        return 1

    def _normalize_spatial(self, spatial):
        return (float(spatial[0] % self.circumference),)

    def wrap_delta(self, raw: float) -> float:
        """Wrap a spatial displacement to (-C/2, C/2]."""
        c = self.circumference
        w = raw % c
        if w > c / 2.0:
            w -= c
        return w

    def spatial_delta(self, x: Point, y: Point) -> np.ndarray:
        return np.array([self.wrap_delta(y.spatial[0] - x.spatial[0])])

    def spatial_distance_matrix(self, xs, ys):
        c = self.circumference
        raw = (ys[None, :, 0] - xs[:, None, 0]) % c
        return np.minimum(raw, c - raw)

    def spatial_delta_matrix(self, xs, ys):
        c = self.circumference
        raw = (ys[None, :, 0] - xs[:, None, 0]) % c
        wrapped = np.where(raw > c / 2.0, raw - c, raw)
        return wrapped[:, :, None]

    def to_config(self):
        return {"kind": "cylinder", "circumference": self.circumference}


def model_from_config(obj: dict) -> SpacetimeModel:
    """Build a model from its JSON configuration."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("model config must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "minkowski":
        d = obj.get("d", 1)
        if not isinstance(d, int) or d < 1:
            raise SchemaError("minkowski 'd' must be a positive integer")
        return Minkowski(d)
    if kind == "cylinder":
        circ = obj.get("circumference", 5.0)
        if not isinstance(circ, (int, float)) or not circ > 0:
            raise SchemaError("cylinder 'circumference' must be a positive number")
        return Cylinder(float(circ))
    raise SchemaError(f"unknown model kind {kind!r}")

