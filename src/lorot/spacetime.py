"""Flat model spacetimes: Lorentzian cost, causal classification, geodesics.

Two models are provided. ``Minkowski(d)`` is flat space with ``d`` spatial
coordinates and one time coordinate. ``Cylinder(circumference)`` has a single
periodic spatial coordinate. In both, the cost of an ordered pair ``(x, y)``
is minus the time separation, ``-sqrt(dtau**2 - |dtheta|**2)``, when ``y``
lies in the causal future of ``x`` and ``+inf`` otherwise. On the cylinder
the spatial displacement is minimized over winding representatives.

A model supplies only its spatial displacement between coordinate arrays
(plus coordinate normalization and its configuration). Every separation,
cone margin, cost, causal class and geodesic, for one pair or for all pairs,
comes from that displacement through :meth:`SpacetimeModel.separation`, and
the lightlike band is decided in one function, :func:`causal_band`.

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
NULL_TOL = 1e-12


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


def causal_band(margin) -> np.ndarray:
    """Side of the light cone for each cone margin: 1 inside, 0 on it, -1 outside.

    A margin within ``NULL_TOL`` of zero is lightlike. This is the one place
    the band is decided; the cost, the causal class and the lightlike
    fraction all read it, so they agree. Elementwise on arrays.
    """
    margin = np.asarray(margin)
    return (margin > NULL_TOL).astype(np.int8) - (margin < -NULL_TOL)


def _cost(dtau, dist) -> np.ndarray:
    """Costs from time steps and spatial distances: 0 on the null band."""
    band = causal_band(dtau - dist)
    timelike = -np.sqrt(np.maximum(dtau * dtau - dist * dist, 0.0))
    return np.where(band > 0, timelike, np.where(band < 0, np.inf, 0.0))


_CLASS_OF_BAND = {1: CausalClass.CHRONOLOGICAL, 0: CausalClass.NULL, -1: CausalClass.NOT_CAUSAL}


class SpacetimeModel:
    """Common interface of the flat models.

    A model defines :meth:`displacement`, :meth:`normalize`, ``spatial_dim``
    and :meth:`to_config`; everything else is derived here. Coordinate arrays
    hold the spatial coordinates followed by the time coordinate on the last
    axis and broadcast like numpy.
    """

    spatial_dim: int

    def displacement(self, xs, ys) -> np.ndarray:
        """Spatial displacement from xs to ys (winding-minimal on the cylinder)."""
        raise NotImplementedError

    def normalize(self, spatial) -> np.ndarray:
        """Canonical form of an array of spatial coordinates."""
        return spatial

    def to_config(self) -> dict:
        raise NotImplementedError

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
        return Point(tuple(self.normalize(np.array(spatial)).tolist()), time)

    # -- the kernel -------------------------------------------------------

    def separation(self, xs, ys):
        """Time step and spatial distance ``(dtau, dist)`` from xs to ys.

        ``xs`` and ``ys`` are coordinate arrays, time last, that broadcast
        against each other; pass ``xs[:, None]`` and ``ys[None, :]`` for all
        pairs.
        """
        delta = self.displacement(xs[..., :-1], ys[..., :-1])
        return ys[..., -1] - xs[..., -1], np.sqrt(np.sum(delta * delta, axis=-1))

    def costs(self, xs, ys) -> np.ndarray:
        """Costs from xs to ys, +inf on non-causal pairs; broadcasts like
        :meth:`separation`."""
        return _cost(*self.separation(xs, ys))

    def cost_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Pairwise costs, +inf on non-causal pairs; shape (n, m).

        ``xs`` and ``ys`` are coordinate arrays of shape (n, d+1) and (m, d+1).
        """
        return self.costs(xs[:, None, :], ys[None, :, :])

    def geodesic_points(self, xs, ys, t: float) -> np.ndarray:
        """Coordinates at parameter t on the minimizing segments from xs to ys.

        Row k of the coordinate arrays ``xs`` and ``ys`` is one pair; see
        :meth:`geodesic_point`. Raises :class:`NotCausalPair` naming the first
        spacelike pair.
        """
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        dtau, dist = self.separation(xs, ys)
        spacelike = np.flatnonzero(causal_band(dtau - dist) < 0)
        if len(spacelike):
            x, y = _points(np.stack([xs[spacelike[0]], ys[spacelike[0]]]))
            raise NotCausalPair(f"{x} does not causally precede {y}")
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"parameter must lie in [0, 1], got {t}")
        if t == 0.0:
            return xs
        if t == 1.0:
            return ys
        spatial = self.normalize(xs[:, :-1] + t * self.displacement(xs[:, :-1], ys[:, :-1]))
        return np.column_stack([spatial, (1.0 - t) * xs[:, -1] + t * ys[:, -1]])

    # -- one pair ---------------------------------------------------------

    def _separation_of(self, x: Point, y: Point):
        return self.separation(np.array(x.coords()), np.array(y.coords()))

    def cone_margin(self, x: Point, y: Point) -> float:
        """dtau - |dtheta|: positive inside the cone, zero on it, negative outside."""
        dtau, dist = self._separation_of(x, y)
        return float(dtau - dist)

    def cost(self, x: Point, y: Point) -> float:
        """Minus the time separation from x to y: nonpositive, or inf off the cone.

        Lightlike pairs (see :func:`causal_band`) cost exactly zero.
        """
        return float(_cost(*self._separation_of(x, y)))

    def causal_class(self, x: Point, y: Point) -> CausalClass:
        if x == y:
            return CausalClass.IDENTICAL
        return _CLASS_OF_BAND[int(causal_band(self.cone_margin(x, y)))]

    def geodesic_point(self, x: Point, y: Point, t: float) -> Point:
        """Point at parameter t on the minimizing segment from x to y.

        The segment is parametrized time-affinely: the time coordinate of the
        returned point is ``(1-t)*time(x) + t*time(y)``. Endpoints are
        returned exactly. Raises :class:`NotCausalPair` for spacelike pairs.
        """
        return _points(self.geodesic_points(np.array([x.coords()]), np.array([y.coords()]), t))[0]


def _points(coords) -> tuple[Point, ...]:
    """The points whose coordinates are the rows of ``coords``, time last."""
    return tuple(Point(tuple(row[:-1]), row[-1]) for row in coords.tolist())


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

    def displacement(self, xs, ys):
        return ys - xs

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

    def normalize(self, spatial):
        wrapped = spatial % self.circumference
        # a tiny negative coordinate wraps to the circumference itself
        return np.where(wrapped == self.circumference, 0.0, wrapped)

    def displacement(self, xs, ys):
        """Coordinate differences wrapped to (-C/2, C/2]; only ys - xs rounds
        (``fmod`` is exact, and so is the one shift by C, by Sterbenz)."""
        c = self.circumference
        r = np.fmod(ys - xs, c)
        return np.where(r > c / 2.0, r - c, np.where(r <= -c / 2.0, r + c, r))

    def to_config(self):
        return {"kind": "cylinder", "circumference": self.circumference}


def model_from_config(obj: dict) -> SpacetimeModel:
    """Build a model from its JSON configuration."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("model config must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "minkowski":
        d = obj.get("d", 1)
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise SchemaError("minkowski 'd' must be a positive integer")
        return Minkowski(d)
    if kind == "cylinder":
        circ = obj.get("circumference", 5.0)
        if not isinstance(circ, (int, float)) or isinstance(circ, bool) or not circ > 0:
            raise SchemaError("cylinder 'circumference' must be a positive number")
        return Cylinder(float(circ))
    raise SchemaError(f"unknown model kind {kind!r}")

