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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotCausalPair, SchemaError

# Pairs whose cone margin is within this tolerance of zero are classified as
# lightlike. Grid data has exact margins, so the tolerance only matters for
# coordinates produced by inexact arithmetic.
NULL_TOL = 1e-12

# Every dense pass over the n x m pairs walks the rows in blocks of about this
# many pairs, so that a block's few float64 buffers (512 KiB each) stay in
# cache and no n x m float array is built beside the cost matrix itself.
BLOCK_PAIRS = 2**16


def row_blocks(n: int, m: int) -> list[slice]:
    """Slices of ``range(n)`` in order, each of at least one row and of about
    ``BLOCK_PAIRS`` pairs when a row holds m of them."""
    step = max(1, BLOCK_PAIRS // max(m, 1))
    return [slice(r, min(r + step, n)) for r in range(0, n, step)]


def row_block_buffers(n: int, m: int, *dtypes):
    """Each slice of :func:`row_blocks` with one (rows, m) array per dtype.

    The arrays are views into buffers allocated once, for the largest block,
    so every block reuses them; a block's arrays are overwritten by the next.
    """
    blocks = row_blocks(n, m)
    size = (blocks[0].stop - blocks[0].start) * m if blocks else 0
    buffers = [np.empty(size, dtype) for dtype in dtypes]
    for rows in blocks:
        shape = (rows.stop - rows.start, m)
        yield rows, [b[:shape[0] * m].reshape(shape) for b in buffers]


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


def causal_band(margin, out=None) -> np.ndarray:
    """Side of the light cone for each cone margin: 1 inside, 0 on it, -1 outside.

    A margin within ``NULL_TOL`` of zero is lightlike. This is the one place
    the band is decided; the cost, the causal class and the lightlike
    fraction all read it, so they agree. Elementwise on arrays; ``out``, an
    int8 array of the margins' shape, receives the band.
    """
    margin = np.asarray(margin)
    band = np.greater(margin, NULL_TOL, out=np.empty(margin.shape, np.int8) if out is None else out)
    return np.subtract(band, margin < -NULL_TOL, out=band)


# no squared separation overflows between events whose coordinates are within this
COORD_BOUND = 2.0**500

# dtypes of the scratch :meth:`SpacetimeModel.costs` works in: the time steps,
# the distances, the band and a mask
COST_WORK = (float, float, np.int8, bool)


_CLASS_OF_BAND = {1: CausalClass.CHRONOLOGICAL, 0: CausalClass.NULL, -1: CausalClass.NOT_CAUSAL}


class SpacetimeModel:
    """Common interface of the flat models.

    A model defines :meth:`displacement`, :meth:`normalize`, ``spatial_dim``
    and :meth:`to_config`; everything else is derived here. Coordinate arrays
    hold the spatial coordinates followed by the time coordinate on the last
    axis and broadcast like numpy.
    """

    spatial_dim: int

    def displacement(self, xs, ys, out=None) -> np.ndarray:
        """Spatial displacement from xs to ys (winding-minimal on the cylinder),
        elementwise, into ``out`` when it is given."""
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

    def check_measures(self, **sides):
        """``ValueError`` naming the first side given (``mu=``, ``nu=``) without
        ``spatial_dim`` spatial coordinates, or its first atom with a coordinate
        beyond ``COORD_BOUND`` in magnitude and that coordinate."""
        for side, measure in sides.items():
            coords = measure.coords_array()
            if (d := coords.shape[1] - 1) != self.spatial_dim:
                raise ValueError(f"{side} has {d} spatial coordinates; {self!r} has {self.spatial_dim}")
            if np.abs(coords).max(initial=0.0) > COORD_BOUND:
                atom, k = divmod(int(np.argmax(np.abs(coords) > COORD_BOUND)), d + 1)
                raise ValueError(f"{side}-atom {atom} has coordinate {coords.item(atom, k)!r} "
                                 "beyond 2**500 in magnitude")

    # -- the kernel -------------------------------------------------------

    def separation(self, xs, ys, out=None):
        """Time step and spatial distance ``(dtau, dist)`` from xs to ys.

        ``xs`` and ``ys`` are coordinate arrays, time last, that broadcast
        against each other; pass ``xs[:, None]`` and ``ys[None, :]`` for all
        pairs. ``out`` is a pair of arrays of the broadcast shape to fill.
        The squared displacements are added in coordinate order.
        """
        if out is None:
            shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
            out = np.empty(shape), np.empty(shape)
        dtau, dist = out
        for k in range(xs.shape[-1] - 1):
            # dtau holds each coordinate's displacement until the time step goes in
            delta = self.displacement(xs[..., k], ys[..., k], out=dtau)
            if k:
                dist += np.multiply(delta, delta, out=delta)
            else:
                np.multiply(delta, delta, out=dist)
        np.sqrt(dist, out=dist)
        np.subtract(ys[..., -1], xs[..., -1], out=dtau)
        return dtau, dist

    def costs(self, xs, ys, out=None, work=None) -> np.ndarray:
        """Costs from xs to ys, +inf on non-causal pairs and 0 on the null
        band; broadcasts like :meth:`separation`.

        The costs go into ``out`` when it is given. ``work`` holds one array
        of the broadcast shape per dtype of ``COST_WORK``; a pass that gives
        both allocates nothing per block. Every cost, for one pair or for
        all, comes from this one sequence of operations.
        """
        shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
        if out is None:
            out = np.empty(shape)
        if work is None:
            # two allocations, not four: a large call leaves fewer chunks on
            # the heap, so the peak RSS stays that of fewer temporaries
            floats, flags = np.empty((2, *shape)), np.empty((2, *shape), np.int8)
            work = floats[0, ...], floats[1, ...], flags[0, ...], flags[1, ...].view(bool)
        dtau, dist, band, mask = work
        self.separation(xs, ys, out=(dtau, dist))
        causal_band(np.subtract(dtau, dist, out=out), out=band)
        # -sqrt(max(dtau**2 - dist**2, 0)) inside the cone
        np.subtract(np.multiply(dtau, dtau, out=out), np.multiply(dist, dist, out=dist), out=out)
        np.negative(np.sqrt(np.maximum(out, 0.0, out=out), out=out), out=out)
        np.copyto(out, 0.0, where=np.equal(band, 0, out=mask))
        np.copyto(out, np.inf, where=np.less(band, 0, out=mask))
        return out

    def cost_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Pairwise costs, +inf on non-causal pairs; shape (n, m).

        ``xs`` and ``ys`` are coordinate arrays of shape (n, d+1) and (m, d+1).
        Each block of rows (see :func:`row_blocks`) goes through :meth:`costs`
        straight into its slice of the matrix, with one set of scratch.
        """
        C = np.empty((len(xs), len(ys)))
        for rows, work in row_block_buffers(len(xs), len(ys), *COST_WORK):
            self.costs(xs[rows, None, :], ys[None, :, :], C[rows], work)
        return C

    def geodesic_points(self, xs, ys, t: float) -> np.ndarray:
        """Coordinates at parameter t on the minimizing segments from xs to ys.

        Row k of the coordinate arrays ``xs`` and ``ys`` is one pair; see
        :meth:`geodesic_point`. Raises :class:`NotCausalPair` naming the first
        spacelike pair.
        """
        return self.segment_points(*self.causal_pairs(xs, ys), t)

    def causal_pairs(self, xs, ys):
        """``xs`` and ``ys`` as float arrays broadcast to one shape, once each
        pair ``(xs[k], ys[k])`` is known causal; raises :class:`NotCausalPair`
        naming the first spacelike pair."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        dtau, dist = self.separation(xs, ys)
        spacelike = causal_band(dtau - dist) < 0
        if spacelike.any():
            k = int(spacelike.argmax())
            x, y = _points(np.stack([xs[k], ys[k]]))
            raise NotCausalPair(f"{x} does not causally precede {y}")
        return xs, ys

    def segment_points(self, xs, ys, t: float) -> np.ndarray:
        """:meth:`geodesic_points` for pairs that :meth:`causal_pairs` passed."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"parameter must lie in [0, 1], got {t}")
        if t == 0.0:
            return xs
        if t == 1.0:
            return ys
        out = np.empty(xs.shape)
        out[:, :-1] = self.normalize(xs[:, :-1] + t * self.displacement(xs[:, :-1], ys[:, :-1]))
        np.add((1.0 - t) * xs[:, -1], t * ys[:, -1], out=out[:, -1])
        return out

    # -- one pair ---------------------------------------------------------

    def cone_margin(self, x: Point, y: Point) -> float:
        """dtau - |dtheta|: positive inside the cone, zero on it, negative outside."""
        dtau, dist = self.separation(np.array(x.coords()), np.array(y.coords()))
        return float(dtau - dist)

    def cost(self, x: Point, y: Point) -> float:
        """Minus the time separation from x to y: nonpositive, or inf off the cone.

        Lightlike pairs (see :func:`causal_band`) cost exactly zero.
        """
        return float(self.costs(np.array(x.coords()), np.array(y.coords())))

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

    def displacement(self, xs, ys, out=None):
        return np.subtract(ys, xs, out=out)

    def to_config(self):
        return {"kind": "minkowski", "d": self.d}


@dataclass(frozen=True)
class Cylinder(SpacetimeModel):
    """Product of a circle (periodic spatial coordinate) with a time axis."""

    circumference: float = 5.0

    def __post_init__(self):
        if not (self.circumference > 0):
            raise ValueError("circumference must be positive")
        if not math.isfinite(self.circumference):
            raise ValueError("circumference must be finite")

    @property
    def spatial_dim(self) -> int:
        return 1

    def normalize(self, spatial):
        wrapped = spatial % self.circumference
        # a tiny negative coordinate wraps to the circumference itself
        return np.where(wrapped == self.circumference, 0.0, wrapped)

    def displacement(self, xs, ys, out=None):
        """Coordinate differences wrapped to (-C/2, C/2]; only ys - xs rounds
        (``fmod`` is exact, and so is the one shift by C, by Sterbenz)."""
        c = self.circumference
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(xs), np.shape(ys)))
        r = np.fmod(np.subtract(ys, xs, out=out), c, out=out)
        # a value shifted down lies above -C/2, so the second shift skips it
        np.subtract(r, c, out=r, where=r > c / 2.0)
        return np.add(r, c, out=r, where=r <= -c / 2.0)

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
        if not circ <= sys.float_info.max:
            # Python's JSON reader takes Infinity, and no coordinate wraps modulo inf
            raise SchemaError(f"cylinder 'circumference' must be finite, got {circ!r}")
        return Cylinder(float(circ))
    raise SchemaError(f"unknown model kind {kind!r}")

