"""CSV tables formatted in numpy, byte for byte as ``%.17g`` and ``%d``.

``CsvWriter`` is the CLI's one table writer: a header, then any number of
record-array blocks; ``write_csv`` calls it with one block. Each value's
text is laid out in column-major ``uint8`` planes, one plane per character
position and a NUL wherever a character is absent; integer and bool columns
take the float columns' planes and kernel. The planes of a chunk of
rows live in one buffer per block, zeroed per chunk: the sign and digit
planes are written at every row, the ``0.000`` and exponent planes only at
the rows whose value uses them. The planes that hold a character are
transposed into row order and ``bytes.translate`` deletes the NULs in one C
pass, which leaves the CSV text of those rows.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

_CHUNK = 8192  # rows per chunk of planes and cells per cylinder field block
_MARGIN = 2.0 ** -30  # a rounding or exponent decision closer than this falls back
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for a Dekker product
_POW10 = np.array([10 ** (8 - k) for k in range(9)], dtype=np.int32)
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")

# planes of one value of any column: sign, the "0.000" of 1e-4 <= |x| < 1,
# 17 digits and an optional "." among them, then "e", sign, 3 digits
_FLOAT_WIDTH = 1 + 5 + 18 + 5
_DIGIT0 = 1 + 5
_EXP0 = _DIGIT0 + 18


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten():
    """Double-double ``10**k = hi + lo`` for k in [-300, 300), indexed by
    ``k + 300``, with ``hi = hi_hi + hi_lo`` split as Veltkamp does.

    ``hi`` is ``10**k`` correctly rounded and ``lo`` is ``10**k - hi``
    correctly rounded, both from Python integers (integer true division is
    correctly rounded). Built once per process, when the first table is
    written, as the read-only rows ``hi, hi_hi, hi_lo, lo``.
    """
    hi, lo = np.empty((2, 600))
    for i, k in enumerate(range(-300, 300)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi[i] = num / den
        n, d = hi[i].as_integer_ratio()
        lo[i] = (num * d - n * den) / (den * d)
    table = np.array([hi, *_split(hi), lo])
    table.setflags(write=False)  # one table, shared by every writer
    return table


def _scaled(a, k):
    """``a * 10**k`` as an unevaluated pair ``p + t``, and whether the pair
    is exact; ``p = fl(a * hi)`` and ``t`` is the Dekker two-product's
    error term ``a * hi - p`` plus ``fl(a * lo)``."""
    hi, hi_hi, hi_lo, lo = _powers_of_ten().take(k + 300, axis=1)
    p = a * hi
    a_hi, a_lo = _split(a)
    # |z - (p + t)| < 2**-46 for z = a * 10**k < 2**57 (see write_csv)
    t = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    return p, t, (t == 0) & (lo == 0)


def _float_planes(column, out):
    """Write the text of ``column`` into the zeroed planes ``out`` and
    return the rows formatted by ``%``: ``%.17g`` for floats and ``%d`` for
    integers and bools, which is the ``%.17g`` of their float64 below 2**53
    in magnitude. The rounding argument is in ``write_csv``."""
    x = np.asarray(column, dtype=np.float64)
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= 1e-280) & (ax <= 1e280)
    a = np.where(fast, ax, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    p, t, exact = _scaled(a, 16 - E)
    below, above = (p - 1e16) + t, (p - 1e17) + t
    shift = (above >= 0).astype(np.int64) - (below < 0)
    moved = np.flatnonzero(shift)
    if len(moved):
        E[moved] += shift[moved]
        p[moved], t[moved], exact[moved] = _scaled(a[moved], 16 - E[moved])
        below[moved], above[moved] = (p[moved] - 1e16) + t[moved], (p[moved] - 1e17) + t[moved]
    edge = (np.abs(below) <= _MARGIN) | (np.abs(above) <= _MARGIN)
    tie = np.abs(t - np.floor(t) - 0.5) <= _MARGIN
    ok = fast & (below >= 0) & (above < 0) & ~(edge & ~exact) & ~tie
    D = np.where(ok, p, 1e16).astype(np.int64) + np.where(ok, np.rint(t), 0).astype(np.int64)
    E[~ok] = 0
    carry = D == 10 ** 17  # z rounded up onto the next power of ten
    D[carry] = 10 ** 16
    E += carry

    # D = hi 10**8 + lo; digit k of a part is q[k] - 10 q[k-1] with q[k]
    # its int32 quotient by a power of ten, taken mod 256 in uint8, where
    # the difference is exact as well
    hi, lo = np.divmod(D, 10 ** 8)
    q = np.empty((17, len(D)), dtype=np.uint8)
    q[:9] = hi.astype(np.int32) // _POW10[:, None]
    q[9:] = lo.astype(np.int32) // _POW10[1:, None]
    digits = q.copy()
    digits[1:9] -= np.uint8(10) * q[:8]
    digits[10:] -= np.uint8(10) * q[9:16]
    ks = np.arange(17, dtype=np.int8)[:, None]
    last_nonzero = np.max((digits != 0) * ks, axis=0)
    fixed = (E >= -4) & (E < 17)
    point = np.where(fixed, E, 0).astype(np.int8)  # the point follows this digit; none if < 0
    np.multiply(np.signbit(x), np.uint8(_MINUS), out=out[0])
    lead = np.flatnonzero(fixed & (E < 0))  # "0." and -E - 1 zeros
    out[1, lead] = _ZERO
    out[2, lead] = _DOT
    for j in (1, 2, 3):
        lead = lead[E[lead] < -j]
        out[2 + j, lead] = _ZERO
    digits += np.uint8(_ZERO)
    digits *= ks <= np.maximum(last_nonzero, point)  # NUL after the last digit shown
    # the point takes the plane after digit `point`, and the digits after it
    # move one plane on; dot = 18 (no plane) where no point is printed
    dot = np.where((last_nonzero > point) & (point >= 0), point + 1, 18)
    planes = out[_DIGIT0:_EXP0]
    planes[:17] = digits
    np.copyto(planes[1:], digits, where=ks + 1 > dot)
    dotted = np.flatnonzero(dot < 18)
    planes[dot[dotted].astype(np.intp), dotted] = _DOT
    out[_DIGIT0, zero] = _ZERO
    expo = np.flatnonzero(~fixed)
    Ex = E[expo]
    mag = np.abs(Ex)
    out[_EXP0, expo] = ord("e")
    out[_EXP0 + 1, expo] = np.where(Ex < 0, _MINUS, ord("+"))
    out[_EXP0 + 2, expo[mag >= 100]] = _ZERO + mag[mag >= 100] // 100
    out[_EXP0 + 3, expo] = _ZERO + mag // 10 % 10
    out[_EXP0 + 4, expo] = _ZERO + mag % 10

    slow = ~ok & ~zero
    fmt, values = b"%.17g", x
    if column.dtype.kind != "f":  # integers and bools, by %d from 2**53 up
        fmt, values = b"%d", column
        slow |= ax >= 2.0 ** 53
    fallback = np.flatnonzero(slow)
    for r, v in zip(fallback.tolist(), values[fallback].tolist()):
        text = np.frombuffer(fmt % v, dtype=np.uint8)
        out[:, r] = 0
        out[:len(text), r] = text
    return fallback


class CsvWriter:
    """A CSV file written block by block: a header of the first block's
    field names, then one line per record of every block, in order.

    Used as a context manager, it is called with record-array blocks of
    the same fields (a block may be empty). A block of any length is
    formatted ``_CHUNK`` rows at a time, so memory stays bounded per chunk,
    not per table. Leaving the context by an exception removes the file, so
    a failed run leaves no partial table behind. The bytes follow the rule
    of ``write_csv``, whatever the block sizes.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._names = None

    def __enter__(self):
        self._fh = open(self.path, "wb")
        return self

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        if exc_type is not None:
            self.path.unlink()

    def __call__(self, table: np.recarray):
        names = table.dtype.names
        if self._names is None:
            self._names = names
            self._fh.write((",".join(names) + "\n").encode("utf-8"))
        width = _FLOAT_WIDTH + 1  # a "," after each column but the last, "\n" at the end
        buffer = np.zeros((width * len(names), min(len(table), _CHUNK)), dtype=np.uint8)
        for start in range(0, len(table), _CHUNK):
            rows = table[start:start + _CHUNK]
            block = buffer[:, :len(rows)]
            if start:  # np.zeros has zeroed it for the first chunk
                block.fill(0)
            for at, name in zip(range(0, len(block), width), names):
                _float_planes(rows[name], block[at:at + _FLOAT_WIDTH])
                block[at + _FLOAT_WIDTH] = ord(",")
            block[-1] = ord("\n")
            # planes without a character dropped, rows in order, NULs deleted
            self._fh.write(block[block.any(axis=1)].T.tobytes().translate(None, b"\0"))


def write_csv(path: Path, table: np.recarray):
    """One line per record under a header of the field names; floats as
    ``%.17g``, which round-trips, and integers (and bools) as ``%d``.

    The bytes equal that per-value rule for every value. A nonzero float
    ``x`` prints as the 17-digit integer ``D`` in [1e16, 1e17) nearest to
    ``z = |x| * 10**(16 - E)``, with ``E`` its decimal exponent:

    * ``z`` is the pair ``p + t`` of ``_scaled``, against ``10**k = hi + lo``
      with ``hi`` and ``lo`` correctly rounded from Python integers. The
      Dekker two-product ``|x| * hi = p + err`` is exact, as nothing
      overflows or underflows for ``|x|`` in [1e-280, 1e280]. For
      ``z < 2**57``, ``|x| * lo < 16`` rounds within 2**-50, ``t`` (below
      32) within 2**-49, and the part of ``10**k`` beyond ``hi + lo``
      (under 2**-106 of it) adds under 2**-49, so
      ``|z - (p + t)| < 2**-46``. With ``t == 0`` and ``lo == 0`` the pair
      is exact.
    * ``E`` starts as ``floor(log10|x|)``, which can be one off next to a
      power of ten; ``z`` then falls outside [1e16, 1e17). The test reads
      the signs of ``(p - 1e16) + t`` and ``(p - 1e17) + t``, in which
      ``p - 1e16`` is exact; ``fl(p + t)`` could round onto the power of
      ten (as for ``fl(1e147)``) and hide the off-by-one.
    * ``D`` is ``p``, an integer since ``p > 2**53``, plus ``t`` rounded.
      If ``D`` rounds up to 1e17 it is 1e16 and ``E`` grows by one.

    Each decision is sound while ``z`` lies farther than 2**-46 from a
    boundary or a half-integer. A value with ``z`` within 2**-30 of one
    (exact ties included, but not an exact pair) is formatted by ``%``
    instead, one value at a time, and so are non-finite values and
    ``|x|`` outside [1e-280, 1e280]; zero is spelt out directly.

    An integer or bool ``v`` goes through the same kernel as ``float(v)``:
    below 2**53 in magnitude the conversion is exact and the ``%.17g``
    text has at most 16 digits and no point, which is ``%d``. Magnitudes
    from 2**53 up join the per-value fallback, formatted by ``%d``.
    """
    with CsvWriter(path) as write:
        write(table)
