"""Price/error surfaces and their deterministic CSV serialization.

CSV output is byte-stable for identical inputs: metadata lines are sorted,
numbers use fixed 12-significant-digit scientific notation, line endings
are LF and the encoding is UTF-8.

The numbers are written by a numpy formatter whose bytes equal Python's
``"%.11e" % x`` for every finite double.  Each value's decimal exponent is
estimated from ``floor(log10|x|)`` and corrected by one either way; the
value is scaled into ``[1e11, 1e12)`` by two entries of a correctly rounded
power-of-ten table (the scale runs from ``1e-297`` to ``1e335``, past the
largest double, and figure 2's error column reaches ``1e-187``), rounded to
a 12-digit integer mantissa (a carry to ``1e12`` moves to the next decade),
and spelled out through tables of ASCII digit words.  Each distinct number
(every axis entry and every value) is formatted once into a fixed 20-byte
field (``-d.ddddddddddde+hhh,``), ``_BLOCK_ROWS`` numbers at a time; rows are
gathered from the fields by index and ``bytes.translate`` drops the NULs of
unused sign and hundreds-of-exponent bytes, ``_BLOCK_ROWS`` rows at a time.
The scaling carries at most four roundings of one half-ulp each, so the
scaled value is within ~4.5e-4 of the exact product; an element whose scaled
value lies within ``_TIE_MARGIN`` of a rounding tie, or outside the decade,
is formatted by ``"%.11e" % x`` itself.  The file is opened only once every
row is formatted, so a formatting error leaves any existing file untouched.
The blocks are written one by one, not joined into a copy, over an existing
regular file in place, which is then cut to their length: truncating on open
frees its blocks first and, on ext4, starts writeback at close.  Only numpy
API available in numpy 1.23 is used.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

# numbers formatted, and rows gathered, per block; bounds the formatter's
# temporaries and each block's 20-byte fields to well under a megabyte
_BLOCK_ROWS = 2048
# one number per field: "-d.ddddddddddde+hhh," as five little-endian words
_WORDS = 5
# scaling error bound: x * A[e] * B[e] with both table entries correctly
# rounded is the exact product times (1 + d)^4, |d| <= 2^-53, so at most
# ~4.5e-4 off below 1e12; fractions this close to .5 take the exact route
_TIE_MARGIN = 1e-3
# decimal exponents of finite doubles, with one to spare either way for the
# correction: 5e-324 has -324, the largest double 308
_EXP_LO, _EXP_HI = -325, 309
# 10**(11 - e) = _SCALE_A[i] * _SCALE_B[i] at i = e - _EXP_LO, two correctly
# rounded powers (float of the decimal literal) within 1e±168, so that
# neither a factor nor a partial product overflows or goes subnormal
# (built in Python: numpy arithmetic here would page in ufunc loops that
# every importer pays for in resident memory)
_SHIFTS = range(11 - _EXP_LO, 10 - _EXP_HI, -1)
_POW10 = {k: float(f"1e{k}") for k in range(min(_SHIFTS) // 2, (max(_SHIFTS) + 1) // 2 + 1)}
_SCALE_A = np.array([_POW10[k // 2] for k in _SHIFTS])
_SCALE_B = np.array([_POW10[k - k // 2] for k in _SHIFTS])
# little-endian words of a field's digits: "\0d.d" (NUL for the sign) for the leading
# two, "dddd" for each next four, "dde+" for the last two; the exponent's word leaves
# byte 0 (the hundreds) NUL below 100
_TWO = [f"{i:02d}" for i in range(100)]
_LEAD2 = np.frombuffer("".join(f"\0{d[0]}.{d[1]}" for d in _TWO).encode(), "<u4")
_DIGITS4 = np.frombuffer("".join("".join(a + b for b in _TWO) for a in _TWO).encode(), "<u4")
_TAIL2 = np.frombuffer("".join(d + "e+" for d in _TWO).encode(), "<u4")
_EXP_DIGITS = np.frombuffer("".join(f"{i:03d}\0" if i >= 100 else f"\0{i:02d}\0"
                                    for i in range(1 - _EXP_LO)).encode(), "<u4")


def _exact_parts(x):
    """Mantissa digits as an integer and the exponent, from ``%.11e`` itself."""
    text = "%.11e" % abs(x)
    return int(text[0] + text[2:13]), int(text[14:])


def _scale(mag, exponent):
    """``mag * 10**(11 - exponent)`` through two power-of-ten table entries."""
    index = exponent - _EXP_LO
    return mag * _SCALE_A.take(index) * _SCALE_B.take(index)


def _format_fields(numbers, separator):
    """The 20-byte field of each number of 1-D `numbers`: ``"%.11e" % x``, then the
    `separator` code (one, or one per number), NUL-padded, as five little-endian words."""
    mag = np.abs(numbers)
    zero = mag == 0
    mag[zero] = 1.0   # spelled as 1e0, whose digits are zeroed below
    exponent = np.floor(np.log10(mag)).astype(np.intp)
    scaled = _scale(mag, exponent)
    moved = np.flatnonzero((scaled < 1e11) | (scaled >= 1e12))
    if moved.size:
        exponent[moved] += np.where(scaled[moved] < 1e11, -1, 1)
        scaled[moved] = _scale(mag[moved], exponent[moved])
    mantissa = np.rint(scaled)
    exact = (np.abs(scaled - mantissa) > 0.5 - _TIE_MARGIN) | (scaled < 1e11) | (scaled >= 1e12)
    mantissa = mantissa.astype(np.int64)
    mantissa[zero] = 0
    carry = mantissa == 10**12
    if carry.any():
        mantissa[carry] = 10**11
        exponent[carry] += 1
    for index in np.flatnonzero(exact):
        mantissa[index], exponent[index] = _exact_parts(numbers[index])

    # the twelve mantissa digits in groups of 2, 4, 4 and 2, one word each
    high = mantissa // 10**6
    low = mantissa - high * 10**6
    lead, tail = high // 10**4, low // 100
    out = np.empty(numbers.shape + (_WORDS,), dtype="<u4")
    # bytes 0-3 "-d.d", 4-7 "dddd", 8-11 "dddd", 12-15 "dde+", 16-19 "hhh,",
    # with NUL for the unused sign and hundreds bytes; "+" (0x2B) + 2 is "-"
    out[:, 0] = _LEAD2.take(lead) | np.signbit(numbers).astype(np.uint32) * 0x2D
    out[:, 1] = _DIGITS4.take(high - lead * 10**4)
    out[:, 2] = _DIGITS4.take(tail)
    out[:, 3] = _TAIL2.take(low - tail * 100) + ((exponent < 0).astype(np.uint32) << 25)
    out[:, 4] = _EXP_DIGITS.take(np.abs(exponent)) | separator << 24
    return out


@dataclass
class PriceSurface:
    """Values over one axis (columns per method) or two axes (one value)."""

    axis_names: tuple
    axes: tuple
    value_names: tuple
    values: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.axis_names) not in (1, 2) or len(self.axis_names) != len(self.axes):
            raise ValueError("surface needs one or two named axes")
        if len(self.value_names) != len(self.values) or not self.values:
            raise ValueError("surface needs at least one named value array")
        for name in (*self.axis_names, *self.value_names):
            if set(name) & set(",\n\r"):
                raise ValueError(f"column name {name!r} contains a comma or a line break")
        for key, value in self.metadata.items():
            line = f"{key}: {value}"
            if "\n" in line or "\r" in line:
                raise ValueError(f"metadata {key!r} contains a line break")
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = tuple(np.asarray(v, dtype=float) for v in self.values)
        for name, axis in zip(self.axis_names, self.axes):
            if not np.isfinite(axis).all():
                raise ValueError(f"axis {name!r} contains non-finite entries")
        expected = tuple(len(a) for a in self.axes)
        for name, arr in zip(self.value_names, self.values):
            if arr.shape != expected:
                raise ValueError(
                    f"value {name!r} has shape {arr.shape}, axes imply {expected}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"value {name!r} contains non-finite entries")

    def write_csv(self, path) -> None:
        lines = [f"# {key}: {self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(list(self.axis_names) + list(self.value_names)))
        # one field per axis entry and per value, the last value column's ending its row
        columns = [*self.axes, *(v.ravel() for v in self.values)]
        numbers = np.concatenate(columns)
        separator = np.full(numbers.size, ord(","), dtype=np.uint32)
        separator[numbers.size - columns[-1].size:] = ord("\n")
        fields = np.empty((numbers.size, _WORDS), dtype="<u4")
        for start in range(0, numbers.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fields[block] = _format_fields(numbers[block], separator[block])
        # the fields of each grid cell's row: every axis's at the cell's position, then every
        # value's; 8 bytes per cell and column, as the table of numbers they replace
        shape = tuple(len(axis) for axis in self.axes)
        picks = np.empty(shape + (len(columns),), dtype=np.intp)
        cells = np.arange(self.n_rows).reshape(shape)
        for k, index in enumerate([*np.ix_(*map(np.arange, shape)), *[cells] * len(self.values)]):
            picks[..., k] = index + sum(column.size for column in columns[:k])
        picks = picks.reshape(self.n_rows, len(columns))
        blocks = [("\n".join(lines) + "\n").encode("utf-8")]
        blocks += [fields.take(picks[start:start + _BLOCK_ROWS], axis=0).tobytes()
                   .translate(None, b"\0") for start in range(0, self.n_rows, _BLOCK_ROWS)]
        # in place, not truncated on open: ~0.06 ms against ~0.4 ms for figure 2's 557 kB on ext4
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as handle:
            handle.writelines(blocks)
            if stat.S_ISREG(os.fstat(fd).st_mode):   # a device or a pipe has no length to cut
                handle.truncate()

    @property
    def n_rows(self) -> int:
        return math.prod(len(axis) for axis in self.axes)
