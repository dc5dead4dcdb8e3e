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
and spelled out through a 3-digit ASCII lookup table.  Every number is laid
out in a fixed 20-byte field (``-d.ddddddddddde+hhh,``), and one boolean
mask drops the unused sign and hundreds-of-exponent bytes.  The scaling
carries at most four roundings of one half-ulp each, so the scaled value is
within ~4.5e-4 of the exact product; an element whose scaled value lies
within ``_TIE_MARGIN`` of a rounding tie, or outside the decade, is
formatted by ``"%.11e" % x`` itself.  Rows are formatted ``_BLOCK_ROWS`` at
a time to bound the temporaries, and the file is opened only once every
block is formatted, so a formatting error leaves no partial CSV; the
finished blocks are written one after another rather than joined, which
would copy the whole file.  Only numpy API available in numpy 1.23 is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# rows formatted per block; bounds the 20-byte-per-number field buffer and
# its temporaries to well under a megabyte
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
# ASCII digits of 0..999 in bytes 0-2 of a little-endian word; the exponent
# form leaves byte 0 (the hundreds) NUL below 100, for the mask to drop
_DIGITS3 = np.frombuffer("".join(f"{i:03d}\0" for i in range(1000)).encode(), "<u4")
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


def _format_block(table) -> bytes:
    """CSV rows of a 2-D float table, each number as ``"%.11e" % x``."""
    mag = np.abs(table)
    zero = mag == 0
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(mag))
    exponent[zero] = 0
    exponent = exponent.astype(np.intp)
    scaled = _scale(mag, exponent)
    moved = np.flatnonzero(((scaled < 1e11) & ~zero) | (scaled >= 1e12))
    if moved.size:
        exponent.flat[moved] += np.where(scaled.flat[moved] < 1e11, -1, 1)
        scaled.flat[moved] = _scale(mag.flat[moved], exponent.flat[moved])
    mantissa = np.rint(scaled)
    exact = ((np.abs(scaled - mantissa) > 0.5 - _TIE_MARGIN)
             | (scaled < 1e11) | (scaled >= 1e12)) & ~zero
    mantissa = mantissa.astype(np.int64)
    carry = mantissa == 10**12
    if carry.any():
        mantissa[carry] = 10**11
        exponent[carry] += 1
    for index in np.flatnonzero(exact):
        mantissa.flat[index], exponent.flat[index] = _exact_parts(table.flat[index])

    # the twelve mantissa digits as four 3-digit groups g0..g3
    high = mantissa // 10**6
    low = mantissa - high * 10**6
    high_lead, low_lead = high // 1000, low // 1000
    g0, g1, g2, g3 = (_DIGITS3.take(group) for group in
                      (high_lead, high - high_lead * 1000, low_lead, low - low_lead * 1000))
    negative = np.signbit(table).astype(np.uint32)
    separator = np.full(table.shape[1], ord(","), dtype=np.uint32)
    separator[-1] = ord("\n")
    out = np.empty(table.shape + (_WORDS,), dtype="<u4")
    # bytes 0-3 "-d.d", 4-7 "dddd", 8-11 "dddd", 12-15 "dde+", 16-19 "hhh,",
    # with NUL for the unused sign and hundreds bytes; "+" (0x2B) + 2 is "-"
    out[..., 0] = negative * 0x2D | (g0 & 0xFF) << 8 | 0x2E0000 | (g0 & 0xFF00) << 16
    out[..., 1] = g0 >> 16 | g1 << 8
    out[..., 2] = g2 | g3 << 24
    out[..., 3] = (g3 >> 8 | 0x2B650000) + ((exponent < 0).astype(np.uint32) << 25)
    out[..., 4] = _EXP_DIGITS.take(np.abs(exponent)) | separator << 24
    text = out.view(np.uint8)
    return text[text != 0].tobytes()


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
        if len(self.axes) == 1:
            columns = [self.axes[0], *self.values]
        else:
            grid = np.meshgrid(*self.axes, indexing="ij")
            columns = [g.ravel() for g in grid] + [v.ravel() for v in self.values]
        table = np.column_stack(columns)
        blocks = [("\n".join(lines) + "\n").encode("utf-8")]
        blocks += [_format_block(table[start:start + _BLOCK_ROWS])
                   for start in range(0, len(table), _BLOCK_ROWS)]
        with open(path, "wb") as handle:
            handle.writelines(blocks)

    @property
    def n_rows(self) -> int:
        rows = len(self.axes[0])
        if len(self.axes) == 2:
            rows *= len(self.axes[1])
        return rows
