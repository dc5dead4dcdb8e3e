"""Self-contained error-function family and the standard normal CDF.

Rational minimax approximations (Cody-style) cover |x| <= 6; beyond that a
Laplace continued fraction for the scaled complement exp(x^2)*erfc(x) takes
over, so Gaussian-times-erfc products stay meaningful far into the tails.
An array splits |x| once into the four ranges (<= 0.46875, <= 4, <= 6,
beyond, where +-inf lands), gathers each non-empty range once by integer
index, computes its final value at |x| there and scatters it back once;
one reflection over the negative elements then gives the value at x.  A
one-element input takes a scalar route: its range picked by comparison, the
same formulas on a numpy float64, and an array lane's bits under either exp
dispatch (np.exp, never math.exp).  Everything here is pure and stateless.
"""

from __future__ import annotations

import math
import operator

import numpy as np

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO = math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / SQRT_PI

_SMALL_MAX = 0.46875      # small-argument rational for erf
_MID_MAX = 4.0            # mid-range rational for erfc
_RATIONAL_MAX = 6.0       # rational forms end here; erfcx path beyond

# Coefficients of the three minimax rationals (Cody, SPECFUN "calerf").
_A = (3.16112374387056560e0, 1.13864154151050156e2, 3.77485237685302021e2,
      3.20937758913846947e3, 1.85777706184603153e-1)
_B = (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
      2.84423683343917062e3)
_C = (5.64188496988670089e-1, 8.88314979438837594e0, 6.61191906371416295e1,
      2.98635138197400131e2, 8.81952221241769090e2, 1.71204761263407058e3,
      2.05107837782607147e3, 1.23033935479799725e3, 2.15311535474403846e-8)
_D = (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
      1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
      3.43936767414372164e3, 1.23033935480374942e3)
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e0, 1.87295284992346047e0, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


# (numerator, denominator) coefficients of each rational from the leading one down,
# each for _horner; a denominator's leading 1.0 multiplies exactly
_SMALL_RATIO = ((_A[4],) + _A[:4], (1.0,) + _B)
_MID_RATIO = ((_C[8],) + _C[:8], (1.0,) + _D)
_FAR_RATIO = ((_P[5],) + _P[:5], (1.0,) + _Q)
_OPERATOR = {np.divide: operator.truediv, np.subtract: operator.sub, np.negative: operator.neg}


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name}: NaN input")
    return arr


def _result(out, shape=None):
    """The return rule of every evaluator: a Python float where the result's
    shape is (), the ndarray otherwise.

    `shape` (the broadcast shape of the inputs) undoes an `np.atleast_1d`
    promotion inside the body.
    """
    if shape is not None:
        out = out.reshape(shape)
    return out if getattr(out, "ndim", 0) else float(out)


_BLOCK = 16384   # 128 KB per float64 temporary, glibc's default mmap threshold


def _blockwise(body, *args):
    """body(*args) for an elementwise body, in order over blocks of at most `_BLOCK` elements:
    whole rows of the leading axis, or a longer row cut into blocks of its own.  Each
    array argument arrives sliced from its broadcast view and flat, so only a block of
    it is ever copied, a 0-d one whole; each block is written into one output.
    """
    grid = np.broadcast(*args)
    if grid.size <= _BLOCK:
        return body(*args)
    views = [None if np.ndim(a) == 0 else np.broadcast_to(a, grid.shape) for a in args]
    row = grid.size // grid.shape[0]
    step = max(_BLOCK // row, 1)
    out = np.empty(grid.size)
    for start in range(0, grid.shape[0], step):
        # the block's arguments, then its values
        block = [a if v is None else v[start:start + step] for a, v in zip(args, views)]
        if row > _BLOCK:    # one row, in blocks of its own
            block = _blockwise(body, *(b if v is None else b[0] for b, v in zip(block, views)))
        else:
            block = body(*(b if v is None else b.reshape(-1) for b, v in zip(block, views)))
        out[start * row:(start + step) * row] = block.reshape(-1)
    return out.reshape(grid.shape)


def _into(ufunc, out, *args):
    # ufunc(*args) written over `out` where that is an array; a new scalar otherwise,
    # by the operator where there is one, ~10x cheaper than a ufunc call on scalars
    if type(out) is np.ndarray:
        return ufunc(*args, out=out)
    return _OPERATOR.get(ufunc, ufunc)(*args)


def _horner(x, coefs):
    # ((c0 x + c1) x + ...) x + c_last, updated in place
    acc = coefs[0] * x
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def _exp_neg_sq(x):
    # exp(-x^2) for x >= 0, split so the rounding of x*x does not contaminate
    # the relative error at large x; saturated at 28, where it is 0 already
    x = np.minimum(x, 28.0)
    ysq = 16.0 * x
    ysq = _into(np.trunc, ysq, ysq)
    ysq /= 16.0                     # x rounded down to a multiple of 1/16
    delta = ysq - x
    x += ysq
    delta *= x                      # ysq^2 - x^2
    delta = _into(np.exp, delta, delta)
    out = _into(np.negative, x, ysq)
    out *= ysq
    out = _into(np.exp, out, out)
    out *= delta
    return out


def _erf_small(x):
    # |x| <= 0.46875
    y = x * x
    num, den = (_horner(y, c) for c in _SMALL_RATIO)
    num *= x
    num /= den
    return num


def _erfcx_mid(x):
    # 0.46875 < x <= 4: the mid-range rational is the scaled complement
    num, den = (_horner(x, c) for c in _MID_RATIO)
    num /= den
    return num


def _erfcx_far(x):
    # 4 < x <= 6
    y = x * x
    y = _into(np.divide, y, 1.0, y)
    num, den = (_horner(y, c) for c in _FAR_RATIO)
    num *= y
    num /= den
    num = _into(np.subtract, num, _INV_SQRT_PI, num)
    num /= x
    return num


def _erfcx_cf(x):
    # x >= 6: Laplace continued fraction of 40 terms, evaluated bottom-up
    tail = 20.0 / x                 # the n = 40 level, 20 / (0 + x)
    for n in range(39, 0, -1):
        tail += x
        tail = _into(np.divide, tail, 0.5 * n, tail)
    tail += x
    return _into(np.divide, tail, _INV_SQRT_PI, tail)


_SCALED = ((_MID_MAX, _erfcx_mid), (_RATIONAL_MAX, _erfcx_far), (np.inf, _erfcx_cf))


def _by_range(x, name, small, scaled, reflect):
    """One of the family at x, from its values at |x| and one reflection.

    small(a) gives the value on a <= 0.46875, scaled(a, r) beyond it from
    r = erfcx(a); reflect(x, v) maps the value v at |x| to the one at x
    where x carries a minus sign.
    """
    arr = _as_array(x, name)
    if arr.size == 1:               # one element: its range by comparison, on a scalar
        v = arr.ravel()[0]
        a = abs(v)
        out = small(a) if a <= _SMALL_MAX else next(
            scaled(a, f(a)) for edge, f in _SCALED if a <= edge)
        return _result(reflect(v, out) if math.copysign(1.0, v) < 0 else out, arr.shape)
    flat = arr.ravel()
    a = np.abs(flat)
    out = np.empty_like(a)
    below = a <= _SMALL_MAX
    at = below.nonzero()[0]
    if at.size:
        out[at] = small(a[at])
    for edge, erfcx_range in _SCALED:
        upto = a <= edge
        at = (upto > below).nonzero()[0]
        if at.size:
            part = a[at]
            out[at] = scaled(part, erfcx_range(part))
        below = upto
    at = np.signbit(flat).nonzero()[0]     # the sign bit, so erf(-0.0) stays -0.0
    if at.size:
        out[at] = reflect(flat[at], out[at])
    return _result(out, arr.shape)


def _erfc_small(a):
    return 1.0 - _erf_small(a)


def _erfc_scaled(a, r):
    r *= _exp_neg_sq(a)
    return r


_ERFC = (_erfc_small, _erfc_scaled, lambda x, v: 2.0 - v)   # erfc's pieces for _by_range


def erf(x):
    """Gauss error function, odd in x, saturating to +-1 at infinity."""
    return _by_range(x, "erf", _erf_small, lambda a, r: 1.0 - _erfc_scaled(a, r),
                     lambda x, v: -v)


def erfc(x):
    """Complementary error function 1 - erf(x), cancellation-free for x > 0."""
    return _by_range(x, "erfc", *_ERFC)


def _erfcx_reflect(x, v):
    with np.errstate(over="ignore"):
        return 2.0 * np.exp(x * x) - v


def erfcx(x):
    """Scaled complement exp(x^2) * erfc(x).

    Decays like 1/(x sqrt(pi)) for large positive x and blows up like
    2 exp(x^2) for large negative x (overflowing to inf past x ~ -26.6,
    which is the correct saturation).
    """
    return _by_range(x, "erfcx", lambda a: np.exp(a * a) * _erfc_small(a),
                     lambda a, r: r, _erfcx_reflect)


def normal_cdf(v):
    """Standard normal CDF N(v) = erfc(-v/sqrt(2)) / 2."""
    return 0.5 * _by_range(np.asarray(v, dtype=float) / -SQRT_TWO, "normal_cdf", *_ERFC)
