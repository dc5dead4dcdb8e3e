"""Self-contained error-function family and the standard normal CDF.

Rational minimax approximations (Cody-style) cover |x| <= 6; beyond that a
Laplace continued fraction for the scaled complement exp(x^2)*erfc(x) takes
over, so Gaussian-times-erfc products stay meaningful far into the tails.
Everything here is pure and stateless.
"""

from __future__ import annotations

import math

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
        out = np.reshape(out, shape)
    return out if getattr(out, "ndim", 0) else float(out)


def _exp_neg_sq(x):
    # exp(-x^2) with the argument split so the rounding of x*x does not
    # contaminate the relative error at large |x|
    ysq = np.trunc(16.0 * x) / 16.0
    delta = (x - ysq) * (x + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta)


def _erf_small(x):
    # |x| <= 0.46875
    y = x * x
    num = _A[4] * y
    den = y
    for a, b in zip(_A[:3], _B[:3]):
        num = (num + a) * y
        den = (den + b) * y
    return x * (num + _A[3]) / (den + _B[3])


def _erfcx_mid(x):
    # 0.46875 < x <= 4: the mid-range rational is the scaled complement
    num = _C[8] * x
    den = x
    for c, d in zip(_C[:7], _D[:7]):
        num = (num + c) * x
        den = (den + d) * x
    return (num + _C[7]) / (den + _D[7])


def _erfcx_far(x):
    # 4 < x <= 6
    y = 1.0 / (x * x)
    num = _P[5] * y
    den = y
    for p, q in zip(_P[:4], _Q[:4]):
        num = (num + p) * y
        den = (den + q) * y
    r = y * (num + _P[4]) / (den + _Q[4])
    return (_INV_SQRT_PI - r) / x


def _erfcx_cf(x, terms=40):
    # x >= 6: Laplace continued fraction, evaluated bottom-up
    tail = np.zeros_like(x)
    for n in range(terms, 0, -1):
        tail = (0.5 * n) / (x + tail)
    return _INV_SQRT_PI / (x + tail)


def _erfcx_nonneg(x):
    # scaled complement for x >= 0, piecewise over the four ranges
    out = np.empty_like(x)
    small = x <= _SMALL_MAX
    mid = (x > _SMALL_MAX) & (x <= _MID_MAX)
    far = (x > _MID_MAX) & (x <= _RATIONAL_MAX)
    cf = x > _RATIONAL_MAX
    if small.any():
        xs = x[small]
        out[small] = np.exp(xs * xs) * (1.0 - _erf_small(xs))
    if mid.any():
        out[mid] = _erfcx_mid(x[mid])
    if far.any():
        out[far] = _erfcx_far(x[far])
    if cf.any():
        out[cf] = _erfcx_cf(x[cf])
    return out


def _erfc_nonneg(x):
    # erfc for x >= 0
    out = np.empty_like(x)
    small = x <= _SMALL_MAX
    if small.any():
        out[small] = 1.0 - _erf_small(x[small])
    rest = ~small
    if rest.any():
        xr = x[rest]
        out[rest] = _exp_neg_sq(xr) * _erfcx_nonneg(xr)
    return out


def erf(x):
    """Gauss error function, odd in x, saturating to +-1 at infinity."""
    arr = _as_array(x, "erf")
    out = np.empty_like(arr)
    inf = np.isinf(arr)
    out[inf] = np.sign(arr[inf])
    fin = ~inf
    a = arr[fin]
    sub = np.empty_like(a)
    small = np.abs(a) <= _SMALL_MAX
    sub[small] = _erf_small(a[small])
    big = ~small
    sub[big] = np.sign(a[big]) * (1.0 - _erfc_nonneg(np.abs(a[big])))
    out[fin] = sub
    return _result(out)


def erfc(x):
    """Complementary error function 1 - erf(x), cancellation-free for x > 0."""
    arr = _as_array(x, "erfc")
    out = np.empty_like(arr)
    inf = np.isinf(arr)
    if inf.any():
        out[inf] = np.where(arr[inf] > 0, 0.0, 2.0)
    fin = ~inf
    a = arr[fin]
    sub = np.empty_like(a)
    neg = a < 0
    # skipping an empty branch saves most of the cost of a one-element call
    if neg.any():
        sub[neg] = 2.0 - _erfc_nonneg(-a[neg])
    pos = ~neg
    if pos.any():
        sub[pos] = _erfc_nonneg(a[pos])
    out[fin] = sub
    return _result(out)


def erfcx(x):
    """Scaled complement exp(x^2) * erfc(x).

    Decays like 1/(x sqrt(pi)) for large positive x and blows up like
    2 exp(x^2) for large negative x (overflowing to inf past x ~ -26.6,
    which is the correct saturation).
    """
    arr = _as_array(x, "erfcx")
    out = np.empty_like(arr)
    inf = np.isinf(arr)
    if inf.any():
        out[inf] = np.where(arr[inf] > 0, 0.0, np.inf)
    fin = ~inf
    a = arr[fin]
    sub = np.empty_like(a)
    neg = a < 0
    if neg.any():
        an = a[neg]
        with np.errstate(over="ignore"):
            sub[neg] = 2.0 * np.exp(an * an) - _erfcx_nonneg(-an)
    pos = ~neg
    if pos.any():
        sub[pos] = _erfcx_nonneg(a[pos])
    out[fin] = sub
    return _result(out)


def normal_cdf(v):
    """Standard normal CDF N(v) = erfc(-v/sqrt(2)) / 2."""
    return 0.5 * erfc(-_as_array(v, "normal_cdf") / SQRT_TWO)
