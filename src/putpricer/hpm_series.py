"""Perturbation-series approximations of the reduced put equation.

Two series families live here.  The naive expansion solves the reduced
equation order by order in its original coordinates and produces the
discontinuous `hpm1` value.  The smoothed expansion works in similarity
coordinates z = y/sqrt(tau), w = sqrt(tau), where the payoff kink sits at
z = +-infinity, and every term has the smooth form

    u_n(z, w) = f_n(z) w^n,   f_n(z) = P_n(z) G(z) + Q_n(z) (erf(z/2) - 1),

with G(z) = exp(-z^2/4)/sqrt(pi) and polynomial P_n, Q_n.  The generalized
(k1, k2) family is the engine every contract prices through (a geometric
basket and a quanto reduce to it); the single-asset family is its
k1 = k2 = k specialization, kept in its own grouping as an independent
side for the specialization identity.

The terms satisfy the recursion

    2 f_n'' + z f_n' - (n+1) f_n + 2(k1 - 1) f_{n-1}' - 2 k2 f_{n-2} = 0,

and are exactly the w-Taylor coefficients of the exact reduced solution.
`validate` checks the first fact exactly, as two identities between the
coefficients of P_n and Q_n in z; the test suite checks the second against
mpmath.  Right-tail evaluation routes through erfcx so the structural
cancellation between the Gaussian and erfc pieces costs absolute, not
relative, accuracy.  Only P_n and Q_n change with n, so G and erfc/erfcx
are evaluated once per point on each side of z = 0 and every term reuses
them.  One term loop, `_side_terms`, serves both the series sums (summed
side by side) and the term evaluators (one row per order).  A side that holds
one point runs that loop on numpy float64 scalars (its z, w and factors; an
array k stays a one-element array, for numpy's array power), with the bits
of that point's lane in an array call.
"""

from __future__ import annotations

import math

import numpy as np

from .special_functions import SQRT_PI, _blockwise, _result, erfc, erfcx
from .transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    _is_float,
    _libm,
    _live_time,
    _price_or_payoff,
    _require,
    reduce_contract,
)

MAX_ORDER = 6  # retained terms f_0 .. f_5

_INV_SQRT_PI = 1.0 / SQRT_PI


def _sides(z):
    """Split z at 0 by flat index and evaluate each side's special functions once.

    Yields (at, zs, combine) for each side that has points, where `at`
    indexes z flattened and combine(p, q) = p G(zs) + q (erf(zs/2) - 1) for
    polynomials evaluated on zs: through G and erfc(z/2) left of 0, through
    exp(-z^2/4) and erfcx(z/2) right of it.  Every term of a sum reuses the
    factors.  A side of one point has zs, and so its factors, as numpy
    float64 scalars (`_point`).
    """
    z = z.reshape(-1)
    left = z <= 0.0
    at = left.nonzero()[0]
    if at.size:
        zl = _point(z, at)
        gauss = np.exp(-0.25 * zl * zl) * _INV_SQRT_PI
        tail = erfc(0.5 * zl)
        yield at, zl, lambda p, q: p * gauss - q * tail
    at = (~left).nonzero()[0]
    if at.size:
        zr = _point(z, at)
        decay = np.exp(-0.25 * zr * zr)
        scaled = erfcx(0.5 * zr)
        yield at, zr, lambda p, q: decay * (p * _INV_SQRT_PI - q * scaled)


def _point(values, at):
    """values[at] of a flat array, or a one-point side's value as a numpy float64 scalar."""
    return values[at[0]] if at.size == 1 else values[at]


def _on_side(coef, at, shape):
    """A coefficient on one side's points: a float as is, an array broadcast and indexed flat."""
    return coef if _is_float(coef) else np.broadcast_to(coef, shape).reshape(-1)[at]


def _with_coefs(z, *coefs):
    """z broadcast against the array coefficients (one contract per element)."""
    shapes = [np.shape(c) for c in coefs if not _is_float(c)]
    return np.broadcast_to(z, np.broadcast_shapes(z.shape, *shapes)) if shapes else z


# The order-5 factors carry k^5 times coefficients up to ~1e4, so they
# overflow once |k| nears 1e60: a float power raises OverflowError there, and
# an array one returns inf or nan without a word.  Such k are refused first,
# and so is a priced contract's tau past the cap (w^6 = tau^3 overflows near 1e102).
_MAX_COEF = 1e50


def _side_terms(polys, orders, z, w, *coefs):
    """The term loop of both families: f_n(z) w^i for the i-th n of `orders` (i = 1, 2, ...).

    `w` and array coefficients broadcast to z's shape.  Yields (at, terms)
    for each side of z = 0 that has points: `at` indexes z flattened, and
    `terms` yields the side's terms order by order from one `_sides` pass.
    """
    for coef in coefs:
        _require(abs(coef) <= _MAX_COEF,
                 "series terms overflow: |k1|, |k2| must not exceed 1e50, got {}", coef)
    for at, zs, combine in _sides(z):
        side_coefs = [_on_side(c, at, z.shape) for c in coefs]
        ws = w if _is_float(w) else _point(np.broadcast_to(w, z.shape).reshape(-1), at)
        yield at, _weighted_terms(polys, orders, zs, combine, ws, side_coefs)


def _weighted_terms(polys, orders, zs, combine, ws, coefs):
    w_pow = ws
    for n in orders:
        yield combine(*polys(n, zs, *coefs)) * w_pow
        w_pow = w_pow * ws


def _term_rows(polys, orders, z, *coefs):
    """f_n(z) of one family, one row per n in `orders`, over z broadcast against array k."""
    z = _with_coefs(z, *coefs)
    rows = np.empty((len(orders), z.size))
    for at, terms in _side_terms(polys, orders, z, 1.0, *coefs):
        for row, term in zip(rows, terms):    # a one-point side's term: a scalar or (1,)
            row[at] = term
    return rows.reshape((len(orders),) + z.shape)


def _series(z, w, order, k1, k2):
    """sum_{n<order} f_n(z) w^{n+1} of the (k1, k2) family, summed on each side of z = 0."""
    z = _with_coefs(z, k1, k2)
    total = np.empty(z.size)
    for at, terms in _side_terms(_phi_polys, range(order), z, w, k1, k2):
        total[at] = sum(terms)
    return total.reshape(z.shape)


# ---------------------------------------------------------------------------
# generalized (k1, k2) polynomial factors
# ---------------------------------------------------------------------------


def _phi_polys(n, z, k1, k2):
    if n == 0:
        return np.ones_like(z), 0.5 * z
    z2 = z * z
    if n == 1:
        return 0.5 * z, 0.25 * (z2 + 2.0 * k1)
    d = k1 - k2
    if n == 2:
        p = (2.0 * z2 + 3.0 * k1 * k1 + 6.0 * k1 - 12.0 * k2 - 1.0) / 12.0
        q = z * (z2 + 6.0 * d) / 12.0
        return p, q
    if n == 3:
        p = 2.0 * z * (z2 - k1**3 + 3.0 * k1 * k1 + 9.0 * k1 - 12.0 * k2 - 1.0) / 48.0
        q = (z2 * z2 + 12.0 * d * z2 + 12.0 * k1 * (k1 - 2.0 * k2)) / 48.0
        return p, q
    z4 = z2 * z2
    if n == 4:
        # the z^2 coefficient carries -160 k2 so that the recursion closes and
        # the k1 = k2 = k specialization reduces to the single-asset -20 k
        p = (
            8.0 * z4
            + (5.0 * k1**4 - 20.0 * k1**3 + 30.0 * k1 * k1 + 140.0 * k1
               - 160.0 * k2 - 11.0) * z2
            - 10.0 * k1**4 + 120.0 * k1**3 + 180.0 * k1 * k1 - 40.0 * k1
            - 240.0 * (k1 * k1 + 2.0 * k1) * k2 + 480.0 * k2 * k2 + 80.0 * k2 + 6.0
        ) / 960.0
        q = 4.0 * z * (z4 + 20.0 * d * z2 + 60.0 * d * d) / 960.0
        return p, q
    if n == 5:
        p = (
            8.0 * z4 * z
            - (3.0 * k1**5 - 15.0 * k1**4 + 30.0 * k1**3 - 30.0 * k1 * k1
               - 225.0 * k1 + 240.0 * k2 + 13.0) * z2 * z
            + (18.0 * k1**5 - 150.0 * k1**4 + 420.0 * k1**3 + 900.0 * k1 * k1
               - 150.0 * k1
               + (240.0 * k1**3 - 720.0 * k1 * k1 - 2160.0 * k1) * k2
               + 1440.0 * k2 * k2 + 240.0 * k2 + 18.0) * z
        ) / 5760.0
        q = 4.0 * (z4 * z2 + 30.0 * d * z4 + 180.0 * d * d * z2
                   + 120.0 * k1 * (k1 * k1 - 3.0 * k1 * k2 + 3.0 * k2 * k2)) / 5760.0
        return p, q
    raise AssertionError(f"unreachable order {n}")


# ---------------------------------------------------------------------------
# single-asset polynomial factors (k1 = k2 = k, kept in their own grouping)
# ---------------------------------------------------------------------------


def _single_polys(n, z, k):
    if n == 0:
        return np.ones_like(z), 0.5 * z
    z2 = z * z
    if n == 1:
        return 0.5 * z, 0.25 * (z2 + 2.0 * k)
    if n == 2:
        p = (2.0 * z2 + 3.0 * k * k - 6.0 * k - 1.0) / 12.0
        q = z * z2 / 12.0
        return p, q
    if n == 3:
        p = 2.0 * z * (z2 - k**3 + 3.0 * k * k - 3.0 * k - 1.0) / 48.0
        q = (z2 * z2 - 12.0 * k * k) / 48.0
        return p, q
    z4 = z2 * z2
    if n == 4:
        p = (
            8.0 * z4
            + (5.0 * k**4 - 20.0 * k**3 + 30.0 * k * k - 20.0 * k - 11.0) * z2
            - 10.0 * k**4 - 120.0 * k**3 + 180.0 * k * k + 40.0 * k + 6.0
        ) / 960.0
        q = 4.0 * z4 * z / 960.0
        return p, q
    if n == 5:
        p = (
            8.0 * z4 * z
            - (3.0 * k**5 - 15.0 * k**4 + 30.0 * k**3 - 30.0 * k * k
               + 15.0 * k + 13.0) * z2 * z
            + (18.0 * k**5 + 90.0 * k**4 - 300.0 * k**3 + 180.0 * k * k
               + 90.0 * k + 18.0) * z
        ) / 5760.0
        q = (4.0 * z4 * z2 + 480.0 * k**3) / 5760.0
        return p, q
    raise AssertionError(f"unreachable order {n}")


# ---------------------------------------------------------------------------
# term evaluators
# ---------------------------------------------------------------------------


def _check_term_args(n, value, name):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"{name}: term index must be an integer, got {n!r}")
    if not 0 <= n < MAX_ORDER:
        raise ValueError(
            f"{name}: unsupported series order {n}; terms stop at {MAX_ORDER - 1}"
        )
    return _check_coordinate(value, name)


def _check_coordinate(value, name):
    # the same cap as on |k| keeps z^6 finite; the comparison also fails on nan and inf
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if not (np.abs(arr) <= _MAX_COEF).all():
        raise ValueError(f"{name}: coordinate must be finite and at most 1e50 in magnitude")
    return arr


def _term(name, polys, n, value, *coefs):
    """f_n(value) of one family: the one-order case of `_term_rows`, over the broadcast shape."""
    z = _check_term_args(n, value, name)
    shape = np.broadcast_shapes(np.shape(value), *map(np.shape, coefs))
    return _result(_term_rows(polys, (n,), z, *coefs)[0], shape)


def phi_term(n, xi, params: GeneralizedReducedParams):
    """f_n(xi) of the generalized family: the w^n-stripped series factor.

    `xi` broadcasts against array `params.k1`, `params.k2`.
    """
    return _term("phi_term", _phi_polys, n, xi, params.k1, params.k2)


def single_asset_term(n, z, k):
    """f_n(z) of the single-asset family; equals phi_term at k1 = k2 = k (`z`, `k` broadcast)."""
    return _term("single_asset_term", _single_polys, n, z, k)


# ---------------------------------------------------------------------------
# series sums
# ---------------------------------------------------------------------------


def hpm1_reduced(x, tau, k):
    """Naive series value max(e^{-k tau} - e^x, 0) in reduced coordinates."""
    x_arr = np.asarray(x, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    if (tau_arr < 0).any():
        raise ValueError("hpm1_reduced: tau must be nonnegative")
    with np.errstate(invalid="ignore"):     # k tau = 0 * inf is nan, refused below
        value = np.maximum(np.exp(-k * tau_arr) - np.exp(x_arr), 0.0)
    _require(~np.isnan(value), "hpm1_reduced: NaN input or k * tau = 0 * inf")
    return _result(value)


def _check_order(order):
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")


def hpm_reduced_sum(y, tau, params: GeneralizedReducedParams, order: int = MAX_ORDER):
    """Smoothed series value v(y, tau) = sqrt(tau) sum_{n<order} f_n(y/sqrt(tau)) tau^{n/2}.

    `y`, `tau` and array `params.k1`, `params.k2` broadcast against each other.  Returns the
    raw (unclamped) partial sum; price-level callers clamp.  Where tau = 0 the payoff
    max(1 - e^y, 0) applies directly.  Over 16,384 elements it runs in `_blockwise` blocks:
    the same bits, in about the output's memory plus one block's.
    """
    _check_order(order)
    y_arr = np.asarray(y, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    if (tau_arr < 0).any():
        raise ValueError("hpm_reduced_sum: tau must be nonnegative")
    return _result(_blockwise(_reduced_sum, y_arr, tau_arr, params.k1, params.k2, order))


def _reduced_sum(y_arr, tau_arr, k1, k2, order):
    shape = np.broadcast(y_arr, tau_arr, k1, k2).shape
    tau_arr, expired = _live_time(tau_arr)
    if expired is not None:
        payoff = np.maximum(1.0 - np.exp(y_arr), 0.0)
        if expired.all():
            return np.broadcast_to(payoff, shape).copy()
        # any finite point stands in where the payoff replaces the series
        y_arr = np.where(expired, 0.0, y_arr)
    w = np.sqrt(tau_arr)
    z = _check_coordinate(y_arr / w, "hpm_reduced_sum")
    total = _series(z, w, order, k1, k2)
    if expired is not None:
        total = np.where(expired, payoff, total)
    return total.reshape(shape)


# ---------------------------------------------------------------------------
# price pipelines
# ---------------------------------------------------------------------------


def _series_price(spec, order):
    """`scale * v` of `reduce_contract(spec)` summed to `order` terms, clamped to be nonnegative.

    Expired baskets and quantos pay their payoff unreduced.  A single asset is
    always reduced: at tau = 0 the series pays max(1 - e^y, 0), and at spot 0
    (y = -inf, which only it admits) before expiry the series' limit: the
    even-order sum tends to -inf and clamps to 0, the odd-order one raises.
    """
    _check_order(order)
    single = isinstance(spec, VanillaOptionSpec)

    def live(_):    # tau is the spec's; `_price_or_payoff` replaces the expired, tau = 0
        red = reduce_contract(spec)
        _require(red.tau <= _MAX_COEF,
                 "series terms overflow: reduced time tau must not exceed 1e50, got {}", red.tau)
        y, at_zero = red.y, (red.y == -math.inf) & (red.tau > 0.0)
        if single and at_zero.any():
            if order % 2 != 0:
                raise ValueError("the odd-order series is unbounded at spot 0; use an even "
                                 "order or start the grid above 0")
            y = np.where(at_zero, 0.0, y)
        else:
            at_zero = None
        price = np.maximum(red.scale * hpm_reduced_sum(y, red.tau, red.params, order), 0.0)
        return price if at_zero is None else np.where(at_zero, 0.0, price)

    return _result(live(None)) if single else _price_or_payoff(spec, live)


def price_single_hpm1(spec: VanillaOptionSpec):
    """Naive-series put price K max(e^{-k tau} - S/K, 0); spot 0 is allowed.

    Any field of `spec` may be an array, one contract per element.
    """
    red = reduce_contract(spec)
    growth = -red.params.k2 * red.tau   # e^{-k tau} = e^{-r(T-t)}: refused where it overflows
    _libm(math.exp, growth if _is_float(growth) else np.max(growth, initial=0.0))
    return red.scale * hpm1_reduced(red.y, red.tau, red.params.k2)


def price_single_hpm2(spec: VanillaOptionSpec, order: int = MAX_ORDER):
    """Smoothed-series put price, clamped to be nonnegative.

    Any field of `spec` may be an array, one contract per element.  At spot
    0 before expiry an even order clamps to 0 and an odd one raises.
    """
    return _series_price(spec, order)


def price_basket_hpm(spec: BasketSpec, order: int = MAX_ORDER):
    """Series price of a geometric basket put over the spot vectors along the last axis.

    The scalar fields and the covariance stack of `spec` may be arrays.
    """
    return _series_price(spec, order)


def price_quanto_hpm(spec: QuantoSpec, order: int = MAX_ORDER):
    """Series price of a quanto put; any field of `spec` may be an array.

    The reduced strike E/S2 is taken at valuation time, so the pipeline is
    deterministic; accuracy is judged against the exact formula.
    """
    return _series_price(spec, order)
