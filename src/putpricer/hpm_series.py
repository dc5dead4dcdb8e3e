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

and are exactly the w-Taylor coefficients of the exact reduced solution;
both facts are enforced by the test suite.  Right-tail evaluation routes
through erfcx so the structural cancellation between the Gaussian and
erfc pieces costs absolute, not relative, accuracy.  Only P_n and Q_n
change with n, so a series sum evaluates G and erfc/erfcx once per point
on each side of z = 0 and every term reuses them.
"""

from __future__ import annotations

import numpy as np

from .special_functions import SQRT_PI, _result, erfc, erfcx
from .transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    _field,
    _log_moneyness,
    basket_coordinate,
    basket_reduced_params,
    geometric_mean,
    reduce_basket,
    reduce_quanto,
    to_dimensionless_arrays,
)

MAX_ORDER = 6  # retained terms f_0 .. f_5

_INV_SQRT_PI = 1.0 / SQRT_PI


def _sides(z):
    """Split z at 0 and evaluate each side's special functions once.

    Yields (mask, zs, combine) for each side that has points, where
    combine(p, q) = p G(zs) + q (erf(zs/2) - 1) for polynomials evaluated
    on zs: through G and erfc(z/2) left of 0, through exp(-z^2/4) and
    erfcx(z/2) right of it.  Every term of a sum reuses the factors.
    """
    left = z <= 0.0
    if left.any():
        zl = z[left]
        gauss = np.exp(-0.25 * zl * zl) * _INV_SQRT_PI
        tail = erfc(0.5 * zl)
        yield left, zl, lambda p, q: p * gauss - q * tail
    right = ~left
    if right.any():
        zr = z[right]
        decay = np.exp(-0.25 * zr * zr)
        scaled = erfcx(0.5 * zr)
        yield right, zr, lambda p, q: decay * (p * _INV_SQRT_PI - q * scaled)


def _term(polys, n, z, *coefs):
    """f_n(z) of one family, with (P_n, Q_n) = polys(n, zs, *coefs) on each side."""
    out = np.empty(z.shape)
    for mask, zs, combine in _sides(z):
        out[mask] = combine(*polys(n, zs, *coefs))
    return out


def _series(z, w, order, k1, k2):
    """sum_{n<order} f_n(z) w^{n+1} of the (k1, k2) family, term by term on each side of z = 0."""
    w = np.broadcast_to(w, z.shape)
    total = np.empty(z.shape)
    for mask, zs, combine in _sides(z):
        ws = w[mask]
        side = np.zeros_like(zs)
        w_pow = ws
        for n in range(order):
            side = side + combine(*_phi_polys(n, zs, k1, k2)) * w_pow
            w_pow = w_pow * ws
        total[mask] = side
    return total


# ---------------------------------------------------------------------------
# generalized (k1, k2) polynomial factors
# ---------------------------------------------------------------------------


def _phi_polys(n, z, k1, k2):
    one = np.ones_like(z)
    z2 = z * z
    if n == 0:
        return one, 0.5 * z
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
    one = np.ones_like(z)
    z2 = z * z
    if n == 0:
        return one, 0.5 * z
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
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: coordinate must be finite")
    return arr


def phi_term(n, xi, params: GeneralizedReducedParams):
    """f_n(xi) of the generalized family: the w^n-stripped series factor."""
    z = _check_term_args(n, xi, "phi_term")
    return _result(_term(_phi_polys, n, z, params.k1, params.k2), np.shape(xi))


def single_asset_term(n, z, k):
    """f_n(z) of the single-asset family; equals phi_term at k1 = k2 = k."""
    z_arr = _check_term_args(n, z, "single_asset_term")
    return _result(_term(_single_polys, n, z_arr, k), np.shape(z))


# ---------------------------------------------------------------------------
# series sums
# ---------------------------------------------------------------------------


def hpm1_reduced(x, tau, k):
    """Naive series value max(e^{-k tau} - e^x, 0) in reduced coordinates."""
    x_arr = np.asarray(x, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    if (tau_arr < 0).any():
        raise ValueError("hpm1_reduced: tau must be nonnegative")
    return _result(np.maximum(np.exp(-k * tau_arr) - np.exp(x_arr), 0.0))


def _check_order(order):
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")


def hpm_reduced_sum(y, tau, params: GeneralizedReducedParams, order: int = MAX_ORDER):
    """Smoothed series value v(y, tau) = sqrt(tau) sum_{n<order} f_n(y/sqrt(tau)) tau^{n/2}.

    `y` and `tau` broadcast against each other.  Returns the raw (unclamped)
    partial sum; price-level callers clamp.  Where tau = 0 the payoff
    max(1 - e^y, 0) applies directly.
    """
    _check_order(order)
    y_arr = np.asarray(y, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    if (tau_arr < 0).any():
        raise ValueError("hpm_reduced_sum: tau must be nonnegative")
    shape = np.broadcast(y_arr, tau_arr).shape
    expired = tau_arr == 0.0
    any_expired = bool(expired.any())
    if any_expired:
        payoff = np.maximum(1.0 - np.exp(y_arr), 0.0)
        if expired.all():
            return _result(np.broadcast_to(payoff, shape).copy())
        # any finite point stands in where the payoff replaces the series
        y_arr = np.where(expired, 0.0, y_arr)
        tau_arr = np.where(expired, 1.0, tau_arr)
    w = np.sqrt(tau_arr)
    z = _check_coordinate(y_arr / w, "hpm_reduced_sum")
    total = _series(z, w, order, params.k1, params.k2)
    if any_expired:
        total = np.where(expired, payoff, total)
    return _result(total, shape)


# ---------------------------------------------------------------------------
# price pipelines
# ---------------------------------------------------------------------------


def price_single_hpm1(spec: VanillaOptionSpec, spot=None, valuation_time=None):
    """Naive-series put price K max(e^{-k tau} - S/K, 0).

    Takes broadcastable arrays of spot and valuation time if given; fields
    not given come from `spec`.  Spot 0 is allowed.
    """
    x, tau, k = to_dimensionless_arrays(spec, spot, valuation_time)
    return spec.strike * hpm1_reduced(x, tau, k)


def price_single_hpm2(spec: VanillaOptionSpec, order: int = MAX_ORDER,
                      spot=None, valuation_time=None):
    """Smoothed-series put price, clamped to be nonnegative.

    Takes broadcastable arrays of spot and valuation time if given; fields
    not given come from `spec`.  At spot 0 before expiry the even-order
    series tends to -inf and clamps to 0; the odd-order one is unbounded
    and raises.
    """
    _check_order(order)
    x, tau, k = to_dimensionless_arrays(spec, spot, valuation_time)
    at_zero = np.isneginf(x) & (tau > 0.0)
    any_zero = bool(at_zero.any())
    if any_zero:
        if order % 2 != 0:
            raise ValueError(
                "the odd-order series is unbounded at spot 0; use an even order or "
                "start the grid above 0"
            )
        x = np.where(at_zero, 0.0, x)
    v = hpm_reduced_sum(x, tau, GeneralizedReducedParams(k1=k, k2=k), order)
    price = np.maximum(spec.strike * v, 0.0)
    return _result(np.where(at_zero, 0.0, price) if any_zero else price)


def price_basket_hpm(spec: BasketSpec, order: int = MAX_ORDER, spots=None):
    """Series price of a geometric basket put, over spot vectors along the last axis of `spots`.

    The basket reduces to the dimensionless (k1, k2) equation in the
    coordinate xi = sum alpha_i ln(S_i/K).  Fields other than the spots
    come from `spec`.
    """
    _check_order(order)
    if spec.time_remaining == 0.0:
        return _result(np.maximum(spec.strike - geometric_mean(spec, spots), 0.0))
    red = reduce_basket(spec)
    tau = 0.5 * red.sigma_hat**2 * spec.time_remaining
    xi = basket_coordinate(spec, spots)
    v = hpm_reduced_sum(xi, tau, basket_reduced_params(red, spec.rate), order)
    return _result(np.maximum(spec.strike * v, 0.0))


def price_quanto_hpm(spec: QuantoSpec, order: int = MAX_ORDER, s1=None, s2=None):
    """Series price of a quanto put, over broadcastable arrays of s1 and s2 if given.

    The reduced strike E/S2 is taken at valuation time, so the pipeline is
    deterministic; accuracy is judged against the exact formula.  Fields
    not given come from `spec`.
    """
    _check_order(order)
    s1, s2 = _field("s1", s1, spec.s1), _field("s2", s2, spec.s2)
    if spec.time_remaining == 0.0:
        return _result(s2 * np.maximum(spec.strike - s1, 0.0))
    red = reduce_quanto(spec)
    params = GeneralizedReducedParams(k1=red.k1, k2=red.k2)
    y = _log_moneyness(s1, spec.strike)
    tau = 0.5 * red.sigma_hat_sq * spec.time_remaining
    v = hpm_reduced_sum(y, tau, params, order)
    strike_reduced = spec.strike / s2
    return _result(np.maximum(s2 * s2 * strike_reduced * v, 0.0))
