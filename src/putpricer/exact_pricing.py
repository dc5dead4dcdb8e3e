"""Closed-form put prices and the generalized reduced-coordinate solution.

The single-asset, n-asset geometric basket and quanto formulas are all
instances of one exact solution of the reduced equation; `reduced_exact_u`
evaluates that solution directly and the market-level pricers implement the
familiar formulas in market variables.  Deep tails route through the scaled
complement so Gaussian-times-erfc products never underflow prematurely.
"""

from __future__ import annotations

import math

import numpy as np

from .special_functions import SQRT_TWO, _blockwise, _quiet, _result, erfcx, normal_cdf
from .transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    _libm,
    _live_time,
    _log_moneyness,
    _price_or_payoff,
    _require,
    _square,
    geometric_mean,
    reduce_basket,
    reduce_quanto,
)


def _clamp_tiny_negative(value, scale):
    # floating-point cancellation in two-term differences; anything more
    # negative than rounding noise is a genuine bug and passes through
    negative = np.less(value, 0.0)
    if not negative.any():
        return value
    return np.where(negative & (-1e-16 * scale < value), 0.0, value)


def bs_put(spec: VanillaOptionSpec):
    """European put price; any field of `spec` may be an array, one contract per element.

    Spot 0 gives the limit E e^{-r(T-t)}; at expiry the contractual payoff
    applies.
    """
    t, expired = _live_time(spec.time_remaining)
    with _quiet(spec.vol):      # an array vol past float range: refused below, unwarned
        half_var = 0.5 * spec.vol * spec.vol
    # past float range d1 and d2 would both be +inf and the price 0, not its limit E e^{-r(T-t)}
    _require(half_var * t < math.inf, "vol {} is too large: vol^2 (T - t) overflows", spec.vol)
    vol_sqrt_t = spec.vol * np.sqrt(t)
    d1 = (_log_moneyness(spec.spot, spec.strike) + (spec.rate + half_var) * t) / vol_sqrt_t
    d2 = d1 - vol_sqrt_t
    value = spec.strike * _libm(math.exp, -spec.rate * t) * normal_cdf(-d2) - (
        spec.spot * normal_cdf(-d1)
    )
    value = _clamp_tiny_negative(value, spec.strike)
    if expired is not None:
        value = np.where(expired, np.maximum(spec.strike - spec.spot, 0.0), value)
    return _result(value)


def basket_put_exact(spec: BasketSpec):
    """Exact geometric-basket put over the spot vectors along the last axis of `spec.spots`.

    P = E e^{-r(T-t)} N(-d2h) - e^{-qh(T-t)} prod S_i^alpha_i N(-d1h).
    The scalar fields and the covariance stack of `spec` may be arrays.  A
    geometric basket of lognormal assets is lognormal for every n, so the
    formula holds for any number of assets.
    """
    def live(t_rem):
        geo = geometric_mean(spec)
        red = reduce_basket(spec)
        _require(red.sigma_hat > 0.0,
                 "degenerate basket volatility: sigma_hat must be positive, got {}",
                 red.sigma_hat)
        vol_sqrt_t = red.sigma_hat * _libm(math.sqrt, t_rem)
        d1 = (
            _log_moneyness(geo, spec.strike)
            + (spec.rate - red.q_hat + 0.5 * _libm(_square, red.sigma_hat)) * t_rem
        ) / vol_sqrt_t
        d2 = d1 - vol_sqrt_t
        value = spec.strike * _libm(math.exp, -spec.rate * t_rem) * normal_cdf(-d2) - (
            _libm(math.exp, -red.q_hat * t_rem) * geo * normal_cdf(-d1)
        )
        return _clamp_tiny_negative(value, spec.strike)

    return _price_or_payoff(spec, live)


def quanto_put_exact(spec: QuantoSpec):
    """Exact quanto put in market variables; any field of `spec` may be an array.

    P = E S2 e^{-rh(T-t)} N(-d1) - S1 S2 e^{(qh-rh)(T-t)} N(-d2) with
    d1 = [ln(S1/E) + (qh - sh^2/2)(T-t)] / (sh sqrt(T-t)) and d2 the same
    with +sh^2/2.  Note this d1/d2 labeling is opposite to the vanilla
    convention; the finite-difference oracle adjudicates the sign choices.
    """
    s1, s2 = spec.s1, spec.s2

    def live(t_rem):
        red = reduce_quanto(spec)
        sigma_hat = _libm(math.sqrt, red.sigma_hat_sq)
        vol_sqrt_t = sigma_hat * _libm(math.sqrt, t_rem)
        log_m = _log_moneyness(s1, spec.strike)
        d1 = (log_m + (red.q_hat - 0.5 * red.sigma_hat_sq) * t_rem) / vol_sqrt_t
        d2 = (log_m + (red.q_hat + 0.5 * red.sigma_hat_sq) * t_rem) / vol_sqrt_t
        value = spec.strike * s2 * _libm(math.exp, -red.r_hat * t_rem) * normal_cdf(-d1) - (
            s1 * s2 * _libm(math.exp, (red.q_hat - red.r_hat) * t_rem) * normal_cdf(-d2)
        )
        return _clamp_tiny_negative(value, spec.strike * s2)

    return _price_or_payoff(spec, live)


def reduced_exact_u(y, tau, params: GeneralizedReducedParams):
    """Exact solution of u_tau = u_yy + (k1-1) u_y - k2 u with put initial data.

    Heat-kernel form: u = e^{-k2 tau} N(-d1) - e^{y + (k1-k2) tau} N(-d2),
    d1 = y/sqrt(2 tau) + sqrt(tau/2)(k1 - 1), d2 likewise with (k1 + 1).
    Accepts scalars or broadcastable arrays in (y, tau) and in the pair
    (k1, k2); requires tau > 0.  Over 16,384 elements it runs in `_blockwise`
    blocks: the same bits, in about the output's memory plus one block's.
    """
    y_arr = np.asarray(y, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    if not (np.isfinite(y_arr).all() and np.isfinite(tau_arr).all()):
        raise ValueError("reduced_exact_u: non-finite input")
    if (tau_arr <= 0).any():
        raise ValueError("reduced_exact_u: tau must be positive (payoff applies at tau=0)")
    return _result(_blockwise(_exact_u, y_arr, tau_arr, params.k1, params.k2))


def _exact_u(y, tau, k1, k2):
    root = np.sqrt(2.0 * tau)
    d2 = y / root + root * (k1 + 1.0) / 2.0
    # d1 = y/sqrt(2 tau) + sqrt(tau/2)(k1 - 1) is used only here, so it is not kept alive
    first = np.exp(-k2 * tau) * normal_cdf(-(y / root + root * (k1 - 1.0) / 2.0))
    # second term scaled through erfcx when d2 > 0 so e^y * N(-d2) cannot
    # overflow/underflow pairwise for far-out coordinates; each branch is
    # evaluated only where it applies
    expo = y + (k1 - k2) * tau
    shape = np.broadcast_shapes(d2.shape, expo.shape)   # k2 may add axes that d2 lacks
    d2 = np.broadcast_to(d2, shape).reshape(-1)
    expo = np.broadcast_to(expo, shape).reshape(-1)
    second = np.zeros(d2.size)
    at = (d2 <= 0).nonzero()[0]
    if at.size:
        second[at] = np.exp(expo[at]) * normal_cdf(-d2[at])
    at = (d2 > 0).nonzero()[0]
    if at.size:
        ds = d2[at]
        second[at] = 0.5 * np.exp(expo[at] - 0.5 * ds * ds) * erfcx(ds / SQRT_TWO)
    return first - second.reshape(shape)
