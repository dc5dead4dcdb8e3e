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

from .special_functions import SQRT_TWO, _result, erfcx, normal_cdf
from .transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    _field,
    _libm,
    _libm_each,
    _live_time,
    _log_moneyness,
    _payoff_everywhere,
    _require,
    _square,
    _time_remaining,
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


def bs_put(spec: VanillaOptionSpec, spot=None, valuation_time=None):
    """European put price, over broadcastable arrays of spot and valuation time if given.

    Fields not given come from `spec`; any field of `spec` may be an array.
    Spot 0 gives the limit E e^{-r(T-t)}; at expiry the contractual payoff
    applies.
    """
    spot = _field("spot", spot, spec.spot, allow_zero=True)
    t, expired = _live_time(_time_remaining(spec, valuation_time))
    vol_sqrt_t = spec.vol * np.sqrt(t)
    d1 = (
        _log_moneyness(spot, spec.strike)
        + (spec.rate + 0.5 * spec.vol * spec.vol) * t
    ) / vol_sqrt_t
    d2 = d1 - vol_sqrt_t
    value = spec.strike * _libm_each(math.exp, -spec.rate * t) * normal_cdf(-d2) - (
        spot * normal_cdf(-d1)
    )
    value = _clamp_tiny_negative(value, spec.strike)
    if expired is not None:
        value = np.where(expired, np.maximum(spec.strike - spot, 0.0), value)
    return _result(value)


def basket_put_exact(spec: BasketSpec, spots=None):
    """Exact geometric-basket put, over spot vectors along the last axis of `spots` if given.

    P = E e^{-r(T-t)} N(-d2h) - e^{-qh(T-t)} prod S_i^alpha_i N(-d1h).
    Fields other than the spots come from `spec`, whose scalar fields and
    covariance stack may be arrays.  A geometric basket of lognormal assets
    is lognormal for every n, so the formula holds for any number of assets.
    """
    geo = geometric_mean(spec, spots)
    t_rem, expired = _live_time(spec.time_remaining)
    if expired is not None:
        payoff = np.maximum(spec.strike - geo, 0.0)
        if np.all(expired):
            return _payoff_everywhere(payoff, expired)
    red = reduce_basket(spec)
    _require(red.sigma_hat > 0.0,
             "degenerate basket volatility: sigma_hat must be positive, got {}", red.sigma_hat)
    vol_sqrt_t = red.sigma_hat * _libm(math.sqrt, t_rem)
    d1 = (
        _log_moneyness(geo, spec.strike)
        + (spec.rate - red.q_hat + 0.5 * _libm(_square, red.sigma_hat)) * t_rem
    ) / vol_sqrt_t
    d2 = d1 - vol_sqrt_t
    value = spec.strike * _libm(math.exp, -spec.rate * t_rem) * normal_cdf(-d2) - (
        _libm(math.exp, -red.q_hat * t_rem) * geo * normal_cdf(-d1)
    )
    value = _clamp_tiny_negative(value, spec.strike)
    return _result(value if expired is None else np.where(expired, payoff, value))


def quanto_put_exact(spec: QuantoSpec, s1=None, s2=None):
    """Exact quanto put in market variables, over broadcastable arrays of s1 and s2 if given.

    P = E S2 e^{-rh(T-t)} N(-d1) - S1 S2 e^{(qh-rh)(T-t)} N(-d2) with
    d1 = [ln(S1/E) + (qh - sh^2/2)(T-t)] / (sh sqrt(T-t)) and d2 the same
    with +sh^2/2.  Note this d1/d2 labeling is opposite to the vanilla
    convention; the finite-difference oracle adjudicates the sign choices.
    Fields not given come from `spec`; any field of `spec` may be an array.
    """
    s1, s2 = _field("s1", s1, spec.s1), _field("s2", s2, spec.s2)
    t_rem, expired = _live_time(spec.time_remaining)
    if expired is not None:
        payoff = s2 * np.maximum(spec.strike - s1, 0.0)
        if np.all(expired):
            return _payoff_everywhere(payoff, expired)
    red = reduce_quanto(spec)
    sigma_hat = _libm(math.sqrt, red.sigma_hat_sq)
    vol_sqrt_t = sigma_hat * _libm(math.sqrt, t_rem)
    log_m = _log_moneyness(s1, spec.strike)
    d1 = (log_m + (red.q_hat - 0.5 * red.sigma_hat_sq) * t_rem) / vol_sqrt_t
    d2 = (log_m + (red.q_hat + 0.5 * red.sigma_hat_sq) * t_rem) / vol_sqrt_t
    value = spec.strike * s2 * _libm(math.exp, -red.r_hat * t_rem) * normal_cdf(-d1) - (
        s1 * s2 * _libm(math.exp, (red.q_hat - red.r_hat) * t_rem) * normal_cdf(-d2)
    )
    value = _clamp_tiny_negative(value, spec.strike * s2)
    return _result(value if expired is None else np.where(expired, payoff, value))


def reduced_exact_u(y, tau, params: GeneralizedReducedParams):
    """Exact solution of u_tau = u_yy + (k1-1) u_y - k2 u with put initial data.

    Heat-kernel form: u = e^{-k2 tau} N(-d1) - e^{y + (k1-k2) tau} N(-d2),
    d1 = y/sqrt(2 tau) + sqrt(tau/2)(k1 - 1), d2 likewise with (k1 + 1).
    Accepts scalars or broadcastable arrays in (y, tau) and in the pair
    (k1, k2); requires tau > 0.
    """
    y_arr = np.asarray(y, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    if not (np.isfinite(y_arr).all() and np.isfinite(tau_arr).all()):
        raise ValueError("reduced_exact_u: non-finite input")
    if (tau_arr <= 0).any():
        raise ValueError("reduced_exact_u: tau must be positive (payoff applies at tau=0)")
    k1, k2 = params.k1, params.k2
    root = np.sqrt(2.0 * tau_arr)
    d1 = y_arr / root + root * (k1 - 1.0) / 2.0
    d2 = y_arr / root + root * (k1 + 1.0) / 2.0
    first = np.exp(-k2 * tau_arr) * normal_cdf(-d1)
    # second term scaled through erfcx when d2 > 0 so e^y * N(-d2) cannot
    # overflow/underflow pairwise for far-out coordinates; each branch is
    # evaluated only where it applies
    expo = y_arr + (k1 - k2) * tau_arr
    if expo.shape != d2.shape:   # k2 adds axes that d2 lacks, or the other way round
        d2, expo = np.broadcast_arrays(d2, expo)
    second = np.zeros(d2.shape)
    plain = d2 <= 0
    if plain.any():
        second[plain] = np.exp(expo[plain]) * normal_cdf(-d2[plain])
    scaled = d2 > 0
    if scaled.any():
        ds = d2[scaled]
        second[scaled] = 0.5 * np.exp(expo[scaled] - 0.5 * ds * ds) * erfcx(ds / SQRT_TWO)
    return _result(first - second)
