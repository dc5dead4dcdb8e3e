"""Coordinate changes between market contracts and the reduced equations.

Every pricing route in this library runs through the same dimensionless
convection-diffusion-reaction equation

    u_tau = u_yy + (k1 - 1) u_y - k2 u,   u(y, 0) = max(1 - e^y, 0),

parameterized by the pair (k1, k2).  The single-asset reduction gives
k1 = k2 = 2r/sigma^2; the geometric-basket and quanto reductions below
produce their own effective volatility, carry and discount parameters and
land on the same equation.  `reduce_contract` is the one map from a
contract to its coordinates, pair and price scale.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .special_functions import _quiet, _result


def _is_float(value):
    return isinstance(value, (float, int))


def _require(ok, message, *values):
    """Raise ValueError(message.format(*values)) unless `ok` holds everywhere.

    `ok` is a bool where every field involved is a float, so a scalar
    contract pays no numpy call; otherwise it is an array, and the message
    shows each value at the first element that fails.
    """
    if ok is True:
        return
    if not isinstance(ok, bool):
        if ok.all():
            return
        bad = np.logical_not(ok)
        values = tuple(np.broadcast_to(v, bad.shape)[bad][0] for v in values)
    raise ValueError(message.format(*values))


def _check_fields(owner, spec, names):
    """Require every field among `names` to be finite, elementwise for arrays.

    A field that is not a float is stored as a float ndarray first.
    """
    for name in names:
        value = getattr(spec, name)
        if _is_float(value):
            if math.isfinite(value):
                continue
            ok = False
        else:
            value = np.asarray(value, dtype=float)
            object.__setattr__(spec, name, value)
            ok = np.isfinite(value)
        _require(ok, f"{owner}: {name} must be finite, got {{}}", value)


@dataclass(frozen=True)
class VanillaOptionSpec:
    """Market and contract parameters of a single-asset European option.

    Times are in years; `valuation_time` must not exceed `maturity`.  Spot 0
    is allowed: the pricers give its limit.  Every field is a float or a
    broadcastable array (one contract per element).
    """

    spot: float
    strike: float
    rate: float
    vol: float
    maturity: float
    valuation_time: float = 0.0

    def __post_init__(self):
        _check_fields("VanillaOptionSpec", self,
                      ("spot", "strike", "rate", "vol", "maturity", "valuation_time"))
        _require(self.spot >= 0, "spot must be nonnegative, got {}", self.spot)
        _require(self.strike > 0, "strike must be positive, got {}", self.strike)
        _require(self.vol > 0, "vol must be positive, got {}", self.vol)
        _require(self.valuation_time <= self.maturity,
                 "valuation_time {} exceeds maturity {}", self.valuation_time, self.maturity)

    @property
    def time_remaining(self) -> float:
        return self.maturity - self.valuation_time


@dataclass(frozen=True)
class ReducedCoordinates:
    """Dimensionless log-moneyness x, time tau = sigma^2 (T-t)/2, rate ratio k."""

    x: float
    tau: float
    k: float

    def __post_init__(self):
        _check_fields("ReducedCoordinates", self, ("x", "tau", "k"))
        _require(self.tau >= 0, "tau must be nonnegative, got {}", self.tau)


@dataclass(frozen=True)
class GeneralizedReducedParams:
    """The (k1, k2) pair of the unified reduced equation: floats or broadcastable arrays."""

    k1: float
    k2: float

    def __post_init__(self):
        _check_fields("GeneralizedReducedParams", self, ("k1", "k2"))


@dataclass(frozen=True)
class BasketSpec:
    """Geometric basket contract: n assets with weights summing to one.

    `rate`, `strike`, `maturity` and `valuation_time` are floats or
    broadcastable arrays; `spots` is `(..., n)` and `covariance` `(..., n, n)`,
    where the leading axes, if any, index contracts like the other arrays.
    """

    spots: np.ndarray
    weights: np.ndarray
    dividends: np.ndarray
    covariance: np.ndarray
    rate: float
    strike: float
    maturity: float
    valuation_time: float = 0.0

    def __post_init__(self):
        vectors = ("spots", "weights", "dividends", "covariance")
        for name in vectors:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.spots.shape[-1] if self.spots.ndim else None
        if self.weights.shape != (n,) or self.dividends.shape != (n,):
            raise ValueError("spots, weights and dividends must have equal length")
        if self.covariance.shape[-2:] != (n, n):
            raise ValueError(
                f"covariance must be {n}x{n}, got {self.covariance.shape}"
            )
        entries = np.concatenate([self.spots.ravel(), self.weights, self.dividends,
                                  self.covariance.ravel()])
        if not np.isfinite(entries).all():
            raise ValueError("BasketSpec: non-finite entries")
        _check_fields("BasketSpec", self, ("rate", "strike", "maturity", "valuation_time"))
        if (self.spots <= 0).any():
            raise ValueError("all spots must be positive")
        _require(self.strike > 0, "strike must be positive, got {}", self.strike)
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(
                f"weights must sum to 1 within 1e-12, got {self.weights.sum()!r}"
            )
        cov = self.covariance
        cov_t = cov.swapaxes(-1, -2)
        # np.allclose(cov, cov_t, atol=1e-12) on finite entries, without its
        # ~20 us of dispatch per scalar contract
        if not (np.abs(cov - cov_t) <= 1e-12 + 1e-5 * np.abs(cov_t)).all():
            raise ValueError("covariance must be symmetric")
        # one tolerance per matrix of a stack
        scale = np.abs(cov).max(axis=(-2, -1), initial=1.0)
        least = np.linalg.eigvalsh(cov).min(axis=-1)
        _require(least >= -1e-10 * scale,
                 "covariance must be positive semidefinite, least eigenvalue {}", least)
        _require(self.valuation_time <= self.maturity,
                 "valuation_time {} exceeds maturity {}", self.valuation_time, self.maturity)

    @property
    def n(self) -> int:
        return self.spots.shape[-1]

    @property
    def time_remaining(self) -> float:
        return self.maturity - self.valuation_time


@dataclass(frozen=True)
class QuantoSpec:
    """Quanto contract: foreign asset s1, exchange-rate ratio s2.

    The rates r1, r2 are kept exactly as they enter the two-asset pricing
    equation; no domestic/foreign interpretation is imposed.  sigma2 = 0 is
    allowed as the degenerate deterministic-exchange-rate limit.  Every field
    is a float or a broadcastable array (one contract per element).
    """

    s1: float
    s2: float
    sigma1: float
    sigma2: float
    rho: float
    r1: float
    r2: float
    q: float
    strike: float
    maturity: float
    valuation_time: float = 0.0

    def __post_init__(self):
        _check_fields("QuantoSpec", self, ("s1", "s2", "sigma1", "sigma2", "rho", "r1", "r2",
                                           "q", "strike", "maturity", "valuation_time"))
        _require((self.s1 > 0) & (self.s2 > 0),
                 "asset price and exchange-rate ratio must be positive, got s1 = {}, s2 = {}",
                 self.s1, self.s2)
        _require((self.sigma1 > 0) & (self.sigma2 >= 0),
                 "sigma1 must be positive and sigma2 nonnegative, got {} and {}",
                 self.sigma1, self.sigma2)
        _require((-1.0 <= self.rho) & (self.rho <= 1.0),
                 "rho must lie in [-1, 1], got {}", self.rho)
        _require(self.strike > 0, "strike must be positive, got {}", self.strike)
        _require(self.valuation_time <= self.maturity,
                 "valuation_time {} exceeds maturity {}", self.valuation_time, self.maturity)

    @property
    def time_remaining(self) -> float:
        return self.maturity - self.valuation_time


@dataclass(frozen=True)
class BasketReduction:
    """Effective volatility and carry of a basket."""

    sigma_hat: float
    q_hat: float


@dataclass(frozen=True)
class QuantoReduction:
    """Effective parameters of the quanto-to-single-asset reduction."""

    sigma_hat_sq: float
    q_hat: float
    r_hat: float


@dataclass(frozen=True)
class ReducedContract:
    """A contract's price `scale * u(y, tau)` on the reduced equation of `params`."""

    y: float
    tau: float
    params: GeneralizedReducedParams
    scale: float


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _libm(fn, value):
    """fn(value) through libm: on a float at once, on an array per element.

    numpy's vectorised exp and log can differ from libm's in the last bit,
    and the figure CSVs are pinned to the bytes of the scalar formulas.  An
    overflow raises ValueError naming `fn` and the largest argument.
    """
    try:
        if isinstance(value, float):
            return fn(value)
        arr = np.asarray(value, dtype=float)
        return np.fromiter(map(fn, arr.ravel().tolist()), float, arr.size).reshape(arr.shape)
    except OverflowError:    # of exp or a volatility's square: the largest argument overflows
        largest = float(np.nanmax(value))
        raise ValueError(f"{fn.__name__}({largest!r}) is out of float range") from None


def _square(v):
    # Python's float power (C pow), whose bits numpy's array square does not always match
    return v ** 2


def _log_moneyness(spot, strike):
    """ln(S/K) through libm's log; -inf at S = 0, the zero-spot limit."""
    ratio = np.asarray(spot, dtype=float) / strike
    if ratio.ndim == 0:
        return np.float64(math.log(ratio) if ratio > 0.0 else -math.inf)
    live = ratio > 0.0
    return np.where(live, _libm(math.log, np.where(live, ratio, 1.0)), -np.inf)


def _live_time(t_rem):
    """(t, expired): `t_rem` with every expired element (t = 0) set to 1, and the expiry mask.

    Any positive time stands in where the caller puts the payoff back;
    `expired` is None when no element has expired.  A float `t_rem` stays a
    float while it is live.
    """
    expired = t_rem == 0.0
    if expired is False or (expired is not True and not expired.any()):
        return t_rem, None
    return np.where(expired, 1.0, t_rem), expired


def _price_or_payoff(spec, price):
    """`price(t)` over the live contracts of a basket or quanto `spec`, the payoff where
    they have expired.

    `t` is the time remaining with every expired element set to 1; where
    every contract has expired, `price` is not called.
    """
    t_rem, expired = _live_time(spec.time_remaining)
    if expired is None:
        return _result(price(t_rem))
    value = (np.maximum(spec.strike - geometric_mean(spec), 0.0) if isinstance(spec, BasketSpec)
             else spec.s2 * np.maximum(spec.strike - spec.s1, 0.0))
    if np.all(expired):
        return _result(np.broadcast_to(value, _contract_shape(spec)).copy())
    return _result(np.where(expired, value, price(t_rem)))


def _contract_shape(spec):
    """The broadcast shape of every field of `spec`, one element per contract."""
    shapes = [np.shape(getattr(spec, field.name)) for field in fields(spec)]
    if isinstance(spec, BasketSpec):   # spots, weights, dividends, covariance: asset axes last
        shapes[:4] = [spec.spots.shape[:-1], spec.covariance.shape[:-2]]
    return np.broadcast_shapes(*shapes)


def reduce_basket(spec: BasketSpec) -> BasketReduction:
    """Collapse a geometric basket to its effective single-asset parameters.

    sigma_hat^2 = sum a_ij alpha_i alpha_j,
    q_hat = sum alpha_i (q_i + a_ii / 2) - sigma_hat^2 / 2.

    Over a stack of covariances each field holds one value per matrix.
    """
    alpha = spec.weights
    cov = spec.covariance
    # PSD guarantees a nonnegative sigma_hat^2 up to rounding
    sigma_hat_sq = _result(np.maximum(alpha @ cov @ alpha, 0.0))
    diag = np.diagonal(cov, axis1=-2, axis2=-1)
    q_hat = _result((spec.dividends + 0.5 * diag) @ alpha - 0.5 * sigma_hat_sq)
    return BasketReduction(sigma_hat=_libm(math.sqrt, sigma_hat_sq), q_hat=q_hat)


def geometric_mean(spec: BasketSpec):
    """prod S_i^alpha_i over the spot vectors along the last axis of `spec.spots`."""
    return np.prod(spec.spots ** spec.weights, axis=-1)


def reduce_quanto(spec: QuantoSpec) -> QuantoReduction:
    """Collapse a quanto contract to effective single-asset parameters.

    sigma_hat^2 = sigma1^2 - 2 rho sigma1 sigma2 + sigma2^2,
    q_hat = 2 r2 - r1 - q - sigma2^2,
    r_hat = r1 - 2 r2 + sigma2^2.
    """
    s2sq = spec.sigma2 * spec.sigma2
    sigma_hat_sq = spec.sigma1 * spec.sigma1 - 2.0 * spec.rho * spec.sigma1 * spec.sigma2 + s2sq
    _require(sigma_hat_sq > 0,
             "degenerate quanto volatility: sigma1^2 - 2 rho sigma1 sigma2 + sigma2^2 "
             "must be positive, got {}", sigma_hat_sq)
    q_hat = 2.0 * spec.r2 - spec.r1 - spec.q - s2sq
    r_hat = spec.r1 - 2.0 * spec.r2 + s2sq
    return QuantoReduction(sigma_hat_sq=sigma_hat_sq, q_hat=q_hat, r_hat=r_hat)


def reduce_contract(spec) -> ReducedContract:
    """The one map of a single-asset, basket or quanto contract onto the reduced equation.

    contract  y                      tau          k1                k2             scale
    single    ln(S/K)                vol^2 t / 2  2r / vol^2        2r / vol^2     K
    basket    sum alpha_i ln(S_i/K)  s^2 t / 2    2(r - q_hat)/s^2  2r / s^2       K
    quanto    ln(S1/E)               s^2 t / 2    2 q_hat / s^2     2 r_hat / s^2  S2^2 (E/S2)

    t = T - t_valuation; s^2 = sigma_hat^2 of `reduce_basket` or `reduce_quanto`.  Spot 0
    maps to y = -inf; a vol whose square vanishes or leaves k non-finite raises ValueError.
    """
    if isinstance(spec, BasketSpec):
        red = reduce_basket(spec)
        # tau squares sigma_hat through libm and k by a product: each keeps its former bits
        tau = 0.5 * _libm(_square, red.sigma_hat) * spec.time_remaining
        s2 = red.sigma_hat * red.sigma_hat
        _require(s2 > 0, "basket reduction is degenerate: sigma_hat^2 must be positive, got {}",
                 s2)
        params = GeneralizedReducedParams(2.0 * (spec.rate - red.q_hat) / s2, 2.0 * spec.rate / s2)
        # y summed asset by asset, elementwise, so that an element's bits do not depend on
        # the shape of the spots, as a BLAS dot's would
        strike = spec.strike if _is_float(spec.strike) else spec.strike[..., None]
        logs = np.log(spec.spots / strike)
        y = logs[..., 0] * spec.weights[0]
        for i in range(1, spec.n):
            y = y + logs[..., i] * spec.weights[i]
        return ReducedContract(_result(y), tau, params, spec.strike)
    if isinstance(spec, QuantoSpec):
        red = reduce_quanto(spec)
        params = GeneralizedReducedParams(k1=2.0 * red.q_hat / red.sigma_hat_sq,
                                          k2=2.0 * red.r_hat / red.sigma_hat_sq)
        s2 = spec.s2
        scale = s2 * s2 * (spec.strike / s2)   # the bits of the reduced strike E/S2 times S2^2
        return ReducedContract(_log_moneyness(spec.s1, spec.strike),
                               0.5 * red.sigma_hat_sq * spec.time_remaining, params, scale)
    with _quiet(spec.vol, spec.time_remaining):  # past float range: refused by its pricer
        vol_sq = spec.vol * spec.vol
        tau = 0.5 * spec.vol * spec.vol * spec.time_remaining
    _require(vol_sq > 0.0, "vol {} is too small: vol^2 underflows to zero", spec.vol)
    k = 2.0 * spec.rate / vol_sq
    _require(math.isfinite(k) if _is_float(k) else np.isfinite(k),
             "vol {} is too small: 2 rate / vol^2 is not finite", spec.vol)
    return ReducedContract(_log_moneyness(spec.spot, spec.strike), tau,
                           GeneralizedReducedParams(k1=k, k2=k), spec.strike)


def to_dimensionless(spec: VanillaOptionSpec) -> ReducedCoordinates:
    """(x, tau, k) = (ln(S/K), sigma^2(T-t)/2, 2r/sigma^2) of one vanilla contract."""
    red = reduce_contract(spec)
    return ReducedCoordinates(x=float(red.y), tau=float(red.tau), k=red.params.k1)
