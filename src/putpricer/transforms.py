"""Coordinate changes between market contracts and the reduced equations.

Every pricing route in this library runs through the same dimensionless
convection-diffusion-reaction equation

    u_tau = u_yy + (k1 - 1) u_y - k2 u,   u(y, 0) = max(1 - e^y, 0),

parameterized by the pair (k1, k2).  The single-asset reduction gives
k1 = k2 = 2r/sigma^2; the geometric-basket and quanto reductions below
produce their own effective volatility, carry and discount parameters and
land on the same equation.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require_finite(name, **values):
    for field_name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name}: {field_name} must be finite, got {value}")


@dataclass(frozen=True)
class VanillaOptionSpec:
    """Market and contract parameters of a single-asset European option.

    Times are in years; `valuation_time` must not exceed `maturity`.
    """

    spot: float
    strike: float
    rate: float
    vol: float
    maturity: float
    valuation_time: float = 0.0

    def __post_init__(self):
        _require_finite("VanillaOptionSpec", spot=self.spot, strike=self.strike,
                        rate=self.rate, vol=self.vol, maturity=self.maturity,
                        valuation_time=self.valuation_time)
        if self.spot <= 0:
            raise ValueError(f"spot must be positive, got {self.spot}")
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.vol <= 0:
            raise ValueError(f"vol must be positive, got {self.vol}")
        if self.valuation_time > self.maturity:
            raise ValueError(
                f"valuation_time {self.valuation_time} exceeds maturity {self.maturity}"
            )

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
        _require_finite("ReducedCoordinates", x=self.x, tau=self.tau, k=self.k)
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")


@dataclass(frozen=True)
class GeneralizedReducedParams:
    """The (k1, k2) pair of the unified reduced equation."""

    k1: float
    k2: float

    def __post_init__(self):
        _require_finite("GeneralizedReducedParams", k1=self.k1, k2=self.k2)


@dataclass(frozen=True)
class BasketSpec:
    """Geometric basket contract: n assets with weights summing to one."""

    spots: np.ndarray
    weights: np.ndarray
    dividends: np.ndarray
    covariance: np.ndarray
    rate: float
    strike: float
    maturity: float
    valuation_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "spots", np.asarray(self.spots, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "dividends", np.asarray(self.dividends, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        n = self.spots.size
        if self.weights.size != n or self.dividends.size != n:
            raise ValueError("spots, weights and dividends must have equal length")
        if self.covariance.shape != (n, n):
            raise ValueError(
                f"covariance must be {n}x{n}, got {self.covariance.shape}"
            )
        arrays = np.concatenate(
            [self.spots, self.weights, self.dividends, self.covariance.ravel()]
        )
        if not np.isfinite(arrays).all():
            raise ValueError("BasketSpec: non-finite entries")
        _require_finite("BasketSpec", rate=self.rate, strike=self.strike,
                        maturity=self.maturity, valuation_time=self.valuation_time)
        if (self.spots <= 0).any():
            raise ValueError("all spots must be positive")
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(
                f"weights must sum to 1 within 1e-12, got {self.weights.sum()!r}"
            )
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        scale = max(1.0, float(np.abs(self.covariance).max()))
        if np.linalg.eigvalsh(self.covariance).min() < -1e-10 * scale:
            raise ValueError("covariance must be positive semidefinite")
        if self.valuation_time > self.maturity:
            raise ValueError(
                f"valuation_time {self.valuation_time} exceeds maturity {self.maturity}"
            )

    @property
    def n(self) -> int:
        return self.spots.size

    @property
    def time_remaining(self) -> float:
        return self.maturity - self.valuation_time


@dataclass(frozen=True)
class QuantoSpec:
    """Quanto contract: foreign asset s1, exchange-rate ratio s2.

    The rates r1, r2 are kept exactly as they enter the two-asset pricing
    equation; no domestic/foreign interpretation is imposed.  sigma2 = 0 is
    allowed as the degenerate deterministic-exchange-rate limit.
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
        _require_finite("QuantoSpec", s1=self.s1, s2=self.s2, sigma1=self.sigma1,
                        sigma2=self.sigma2, rho=self.rho, r1=self.r1, r2=self.r2,
                        q=self.q, strike=self.strike, maturity=self.maturity,
                        valuation_time=self.valuation_time)
        if self.s1 <= 0 or self.s2 <= 0:
            raise ValueError("asset price and exchange-rate ratio must be positive")
        if self.sigma1 <= 0 or self.sigma2 < 0:
            raise ValueError("sigma1 must be positive and sigma2 nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.valuation_time > self.maturity:
            raise ValueError(
                f"valuation_time {self.valuation_time} exceeds maturity {self.maturity}"
            )

    @property
    def time_remaining(self) -> float:
        return self.maturity - self.valuation_time


@dataclass(frozen=True)
class BasketReduction:
    """Effective volatility, carry and composite coordinate of a basket."""

    sigma_hat: float
    q_hat: float
    xi: float


@dataclass(frozen=True)
class QuantoReduction:
    """Effective parameters of the quanto-to-single-asset reduction."""

    sigma_hat_sq: float
    q_hat: float
    r_hat: float
    k1: float
    k2: float


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _libm_each(fn, values):
    """A `math` function applied per element, as the scalar formulas apply it.

    numpy's vectorised exp and log can differ from libm's in the last bit,
    and the figure CSVs are pinned to the bytes of the scalar formulas.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.float64(fn(float(arr)))
    return np.array([fn(v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)


def _log_or_minus_inf(v):
    return math.log(v) if v > 0.0 else -math.inf


def _log_moneyness(spot, strike):
    """ln(S/K) through libm's log; -inf at S = 0, the zero-spot limit."""
    return _libm_each(_log_or_minus_inf, np.asarray(spot, dtype=float) / strike)


def _field(name, values, default, allow_zero=False):
    """`values` as a checked float array of positive (or nonnegative) prices; `default` if None."""
    if values is None:
        return np.asarray(default, dtype=float)[()]
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if (arr < 0.0).any() if allow_zero else (arr <= 0.0).any():
        raise ValueError(f"{name} must be {'nonnegative' if allow_zero else 'positive'}")
    return arr


def _time_remaining(spec, valuation_time=None):
    """T - t for the spec's maturity over an array of valuation times (default: the spec's)."""
    if valuation_time is None:
        return np.float64(spec.time_remaining)
    t_rem = spec.maturity - np.asarray(valuation_time, dtype=float)
    if not np.isfinite(t_rem).all() or (t_rem < 0.0).any():
        raise ValueError(f"valuation times must be finite and not exceed maturity {spec.maturity}")
    return t_rem


def to_dimensionless_arrays(spec: VanillaOptionSpec, spot=None, valuation_time=None):
    """(x, tau, k) of `to_dimensionless` over broadcastable arrays of spot and valuation time.

    Fields not given come from `spec`; spot 0 maps to x = -inf.
    """
    return (
        _log_moneyness(_field("spot", spot, spec.spot, allow_zero=True), spec.strike),
        0.5 * spec.vol * spec.vol * _time_remaining(spec, valuation_time),
        2.0 * spec.rate / (spec.vol * spec.vol),
    )


def to_dimensionless(spec: VanillaOptionSpec) -> ReducedCoordinates:
    """Map a vanilla contract to (x, tau, k) = (ln(S/K), sigma^2(T-t)/2, 2r/sigma^2)."""
    x, tau, k = to_dimensionless_arrays(spec)
    return ReducedCoordinates(x=float(x), tau=float(tau), k=k)


def reduce_basket(spec: BasketSpec) -> BasketReduction:
    """Collapse a geometric basket to its effective single-asset parameters.

    sigma_hat^2 = sum a_ij alpha_i alpha_j,
    q_hat = sum alpha_i (q_i + a_ii / 2) - sigma_hat^2 / 2,
    xi = sum alpha_i ln(S_i / K).
    """
    alpha = spec.weights
    sigma_hat_sq = float(alpha @ spec.covariance @ alpha)
    sigma_hat_sq = max(sigma_hat_sq, 0.0)  # PSD guarantees this up to rounding
    q_hat = float(
        np.dot(alpha, spec.dividends + 0.5 * np.diag(spec.covariance))
        - 0.5 * sigma_hat_sq
    )
    xi = float(basket_coordinate(spec))
    return BasketReduction(sigma_hat=math.sqrt(sigma_hat_sq), q_hat=q_hat, xi=xi)


def _basket_spots(spec: BasketSpec, spots):
    spots = _field("basket spots", spots, spec.spots)
    if spots.shape[-1:] != (spec.n,):
        raise ValueError(f"basket spots need a last axis of {spec.n} assets, got {spots.shape}")
    return spots


def basket_coordinate(spec: BasketSpec, spots=None):
    """xi = sum alpha_i ln(S_i / K) over spot vectors along the last axis (default: the spec's).

    Summed asset by asset in elementwise operations, so every element has
    the same bits whatever the shape of `spots`; a BLAS dot fuses
    multiply-adds differently for one vector than for a matrix of them.
    """
    logs = np.log(_basket_spots(spec, spots) / spec.strike)
    xi = logs[..., 0] * spec.weights[0]
    for i in range(1, spec.n):
        xi = xi + logs[..., i] * spec.weights[i]
    return xi


def geometric_mean(spec: BasketSpec, spots=None):
    """prod S_i^alpha_i over spot vectors along the last axis (default: the spec's)."""
    return np.prod(_basket_spots(spec, spots) ** spec.weights, axis=-1)


def basket_reduced_params(red: BasketReduction, rate: float) -> GeneralizedReducedParams:
    """(k1, k2) of the basket route: k1 = 2(r - q_hat)/sigma_hat^2, k2 = 2r/sigma_hat^2."""
    s2 = red.sigma_hat * red.sigma_hat
    if s2 <= 0:
        raise ValueError("basket reduction is degenerate: sigma_hat^2 must be positive")
    return GeneralizedReducedParams(k1=2.0 * (rate - red.q_hat) / s2, k2=2.0 * rate / s2)


def reduce_quanto(spec: QuantoSpec) -> QuantoReduction:
    """Collapse a quanto contract to effective single-asset parameters.

    sigma_hat^2 = sigma1^2 - 2 rho sigma1 sigma2 + sigma2^2,
    q_hat = 2 r2 - r1 - q - sigma2^2,
    r_hat = r1 - 2 r2 + sigma2^2,
    and the reduced pair k1 = 2 q_hat / sigma_hat^2, k2 = 2 r_hat / sigma_hat^2.
    """
    s2sq = spec.sigma2 * spec.sigma2
    sigma_hat_sq = spec.sigma1 * spec.sigma1 - 2.0 * spec.rho * spec.sigma1 * spec.sigma2 + s2sq
    if sigma_hat_sq <= 0:
        raise ValueError(
            "degenerate quanto volatility: sigma1^2 - 2 rho sigma1 sigma2 + sigma2^2 "
            f"must be positive, got {sigma_hat_sq}"
        )
    q_hat = 2.0 * spec.r2 - spec.r1 - spec.q - s2sq
    r_hat = spec.r1 - 2.0 * spec.r2 + s2sq
    return QuantoReduction(
        sigma_hat_sq=sigma_hat_sq,
        q_hat=q_hat,
        r_hat=r_hat,
        k1=2.0 * q_hat / sigma_hat_sq,
        k2=2.0 * r_hat / sigma_hat_sq,
    )
