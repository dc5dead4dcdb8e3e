"""One broadcast pricer call against per-element calls, and the return rule.

Figures price whole grids in one call, so every element of an array result
must carry the same bits as the same pricer called on that one contract;
the figure CSVs are pinned by sha256 on top of that.  Every evaluator
returns a Python float for a result of shape () and an ndarray otherwise.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putpricer import hpm_series
from putpricer.cli import main
from putpricer.exact_pricing import basket_put_exact, bs_put, quanto_put_exact, reduced_exact_u
from putpricer.hpm_series import hpm1_reduced, hpm_reduced_sum, phi_term, single_asset_term
from putpricer.pde_oracle import fd_residual
from putpricer.special_functions import SQRT_PI, SQRT_TWO, erfc, erfcx, normal_cdf
from putpricer.transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    reduce_quanto,
)

# sha256 of `putpricer figure N --out ...` under the default configuration,
# with numpy's AVX-512 exp; the same values pin the paper-seed outputs of the
# benchmark
FIGURE_SHA256_AVX512 = {
    1: "3888f9f5d5de54a709975f139c3ba3f0693a7f132a510b290af5e29fe4a8bb98",
    2: "664b15d4cd10a8b1fecac5aeb00895fc0b5c6bd4ac64afdbd1d7cc4ab5ee159f",
    3: "7f40eaecb6672ab9e5bc467a72bed61e22a3330ce33e722e5e2cbdf4fddc8b55",
    4: "1cad28aed1f958ee98ad756579770ac8ddd4d49b91e9afaabac6f0b991f681ef",
    5: "853b4d359bc85b0569b3b70428e9f4f25bdf4885bf4b239be81386f862fb8d97",
    6: "e316edce2e5dcb2bf3aaea2e2068d88d2e7205370fd8c1a2f9c4d43d64a3acda",
}
# the same figures where numpy's exp rounds like the C library's: hosts
# without AVX-512, or NPY_DISABLE_CPU_FEATURES=X86_V4 (figures 1 and 5 agree)
FIGURE_SHA256_LIBM_EXP = {
    **FIGURE_SHA256_AVX512,
    2: "6ae1abbb1d8220be1f3c4e09fa4502273206bed6eae4ad295d833d3036a307bc",
    3: "96b9df3f8eb1a658bce42f2c3c193cb5dd2fe81d810d075170140b9b946c6e82",
    4: "f4aa249f32585c8019b38c50cdd126860a8565f9100ea6ced91339bb5cc18c3a",
    6: "82c03461951befaa5f5bd4dd23ff22267ee0c8a456aff05409faae9296552b72",
}


def exp_rounds_like_libm():
    """Whether np.exp equals math.exp on a fixed probe (numpy's AVX-512 exp
    differs on a few percent of it); a CPU flag would not tell, since the
    flag stays set when the dispatch is disabled."""
    probe = np.linspace(-30.0, 30.0, 2001)
    return all(math.exp(x) == e for x, e in zip(probe.tolist(), np.exp(probe).tolist()))


FIGURE_SHA256 = FIGURE_SHA256_LIBM_EXP if exp_rounds_like_libm() else FIGURE_SHA256_AVX512


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_default_figure_bytes_are_pinned(figure, tmp_path):
    out = tmp_path / f"fig{figure}.csv"
    assert main(["figure", str(figure), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[figure]


# ---------------------------------------------------------------------------
# one broadcast call == per-element calls, bit for bit
# ---------------------------------------------------------------------------

price = st.floats(20.0, 120.0)
moneyness = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4)
orders = st.integers(1, 6)


@st.composite
def valuation_times(draw, maturity):
    # the expiry edge t = T is drawn as often as an interior time
    return draw(st.sampled_from([0.0, maturity])) if draw(st.booleans()) else (
        draw(st.floats(0.0, 1.0)) * maturity
    )


@given(data=st.data(), strike=price, money=moneyness, rate=st.floats(0.0, 0.1),
       vol=st.floats(0.1, 0.6), maturity=st.floats(0.05, 2.0), order=orders)
@settings(max_examples=40, deadline=None)
def test_single_broadcast_matches_per_element(data, strike, money, rate, vol, maturity,
                                              order):
    times = np.array([data.draw(valuation_times(maturity)) for _ in range(3)])
    spots = strike * np.exp(np.array(money))
    base = VanillaOptionSpec(spot=strike, strike=strike, rate=rate, vol=vol,
                             maturity=maturity)
    grid = {"spot": spots[:, None], "valuation_time": times}
    exact = bs_put(base, **grid)
    hpm1 = hpm_series.price_single_hpm1(base, **grid)
    hpm2 = hpm_series.price_single_hpm2(base, order, **grid)
    assert exact.shape == hpm1.shape == hpm2.shape == (spots.size, times.size)
    for i, s in enumerate(spots.tolist()):
        for j, t in enumerate(times.tolist()):
            spec = replace(base, spot=s, valuation_time=t)
            assert exact[i, j] == bs_put(spec)
            assert hpm1[i, j] == hpm_series.price_single_hpm1(spec)
            assert hpm2[i, j] == hpm_series.price_single_hpm2(spec, order)


@given(data=st.data(), strike=price, rate=st.floats(0.0, 0.1), vol=st.floats(0.1, 0.6),
       maturity=st.floats(0.05, 2.0), order=orders)
@settings(max_examples=40, deadline=None)
def test_single_array_zero_spot_limits(data, strike, rate, vol, maturity, order):
    t = data.draw(valuation_times(maturity))
    t_rem = maturity - t
    spec = VanillaOptionSpec(spot=strike, strike=strike, rate=rate, vol=vol,
                             maturity=maturity, valuation_time=t)
    zero = np.array([0.0])
    if t_rem == 0.0:
        assert bs_put(spec, spot=zero)[0] == strike
        assert hpm_series.price_single_hpm2(spec, order, spot=zero)[0] == strike
        return
    assert bs_put(spec, spot=zero)[0] == strike * math.exp(-rate * t_rem)
    k, tau = 2.0 * rate / (vol * vol), 0.5 * vol * vol * t_rem
    assert hpm_series.price_single_hpm1(spec, spot=zero)[0] == pytest.approx(
        strike * math.exp(-k * tau), rel=1e-15)
    if order % 2:
        with pytest.raises(ValueError, match="even order"):
            hpm_series.price_single_hpm2(spec, order, spot=zero)
    else:
        assert hpm_series.price_single_hpm2(spec, order, spot=zero)[0] == 0.0


@given(data=st.data(), strike=price, m1=moneyness, m2=moneyness,
       weight=st.floats(0.2, 0.8), sig=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
       corr=st.floats(-0.8, 0.9), rate=st.floats(0.0, 0.1),
       maturity=st.floats(0.05, 2.0), order=orders)
@settings(max_examples=40, deadline=None)
def test_basket_broadcast_matches_per_element(data, strike, m1, m2, weight, sig, corr, rate,
                                              maturity, order):
    s1, s2 = sig
    cov = [[s1 * s1, corr * s1 * s2], [corr * s1 * s2, s2 * s2]]
    fields = dict(weights=[weight, 1.0 - weight], dividends=[0.01, 0.0], covariance=cov,
                  rate=rate, strike=strike, maturity=maturity,
                  valuation_time=data.draw(valuation_times(maturity)))
    base = BasketSpec(spots=[strike, strike], **fields)
    g1, g2 = np.meshgrid(strike * np.exp(m1), strike * np.exp(m2), indexing="ij")
    spots = np.stack([g1, g2], axis=-1)
    exact = basket_put_exact(base, spots)
    series = hpm_series.price_basket_hpm(base, order, spots)
    assert exact.shape == series.shape == g1.shape
    for index in np.ndindex(g1.shape):
        spec = replace(base, spots=spots[index].tolist())
        assert exact[index] == basket_put_exact(spec)
        assert series[index] == hpm_series.price_basket_hpm(spec, order)


@given(data=st.data(), strike=price, m1=moneyness, s2=st.lists(st.floats(0.5, 60.0),
       min_size=1, max_size=4), sigma1=st.floats(0.05, 0.5), sigma2=st.floats(0.0, 0.5),
       rho=st.floats(-1.0, 0.5), rates=st.tuples(*[st.floats(0.0, 0.1)] * 3),
       maturity=st.floats(0.05, 2.0), order=orders)
@settings(max_examples=40, deadline=None)
def test_quanto_broadcast_matches_per_element(data, strike, m1, s2, sigma1, sigma2, rho,
                                              rates, maturity, order):
    r1, r2, q = rates
    fields = dict(sigma1=sigma1, sigma2=sigma2, rho=rho, r1=r1, r2=r2, q=q,
                  strike=strike, maturity=maturity,
                  valuation_time=data.draw(valuation_times(maturity)))
    base = QuantoSpec(s1=strike, s2=1.0, **fields)
    s1_axis = strike * np.exp(np.array(m1))[:, None]
    s2_axis = np.array(s2)[None, :]
    exact = quanto_put_exact(base, s1_axis, s2_axis)
    series = hpm_series.price_quanto_hpm(base, order, s1_axis, s2_axis)
    assert exact.shape == series.shape == (len(m1), len(s2))
    for i, a in enumerate(s1_axis[:, 0].tolist()):
        for j, b in enumerate(s2):
            spec = replace(base, s1=a, s2=b)
            assert exact[i, j] == quanto_put_exact(spec)
            assert series[i, j] == hpm_series.price_quanto_hpm(spec, order)


def test_array_forms_reject_what_specs_reject():
    spec = VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.3, maturity=0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        bs_put(spec, spot=np.array([10.0, -1.0]))
    with pytest.raises(ValueError, match="exceed maturity"):
        bs_put(spec, valuation_time=np.array([0.0, 0.6]))
    basket = BasketSpec(spots=[40.0, 40.0], weights=[0.5, 0.5], dividends=[0.0, 0.0],
                        covariance=[[0.01, 0.0], [0.0, 0.09]], rate=0.05, strike=40.0,
                        maturity=0.5)
    with pytest.raises(ValueError, match="2 assets"):
        basket_put_exact(basket, np.full((3, 3), 40.0))
    with pytest.raises(ValueError, match="positive"):
        hpm_series.price_basket_hpm(basket, spots=np.array([[40.0, 0.0]]))
    quanto = QuantoSpec(s1=40.0, s2=40.0, sigma1=0.1, sigma2=0.3, rho=1.0, r1=0.03,
                        r2=0.05, q=0.0, strike=40.0, maturity=0.5)
    with pytest.raises(ValueError, match="finite"):
        quanto_put_exact(quanto, s2=np.array([np.nan]))


# ---------------------------------------------------------------------------
# hpm_reduced_sum over an array of tau
# ---------------------------------------------------------------------------


def test_reduced_sum_array_tau_matches_scalar_tau_columns():
    params = GeneralizedReducedParams(0.7, 1.3)
    y = np.linspace(-2.0, 2.0, 41)
    taus = np.array([0.0, 1e-4, 0.01, 0.1, 0.0, 0.4])
    for order in (1, 4, 6):
        grid = hpm_reduced_sum(y[:, None], taus, params, order)
        assert grid.shape == (y.size, taus.size)
        for j, tau in enumerate(taus.tolist()):
            column = hpm_reduced_sum(y, tau, params, order)
            assert np.array_equal(grid[:, j], column)
            if tau == 0.0:
                assert np.array_equal(column, np.maximum(1.0 - np.exp(y), 0.0))
    # a scalar y against an array of tau gives an array, all-expired included
    assert np.array_equal(hpm_reduced_sum(-0.5, np.zeros(3), params),
                          np.full(3, 1.0 - np.exp(-0.5)))
    assert hpm_reduced_sum(0.3, np.array([0.2]), params)[0] == hpm_reduced_sum(0.3, 0.2, params)


def test_reduced_sum_rejects_any_negative_tau():
    params = GeneralizedReducedParams(1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        hpm_reduced_sum(np.zeros(3), np.array([0.1, -1e-12, 0.2]), params)
    with pytest.raises(ValueError, match="nonnegative"):
        hpm_reduced_sum(0.0, -0.1, params)


# ---------------------------------------------------------------------------
# shared special-function passes == the per-term and two-branch forms
# ---------------------------------------------------------------------------


INV_SQRT_PI = 1.0 / SQRT_PI


def _old_combine(p, q, z):
    # the per-term evaluation before G and erfc/erfcx were shared across terms
    out = np.empty_like(z)
    left = z <= 0.0
    if left.any():
        zl = z[left]
        gauss = np.exp(-0.25 * zl * zl) * INV_SQRT_PI
        out[left] = np.asarray(p)[left] * gauss - np.asarray(q)[left] * erfc(0.5 * zl)
    right = ~left
    if right.any():
        zr = z[right]
        bracket = np.asarray(p)[right] * INV_SQRT_PI - (
            np.asarray(q)[right] * erfcx(0.5 * zr)
        )
        out[right] = np.exp(-0.25 * zr * zr) * bracket
    return out


def _old_phi_term(n, z, params):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    p, q = hpm_series._phi_polys(n, z, params.k1, params.k2)
    return _old_combine(p, q, z)


def _old_reduced_sum(y, tau, params, order):
    # sum_n f_n(z) w^{n+1}, one full term evaluation per n
    y_arr = np.asarray(y, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    expired = tau_arr == 0.0
    payoff = np.maximum(1.0 - np.exp(y_arr), 0.0)
    if expired.all():
        out = np.broadcast_to(payoff, np.broadcast(y_arr, tau_arr).shape).copy()
    else:
        y_arr = np.where(expired, 0.0, y_arr)
        tau_arr = np.where(expired, 1.0, tau_arr)
        w = np.sqrt(tau_arr)
        z = y_arr / w
        out = np.zeros_like(z)
        w_pow = w
        for n in range(order):
            out = out + _old_phi_term(n, z, params) * w_pow
            w_pow = w_pow * w
        if expired.any():
            out = np.where(expired, payoff, out)
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in (y, tau)):
        return float(out if np.ndim(out) == 0 else out[0])
    return out


def _old_reduced_exact_u(y, tau, params):
    # both branches of the second term over the whole array, one discarded
    y_arr = np.asarray(y, dtype=float)
    tau_arr = np.asarray(tau, dtype=float)
    k1, k2 = params.k1, params.k2
    root = np.sqrt(2.0 * tau_arr)
    d1 = y_arr / root + root * (k1 - 1.0) / 2.0
    d2 = y_arr / root + root * (k1 + 1.0) / 2.0
    first = np.exp(-k2 * tau_arr) * normal_cdf(-d1)
    expo = y_arr + (k1 - k2) * tau_arr
    plain = np.where(d2 <= 0, np.exp(np.where(d2 <= 0, expo, 0.0)) * normal_cdf(-d2), 0.0)
    scaled_arg = np.where(d2 > 0, expo - 0.5 * d2 * d2, 0.0)
    scaled = np.where(d2 > 0, 0.5 * np.exp(scaled_arg) * erfcx(d2 / SQRT_TWO), 0.0)
    out = first - (plain + scaled)
    return float(out) if np.ndim(out) == 0 else out


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


reduced = st.builds(GeneralizedReducedParams, st.floats(-3.0, 6.0), st.floats(-3.0, 6.0))


@st.composite
def coordinates(draw):
    """y as a float, a 0-d array or a 1-d array, on one side of 0 or on both, near or far out."""
    side = draw(st.sampled_from(["left", "right", "mixed"]))
    size = draw(st.integers(1, 6))
    magnitudes = draw(st.lists(st.floats(1e-9, 3.0) | st.floats(1e-9, 700.0),
                               min_size=size, max_size=size))
    signs = {"left": [-1.0] * size, "right": [1.0] * size,
             "mixed": draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size,
                                    max_size=size))}[side]
    y = np.array(signs) * np.array(magnitudes)
    form = draw(st.sampled_from(["float", "0-d", "array"]))
    return float(y[0]) if form == "float" else np.array(y[0]) if form == "0-d" else y


@st.composite
def times(draw, y, expired):
    """tau as a float, a 0-d array, one per y, or a column against y; zeros if `expired`."""
    value = st.floats(1e-8, 2.0)
    if expired:
        value = st.just(0.0) | value
    form = draw(st.sampled_from(["float", "0-d", "per-y", "column"]))
    if form in ("float", "0-d"):
        tau = draw(value)
        return tau if form == "float" else np.array(tau)
    if form == "per-y":
        return np.array(draw(st.lists(value, min_size=np.size(y), max_size=np.size(y))))
    return np.array(draw(st.lists(value, min_size=1, max_size=3)))[:, None]


@given(data=st.data(), params=reduced, order=orders)
@settings(max_examples=150, deadline=None)
def test_reduced_sum_matches_per_term_loop(data, params, order):
    y = data.draw(coordinates())
    tau = data.draw(times(y, expired=True))
    assert_same_bits(hpm_reduced_sum(y, tau, params, order),
                     _old_reduced_sum(y, tau, params, order))
    if not np.any(np.asarray(tau) == 0.0):
        z = np.atleast_1d(np.asarray(y) / np.sqrt(tau))
        assert_same_bits(hpm_series.phi_term(order - 1, z, params),
                         _old_phi_term(order - 1, z, params))


@given(data=st.data(), params=reduced)
@settings(max_examples=150, deadline=None)
def test_reduced_exact_matches_two_branch_form(data, params):
    y = data.draw(coordinates())
    tau = data.draw(times(y, expired=False))
    assert_same_bits(reduced_exact_u(y, tau, params), _old_reduced_exact_u(y, tau, params))


def test_shared_kernels_cover_every_order_and_both_tails():
    # deterministic companions of the properties above: d2 and z cross 0,
    # |y| reaches 700, and some tau are 0
    y = np.concatenate([np.linspace(-700.0, 700.0, 57), np.linspace(-2.0, 2.0, 41)])
    tau = np.array([0.0, 1e-6, 0.01, 0.3, 2.0])[:, None]
    for params in (GeneralizedReducedParams(0.7, 1.3), GeneralizedReducedParams(-2.0, 4.0)):
        for order in range(1, hpm_series.MAX_ORDER + 1):
            assert_same_bits(hpm_reduced_sum(y, tau, params, order),
                             _old_reduced_sum(y, tau, params, order))
        assert_same_bits(reduced_exact_u(y, tau[1:], params),
                         _old_reduced_exact_u(y, tau[1:], params))


def test_kernels_on_transposed_coordinates_equal_the_transposed_result():
    # the side and branch splits index y flattened; a transposed (non-contiguous)
    # y, with tau and (k1, k2) transposed alike, must give the transposed values
    rng = np.random.default_rng(21)
    y = rng.uniform(-3.0, 3.0, (7, 9))
    tau = rng.uniform(0.01, 0.5, (7, 1))
    k1, k2 = rng.uniform(-2.0, 4.0, (2, 7, 1))
    for params, params_t in ((GeneralizedReducedParams(0.7, 1.3),) * 2,
                             (GeneralizedReducedParams(k1, k2),
                              GeneralizedReducedParams(k1.T, k2.T))):
        assert_same_bits(reduced_exact_u(y.T, tau.T, params_t),
                         reduced_exact_u(y, tau, params).T)
        for t in (0.2, tau, np.where(tau < 0.1, 0.0, tau)):
            assert_same_bits(hpm_reduced_sum(y.T, np.transpose(t), params_t),
                             hpm_reduced_sum(y, t, params).T)


def _counting(monkeypatch, module, names):
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(x, _name=name, _fn=getattr(module, name)):
            calls[_name].append(np.size(x))
            return _fn(x)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_reduced_sum_evaluates_each_special_function_once(monkeypatch):
    calls = _counting(monkeypatch, hpm_series, ("erfc", "erfcx"))
    y = np.linspace(-3.0, 3.0, 61)   # both sides of z = 0
    hpm_reduced_sum(y, np.array([0.05, 0.2, 0.8])[:, None], GeneralizedReducedParams(0.7, 1.3),
                    order=6)
    assert {name: len(sizes) for name, sizes in calls.items()} == {"erfc": 1, "erfcx": 1}
    assert sum(calls["erfc"]) + sum(calls["erfcx"]) == 3 * y.size


def test_reduced_exact_evaluates_each_branch_only_where_used(monkeypatch):
    from putpricer import exact_pricing

    calls = _counting(monkeypatch, exact_pricing, ("normal_cdf", "erfcx"))
    params = GeneralizedReducedParams(0.7, 1.3)
    y = np.linspace(-3.0, 3.0, 61)
    tau = 0.4
    reduced_exact_u(y, tau, params)
    root = math.sqrt(2.0 * tau)
    plain = int(np.count_nonzero(y / root + root * (params.k1 + 1.0) / 2.0 <= 0))
    assert 0 < plain < y.size
    # N(-d1) everywhere, N(-d2) where d2 <= 0, erfcx where d2 > 0
    assert calls == {"normal_cdf": [y.size, plain], "erfcx": [y.size - plain]}


# ---------------------------------------------------------------------------
# the return rule: a float for a result of shape (), an ndarray otherwise
# ---------------------------------------------------------------------------

SINGLE = VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.3, maturity=0.5)
BASKET = BasketSpec(spots=[40.0, 40.0], weights=[0.5, 0.5], dividends=[0.0, 0.0],
                    covariance=[[0.01, 0.0], [0.0, 0.09]], rate=0.05, strike=40.0,
                    maturity=0.5)
QUANTO = QuantoSpec(s1=40.0, s2=40.0, sigma1=0.1, sigma2=0.3, rho=1.0, r1=0.03,
                    r2=0.05, q=0.0, strike=40.0, maturity=0.5)
# (pricer, spec, override giving a shape-() result, override giving shape (3,))
PRICERS = [
    (bs_put, SINGLE, {"spot": np.array(41.0)}, {"spot": np.array([30.0, 40.0, 50.0])}),
    (hpm_series.price_single_hpm1, SINGLE, {"spot": np.array(41.0)},
     {"spot": np.array([30.0, 40.0, 50.0])}),
    (hpm_series.price_single_hpm2, SINGLE, {"valuation_time": np.array(0.1)},
     {"valuation_time": np.array([0.0, 0.2, 0.5])}),
    (basket_put_exact, BASKET, {"spots": np.array([38.0, 41.0])},
     {"spots": np.array([[30.0, 35.0], [40.0, 40.0], [50.0, 45.0]])}),
    (hpm_series.price_basket_hpm, BASKET, {"spots": np.array([38.0, 41.0])},
     {"spots": np.array([[30.0, 35.0], [40.0, 40.0], [50.0, 45.0]])}),
    (quanto_put_exact, QUANTO, {"s1": np.array(41.0)}, {"s2": np.array([1.0, 2.0, 3.0])}),
    (hpm_series.price_quanto_hpm, QUANTO, {"s2": np.array(2.0)},
     {"s1": np.array([30.0, 40.0, 50.0])}),
]


@pytest.mark.parametrize("expired", [False, True], ids=["live", "expired"])
@pytest.mark.parametrize("pricer, spec, point, vector", PRICERS,
                         ids=[case[0].__name__ for case in PRICERS])
def test_pricers_follow_the_return_rule(pricer, spec, point, vector, expired):
    if expired:
        spec = replace(spec, valuation_time=spec.maturity)
    assert type(pricer(spec)) is float
    assert type(pricer(spec, **point)) is float
    out = pricer(spec, **vector)
    assert type(out) is np.ndarray and out.shape == (3,)


PARAMS = GeneralizedReducedParams(0.7, 1.3)
EVALUATORS = {
    "reduced_exact_u": lambda x: reduced_exact_u(x, 0.2, PARAMS),
    "reduced_exact_u-tau": lambda x: reduced_exact_u(0.3, x, PARAMS),
    "hpm_reduced_sum": lambda x: hpm_reduced_sum(x, 0.2, PARAMS),
    "hpm_reduced_sum-tau": lambda x: hpm_reduced_sum(-0.3, x, PARAMS),
    "hpm_reduced_sum-expired": lambda x: hpm_reduced_sum(x, 0.0, PARAMS),
    "hpm1_reduced": lambda x: hpm1_reduced(x, 0.2, 0.7),
    "phi_term": lambda x: phi_term(3, x, PARAMS),
    "single_asset_term": lambda x: single_asset_term(3, x, 0.7),
    "fd_residual": lambda x: fd_residual(3, PARAMS, x, 0.3, 0.01),
}


@pytest.mark.parametrize("x, shape", [
    (0.3, ()), (np.float64(0.3), ()), (np.array(0.3), ()),
    ([0.3], (1,)), ((0.1, 0.3), (2,)), (np.array([0.1, 0.3, 1.0]), (3,)),
], ids=["float", "float64", "0-d", "list", "tuple", "array"])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluators_follow_the_return_rule(name, x, shape):
    out = EVALUATORS[name](x)
    if shape == ():
        assert type(out) is float
    else:
        assert type(out) is np.ndarray and out.shape == shape


# ---------------------------------------------------------------------------
# array-valued contract fields == per-element scalar specs
# ---------------------------------------------------------------------------
# Each element of a call on a spec whose fields are arrays must equal the
# same call on the scalar spec of that element.  Where every step is
# elementwise arithmetic or a per-element libm call the bits are equal;
# where numpy's array power (the series coefficients in k) or a stacked
# matrix product (the basket reduction) replaces the scalar route, the
# element may differ by rounding, bounded at 1e-14 of the value's scale.


def vector(draw, elements, size):
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)))


@st.composite
def single_fields(draw, size):
    strike = vector(draw, price, size)
    maturity = vector(draw, st.floats(0.05, 2.0), size)
    return dict(
        spot=strike * np.exp(vector(draw, st.floats(-0.5, 0.5), size)), strike=strike,
        rate=vector(draw, st.floats(0.0, 0.1), size), vol=vector(draw, st.floats(0.1, 0.6), size),
        maturity=maturity,
        valuation_time=np.array([draw(valuation_times(m)) for m in maturity.tolist()]),
    )


@st.composite
def basket_fields(draw, size):
    single = draw(single_fields(size))
    s1, s2 = single["vol"], vector(draw, st.floats(0.1, 0.5), size)
    c = vector(draw, st.floats(-0.8, 0.9), size)
    spot2 = single["strike"] * np.exp(vector(draw, st.floats(-0.5, 0.5), size))
    return dict(
        spots=np.stack([single["spot"], spot2], axis=-1),
        weights=np.array([0.4, 0.6]), dividends=np.array([0.01, 0.0]),
        covariance=np.stack([np.stack([s1 * s1, c * s1 * s2], -1),
                             np.stack([c * s1 * s2, s2 * s2], -1)], -2),
        rate=single["rate"], strike=single["strike"], maturity=single["maturity"],
        valuation_time=single["valuation_time"],
    )


@st.composite
def quanto_fields(draw, size):
    single = draw(single_fields(size))

    def floats(lo, hi):
        return vector(draw, st.floats(lo, hi), size)

    return dict(
        s1=single["spot"], s2=floats(0.5, 3.0), sigma1=floats(0.05, 0.5),
        sigma2=floats(0.0, 0.5), rho=floats(-1.0, 0.5), r1=single["rate"],
        r2=floats(0.0, 0.1), q=floats(0.0, 0.05), strike=single["strike"],
        maturity=single["maturity"], valuation_time=single["valuation_time"],
    )


FAMILIES = {"single": (VanillaOptionSpec, single_fields),
            "basket": (BasketSpec, basket_fields),
            "quanto": (QuantoSpec, quanto_fields)}

# name: (family, call(spec, order), bit-equal per element)
ARRAY_PRICERS = {
    "bs_put": ("single", lambda spec, order: bs_put(spec), True),
    "price_single_hpm1": ("single", lambda spec, order: hpm_series.price_single_hpm1(spec),
                          True),
    "price_single_hpm2": ("single", hpm_series.price_single_hpm2, False),
    "basket_put_exact": ("basket", lambda spec, order: basket_put_exact(spec), False),
    "price_basket_hpm": ("basket", hpm_series.price_basket_hpm, False),
    "quanto_put_exact": ("quanto", lambda spec, order: quanto_put_exact(spec), True),
    "price_quanto_hpm": ("quanto", hpm_series.price_quanto_hpm, False),
}


def assert_element_matches(got, want, exact, scale):
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(ARRAY_PRICERS))
@given(data=st.data(), size=st.integers(1, 4), order=orders)
@settings(max_examples=30, deadline=None)
def test_array_fields_match_per_element_specs(name, data, size, order):
    family, call, exact = ARRAY_PRICERS[name]
    spec_cls, fields = FAMILIES[family]
    values = data.draw(fields(size))
    spec = spec_cls(**values)
    batched = call(spec, order)
    assert np.shape(batched) == (size,)
    per_contract = [k for k in values if k not in ("weights", "dividends")]
    for i in range(size):
        one = replace(spec, **{k: float(values[k][i]) if values[k].ndim == 1
                               else values[k][i] for k in per_contract})
        want = call(one, order)
        assert isinstance(want, float)
        scale = values["strike"][i] * (values["s2"][i] if family == "quanto" else 1.0)
        assert_element_matches(batched[i], want, exact, scale)


# name: (call(y, tau, k1, k2, order), bit-equal per element)
ARRAY_EVALUATORS = {
    "reduced_exact_u": (lambda y, tau, k1, k2, order:
                        reduced_exact_u(y, tau, GeneralizedReducedParams(k1, k2)), True),
    "phi_term": (lambda y, tau, k1, k2, order:
                 phi_term(order - 1, y, GeneralizedReducedParams(k1, k2)), False),
    "single_asset_term": (lambda y, tau, k1, k2, order: single_asset_term(order - 1, y, k1),
                          False),
    "hpm_reduced_sum": (lambda y, tau, k1, k2, order:
                        hpm_reduced_sum(y, tau, GeneralizedReducedParams(k1, k2), order), False),
}

coefficient = st.floats(-2.0, 4.0)


@pytest.mark.parametrize("name", sorted(ARRAY_EVALUATORS))
@given(data=st.data(), size=st.integers(1, 6), order=orders)
@settings(max_examples=30, deadline=None)
def test_array_coefficients_match_per_element_calls(name, data, size, order):
    call, exact = ARRAY_EVALUATORS[name]
    y = vector(data.draw, st.floats(-3.0, 3.0), size)
    tau = vector(data.draw, st.floats(1e-3, 2.0), size)
    k1, k2 = vector(data.draw, coefficient, size), vector(data.draw, coefficient, size)
    batched = call(y, tau, k1, k2, order)
    assert np.shape(batched) == (size,)
    # k on its own axis broadcasts against the coordinates
    grid = call(y, tau, k1[:, None], k2[:, None], order)
    assert np.shape(grid) == (size, size)
    for i in range(size):
        want = call(float(y[i]), float(tau[i]), float(k1[i]), float(k2[i]), order)
        assert isinstance(want, float)
        scale = max(1.0, abs(want))
        assert_element_matches(batched[i], want, exact, scale)
        assert_element_matches(grid[i, i], want, exact, scale)


@pytest.mark.parametrize("build, match", [
    (lambda: VanillaOptionSpec(spot=40.0, strike=np.array([40.0, np.nan]), rate=0.05,
                               vol=0.3, maturity=0.5), "strike must be finite, got nan"),
    (lambda: VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05,
                               vol=np.array([0.3, 0.0, 0.2]), maturity=0.5),
     "vol must be positive, got 0.0"),
    (lambda: VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.3,
                               maturity=np.array([0.5, 1.0]), valuation_time=0.75),
     "valuation_time 0.75 exceeds maturity 0.5"),
    (lambda: QuantoSpec(s1=40.0, s2=1.0, sigma1=0.1, sigma2=0.3,
                        rho=np.array([0.2, -1.5]), r1=0.03, r2=0.05, q=0.0, strike=40.0,
                        maturity=0.5), r"rho must lie in \[-1, 1\], got -1.5"),
    (lambda: BasketSpec(spots=[40.0, 40.0], weights=[0.5, 0.5], dividends=[0.0, 0.0],
                        covariance=[[[0.01, 0.0], [0.0, 0.09]], [[0.01, 0.1], [0.1, 0.09]]],
                        rate=0.05, strike=40.0, maturity=0.5),
     "covariance must be positive semidefinite"),
    (lambda: reduce_quanto(QuantoSpec(s1=40.0, s2=1.0, sigma1=np.array([0.1, 0.3]),
                                      sigma2=0.3, rho=1.0, r1=0.03, r2=0.05, q=0.0,
                                      strike=40.0, maturity=0.5)),
     "degenerate quanto volatility"),
    (lambda: GeneralizedReducedParams(np.array([1.0, np.inf]), 0.5), "k1 must be finite"),
], ids=["nan-strike", "zero-vol", "valuation-after-maturity", "rho-outside", "non-psd-stack",
        "degenerate-quanto", "infinite-k1"])
def test_one_bad_element_fails_closed(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_array_underflow_and_overflow_fail_closed():
    # the array forms of the CLI's --vol 1e-200 and tiny-covariance cases raise,
    # where numpy alone would return inf or nan for the one bad element
    spec = VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05,
                             vol=np.array([0.3, 1e-200]), maturity=0.5)
    for pricer in (hpm_series.price_single_hpm1, hpm_series.price_single_hpm2):
        with pytest.raises(ValueError, match="vol 1e-200 is too small"):
            pricer(spec)
    basket = BasketSpec(spots=[40.0, 40.0], weights=[0.5, 0.5], dividends=[0.0, 0.0],
                        covariance=[[[0.01, 0.0], [0.0, 0.09]],
                                    [[1e-300, 0.0], [0.0, 1e-300]]],
                        rate=0.05, strike=40.0, maturity=0.5)
    with pytest.raises(ValueError, match="series terms overflow"):
        hpm_series.price_basket_hpm(basket)
    with pytest.raises(ValueError, match="series terms overflow"):
        phi_term(4, 0.5, GeneralizedReducedParams(np.array([0.5, 1e200]), 0.0))
