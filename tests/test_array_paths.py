"""The array forms of the pricers against their scalar spec-level wrappers.

Figures price whole grids in one call, so every element of an array result
must carry the same bits as the scalar pricer on that one contract; the
figure CSVs are pinned by sha256 on top of that.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putpricer import hpm_series
from putpricer.cli import main
from putpricer.exact_pricing import (
    basket_put_array,
    basket_put_exact,
    bs_put,
    bs_put_array,
    quanto_put_array,
    quanto_put_exact,
)
from putpricer.hpm_series import hpm_reduced_sum
from putpricer.transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
)

# sha256 of `putpricer figure N --out ...` under the default configuration;
# the same values pin the paper-seed outputs of the benchmark
FIGURE_SHA256 = {
    1: "3888f9f5d5de54a709975f139c3ba3f0693a7f132a510b290af5e29fe4a8bb98",
    2: "664b15d4cd10a8b1fecac5aeb00895fc0b5c6bd4ac64afdbd1d7cc4ab5ee159f",
    3: "7f40eaecb6672ab9e5bc467a72bed61e22a3330ce33e722e5e2cbdf4fddc8b55",
    4: "1cad28aed1f958ee98ad756579770ac8ddd4d49b91e9afaabac6f0b991f681ef",
    5: "853b4d359bc85b0569b3b70428e9f4f25bdf4885bf4b239be81386f862fb8d97",
    6: "e316edce2e5dcb2bf3aaea2e2068d88d2e7205370fd8c1a2f9c4d43d64a3acda",
}


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_default_figure_bytes_are_pinned(figure, tmp_path):
    out = tmp_path / f"fig{figure}.csv"
    assert main(["figure", str(figure), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[figure]


# ---------------------------------------------------------------------------
# array path == scalar path, bit for bit
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
def test_single_array_matches_scalar(data, strike, money, rate, vol, maturity, order):
    times = np.array([data.draw(valuation_times(maturity)) for _ in range(3)])
    spots = strike * np.exp(np.array(money))
    base = VanillaOptionSpec(spot=strike, strike=strike, rate=rate, vol=vol,
                             maturity=maturity)
    grid = {"spot": spots[:, None], "valuation_time": times}
    exact = bs_put_array(base, **grid)
    hpm1 = hpm_series.price_single_hpm1_array(base, **grid)
    hpm2 = hpm_series.price_single_hpm2_array(base, order, **grid)
    assert exact.shape == hpm1.shape == hpm2.shape == (spots.size, times.size)
    for i, s in enumerate(spots.tolist()):
        for j, t in enumerate(times.tolist()):
            spec = VanillaOptionSpec(spot=s, strike=strike, rate=rate, vol=vol,
                                     maturity=maturity, valuation_time=t)
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
        assert bs_put_array(spec, spot=zero)[0] == strike
        assert hpm_series.price_single_hpm2_array(spec, order, spot=zero)[0] == strike
        return
    assert bs_put_array(spec, spot=zero)[0] == strike * math.exp(-rate * t_rem)
    k, tau = 2.0 * rate / (vol * vol), 0.5 * vol * vol * t_rem
    assert hpm_series.price_single_hpm1_array(spec, spot=zero)[0] == pytest.approx(
        strike * math.exp(-k * tau), rel=1e-15)
    if order % 2:
        with pytest.raises(ValueError, match="even order"):
            hpm_series.price_single_hpm2_array(spec, order, spot=zero)
    else:
        assert hpm_series.price_single_hpm2_array(spec, order, spot=zero)[0] == 0.0


@given(data=st.data(), strike=price, m1=moneyness, m2=moneyness,
       weight=st.floats(0.2, 0.8), sig=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
       corr=st.floats(-0.8, 0.9), rate=st.floats(0.0, 0.1),
       maturity=st.floats(0.05, 2.0), order=orders,
       variant=st.sampled_from(["generalized", "literal"]))
@settings(max_examples=40, deadline=None)
def test_basket_array_matches_scalar(data, strike, m1, m2, weight, sig, corr, rate,
                                     maturity, order, variant):
    s1, s2 = sig
    cov = [[s1 * s1, corr * s1 * s2], [corr * s1 * s2, s2 * s2]]
    fields = dict(weights=[weight, 1.0 - weight], dividends=[0.01, 0.0], covariance=cov,
                  rate=rate, strike=strike, maturity=maturity,
                  valuation_time=data.draw(valuation_times(maturity)))
    base = BasketSpec(spots=[strike, strike], **fields)
    g1, g2 = np.meshgrid(strike * np.exp(m1), strike * np.exp(m2), indexing="ij")
    spots = np.stack([g1, g2], axis=-1)
    exact = basket_put_array(base, spots)
    series = hpm_series.price_basket_hpm_array(base, order, variant, spots)
    assert exact.shape == series.shape == g1.shape
    for index in np.ndindex(g1.shape):
        spec = BasketSpec(spots=spots[index].tolist(), **fields)
        assert exact[index] == basket_put_exact(spec)
        assert series[index] == hpm_series.price_basket_hpm(spec, order, variant)


@given(data=st.data(), strike=price, m1=moneyness, s2=st.lists(st.floats(0.5, 60.0),
       min_size=1, max_size=4), sigma1=st.floats(0.05, 0.5), sigma2=st.floats(0.0, 0.5),
       rho=st.floats(-1.0, 0.5), rates=st.tuples(*[st.floats(0.0, 0.1)] * 3),
       maturity=st.floats(0.05, 2.0), order=orders)
@settings(max_examples=40, deadline=None)
def test_quanto_array_matches_scalar(data, strike, m1, s2, sigma1, sigma2, rho, rates,
                                     maturity, order):
    r1, r2, q = rates
    fields = dict(sigma1=sigma1, sigma2=sigma2, rho=rho, r1=r1, r2=r2, q=q,
                  strike=strike, maturity=maturity,
                  valuation_time=data.draw(valuation_times(maturity)))
    base = QuantoSpec(s1=strike, s2=1.0, **fields)
    s1_axis = strike * np.exp(np.array(m1))[:, None]
    s2_axis = np.array(s2)[None, :]
    exact = quanto_put_array(base, s1_axis, s2_axis)
    series = hpm_series.price_quanto_hpm_array(base, order, s1_axis, s2_axis)
    assert exact.shape == series.shape == (len(m1), len(s2))
    for i, a in enumerate(s1_axis[:, 0].tolist()):
        for j, b in enumerate(s2):
            spec = QuantoSpec(s1=a, s2=b, **fields)
            assert exact[i, j] == quanto_put_exact(spec)
            assert series[i, j] == hpm_series.price_quanto_hpm(spec, order)


def test_array_forms_reject_what_specs_reject():
    spec = VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.3, maturity=0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        bs_put_array(spec, spot=np.array([10.0, -1.0]))
    with pytest.raises(ValueError, match="exceed maturity"):
        bs_put_array(spec, valuation_time=np.array([0.0, 0.6]))
    basket = BasketSpec(spots=[40.0, 40.0], weights=[0.5, 0.5], dividends=[0.0, 0.0],
                        covariance=[[0.01, 0.0], [0.0, 0.09]], rate=0.05, strike=40.0,
                        maturity=0.5)
    with pytest.raises(ValueError, match="2 assets"):
        basket_put_array(basket, np.full((3, 3), 40.0))
    with pytest.raises(ValueError, match="positive"):
        hpm_series.price_basket_hpm_array(basket, spots=np.array([[40.0, 0.0]]))
    quanto = QuantoSpec(s1=40.0, s2=40.0, sigma1=0.1, sigma2=0.3, rho=1.0, r1=0.03,
                        r2=0.05, q=0.0, strike=40.0, maturity=0.5)
    with pytest.raises(ValueError, match="finite"):
        quanto_put_array(quanto, s2=np.array([np.nan]))


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
