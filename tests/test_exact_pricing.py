import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putpricer.exact_pricing import (
    basket_put_exact,
    bs_put,
    quanto_put_exact,
    reduced_exact_u,
)
from putpricer.pde_oracle import _richardson_at_zero
from putpricer.transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    reduce_contract,
    reduce_quanto,
)

SECTION5 = dict(spot=40.0, strike=40.0, rate=0.05, vol=0.324336, maturity=0.5)

# frozen by the Crank-Nicolson oracle run in the acceptance suite
BS_PUT_SECTION5_ATM = 3.1341649725632905

FIG5 = dict(s1=40.0, s2=40.0, sigma1=0.1, sigma2=0.3, rho=1.0,
            r1=0.03, r2=0.05, q=0.0, strike=40.0, maturity=0.5)


def make_basket(**overrides):
    base = dict(spots=np.array([40.0, 40.0]), weights=np.array([0.5, 0.5]),
                dividends=np.zeros(2), covariance=np.diag([0.01, 0.09]),
                rate=0.05, strike=40.0, maturity=0.5)
    base.update(overrides)
    return BasketSpec(**base)


def random_vanilla(rng, atm_band=(0.5, 2.0)):
    strike = float(rng.uniform(20, 100))
    return VanillaOptionSpec(
        spot=strike * float(rng.uniform(*atm_band)),
        strike=strike,
        rate=float(rng.uniform(0.0, 0.12)),
        vol=float(rng.uniform(0.1, 0.6)),
        maturity=float(rng.uniform(0.1, 2.0)),
    )


# ---------------------------------------------------------------------------
# bs_put
# ---------------------------------------------------------------------------


def test_bs_put_zero_spot_limit():
    spec = VanillaOptionSpec(**{**SECTION5, "spot": 1e-14})
    bound = 40.0 * math.exp(-0.05 * 0.5)
    assert bs_put(spec) == pytest.approx(bound, rel=1e-13)


def test_bs_put_payoff_at_expiry():
    for spot in (25.0, 40.0, 55.0):
        spec = VanillaOptionSpec(**{**SECTION5, "spot": spot, "valuation_time": 0.5})
        assert bs_put(spec) == max(40.0 - spot, 0.0)


def test_bs_put_section5_regression():
    assert bs_put(VanillaOptionSpec(**SECTION5)) == pytest.approx(
        BS_PUT_SECTION5_ATM, abs=1e-12
    )


def test_bs_put_monotone_in_spot_and_strike():
    spots = np.linspace(5.0, 120.0, 200)
    prices = [bs_put(VanillaOptionSpec(**{**SECTION5, "spot": float(s)})) for s in spots]
    assert all(b <= a + 1e-12 for a, b in zip(prices, prices[1:]))
    strikes = np.linspace(5.0, 120.0, 200)
    prices = [
        bs_put(VanillaOptionSpec(**{**SECTION5, "strike": float(k)})) for k in strikes
    ]
    assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))


def test_bs_put_boundary_conditions():
    small = bs_put(VanillaOptionSpec(**{**SECTION5, "spot": 1e-10}))
    assert small == pytest.approx(40.0 * math.exp(-0.025), abs=1e-9)
    assert bs_put(VanillaOptionSpec(**{**SECTION5, "spot": 1e6})) == 0.0


def test_bs_put_within_no_arbitrage_bounds():
    rng = np.random.default_rng(2)
    for _ in range(300):
        spec = random_vanilla(rng, atm_band=(0.1, 5.0))
        p = bs_put(spec)
        assert 0.0 <= p <= spec.strike * math.exp(-spec.rate * spec.time_remaining) + 1e-12


# ---------------------------------------------------------------------------
# basket closed form
# ---------------------------------------------------------------------------


def test_basket_single_asset_degenerates_to_bs():
    rng = np.random.default_rng(6)
    for _ in range(200):
        vanilla = random_vanilla(rng)
        spec = BasketSpec(
            spots=np.array([vanilla.spot]), weights=np.array([1.0]),
            dividends=np.zeros(1),
            covariance=np.array([[vanilla.vol**2]]),
            rate=vanilla.rate, strike=vanilla.strike, maturity=vanilla.maturity,
        )
        assert basket_put_exact(spec) == pytest.approx(bs_put(vanilla), abs=1e-12)


def test_basket_payoff_at_expiry():
    spec = make_basket(spots=np.array([30.0, 50.0]), valuation_time=0.5)
    geo = math.sqrt(30.0 * 50.0)
    assert basket_put_exact(spec) == pytest.approx(max(40.0 - geo, 0.0), rel=1e-15)


def test_basket_fig3_regression_against_reduced_route():
    spec = make_basket()
    red = reduce_contract(spec)
    routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
    assert basket_put_exact(spec) == pytest.approx(routed, abs=1e-12)
    # frozen by the CN oracle in the acceptance suite
    assert basket_put_exact(spec) == pytest.approx(1.4110392664949423, abs=1e-12)


def random_basket(n, rng, at_the_money=False):
    # random PSD covariance, weights, dividends and spots within 12% of the strike
    weights = rng.dirichlet(np.ones(n))
    logs = rng.uniform(-0.12, 0.12, n)
    if at_the_money:
        logs = logs - logs @ weights  # xi = sum alpha_i ln(S_i/K) = 0
    root = rng.uniform(-0.3, 0.3, (n, n))
    return BasketSpec(
        spots=40.0 * np.exp(logs), weights=weights,
        dividends=rng.uniform(0.0, 0.03, n),
        covariance=root @ root.T + np.diag(rng.uniform(0.005, 0.05, n)),
        rate=0.05, strike=40.0, maturity=0.5,
    )


def test_basket_closed_form_matches_reduced_route_for_three_to_five_assets():
    # a geometric basket is lognormal for every n, so the market-variable
    # closed form and the (k1, k2) reduction agree beyond two assets
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        spec = random_basket(n, rng)
        red = reduce_contract(spec)
        routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
        assert basket_put_exact(spec) > 1.0
        assert basket_put_exact(spec) == pytest.approx(routed, rel=1e-13, abs=0.0)


def test_basket_closed_form_matches_cn_oracle_for_three_assets():
    spec = random_basket(3, np.random.default_rng(37), at_the_money=True)
    red = reduce_contract(spec)
    assert abs(red.y) < 1e-15
    # the payoff kink sits at the compared node and tau is ~0.01: 800 nodes and
    # 800 steps alone are off by 2.6e-5 here; Richardson over 400 + 800 nodes
    # (100 + 200 steps) by 4.3e-8.  The extrapolated gap changes sign between
    # n = 200 (-6.3e-9) and n = 220 (4.4e-8)
    u = _richardson_at_zero(red.params, red.tau, 400)
    assert abs(u - basket_put_exact(spec) / red.scale) < 1e-7


def test_basket_correlated_identical_assets_match_reduced_route():
    sigma = 0.25
    cov = sigma * sigma * np.ones((2, 2))
    for q in (0.0, 0.03):
        spec = make_basket(covariance=cov, dividends=np.full(2, q))
        red = reduce_contract(spec)
        routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
        assert basket_put_exact(spec) == pytest.approx(routed, abs=1e-12)
        if q == 0.0:
            vanilla = VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05,
                                        vol=sigma, maturity=0.5)
            assert basket_put_exact(spec) == pytest.approx(bs_put(vanilla), abs=1e-12)


# ---------------------------------------------------------------------------
# quanto closed form
# ---------------------------------------------------------------------------


def test_quanto_linear_in_exchange_rate():
    base = quanto_put_exact(QuantoSpec(**FIG5))
    doubled = quanto_put_exact(QuantoSpec(**{**FIG5, "s2": 80.0}))
    assert doubled == 2.0 * base  # exact homogeneity, bit for bit


@given(lam=st.floats(0.1, 10.0))
@settings(max_examples=50)
def test_quanto_homogeneous_degree_one(lam):
    base = quanto_put_exact(QuantoSpec(**FIG5))
    scaled = quanto_put_exact(QuantoSpec(**{**FIG5, "s2": 40.0 * lam}))
    assert scaled == pytest.approx(lam * base, rel=1e-13)


def test_quanto_vanishes_for_large_asset_price():
    assert quanto_put_exact(QuantoSpec(**{**FIG5, "s1": 4e4})) == 0.0


def test_quanto_payoff_at_expiry():
    spec = QuantoSpec(**{**FIG5, "s1": 25.0, "valuation_time": 0.5})
    assert quanto_put_exact(spec) == 40.0 * max(40.0 - 25.0, 0.0)


def test_quanto_fig5_regression_and_reduced_route():
    spec = QuantoSpec(**FIG5)
    red = reduce_contract(spec)
    routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
    price = quanto_put_exact(spec)
    assert price == pytest.approx(routed, rel=1e-12)
    # frozen by the CN oracle in the acceptance suite
    assert price == pytest.approx(96.95604139940974, abs=1e-10)


def test_quanto_reduced_route_consistency_random():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 300:
        spec = QuantoSpec(
            s1=float(rng.uniform(25, 70)), s2=float(rng.uniform(0.5, 3.0)),
            sigma1=float(rng.uniform(0.05, 0.5)), sigma2=float(rng.uniform(0.0, 0.5)),
            rho=float(rng.uniform(-1, 1)), r1=float(rng.uniform(0, 0.1)),
            r2=float(rng.uniform(0, 0.1)), q=float(rng.uniform(0, 0.05)),
            strike=float(rng.uniform(25, 70)), maturity=float(rng.uniform(0.1, 2.0)),
        )
        if reduce_quanto(spec).sigma_hat_sq <= 1e-4:
            continue
        checked += 1
        red = reduce_contract(spec)
        routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
        price = quanto_put_exact(spec)
        if price > 1e-10:
            assert price == pytest.approx(routed, rel=1e-10)


# ---------------------------------------------------------------------------
# reduced_exact_u
# ---------------------------------------------------------------------------


def test_reduced_exact_matches_bs_put_on_random_specs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        spec = random_vanilla(rng)
        red = reduce_contract(spec)
        routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
        assert routed == pytest.approx(bs_put(spec), abs=1e-12)


def test_reduced_exact_far_out_of_the_money():
    params = GeneralizedReducedParams(0.95, 0.95)
    assert reduced_exact_u(50.0, 0.3, params) == 0.0


def test_reduced_exact_recovers_payoff_near_expiry():
    params = GeneralizedReducedParams(0.95, 0.95)
    value = reduced_exact_u(-1.0, 1e-8, params)
    assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


def test_reduced_exact_rejects_expiry():
    with pytest.raises(ValueError, match="tau"):
        reduced_exact_u(0.0, 0.0, GeneralizedReducedParams(1.0, 1.0))


def test_reduced_exact_vectorizes():
    params = GeneralizedReducedParams(-1.0, 1.0)
    y = np.linspace(-2, 2, 11)
    out = reduced_exact_u(y, 0.01, params)
    assert out.shape == y.shape
    singles = np.array([reduced_exact_u(float(v), 0.01, params) for v in y])
    assert np.allclose(out, singles, rtol=0, atol=0)
