import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from putpricer.transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    _libm,
    reduce_basket,
    reduce_contract,
    reduce_quanto,
    to_dimensionless,
)

SECTION5 = dict(spot=40.0, strike=40.0, rate=0.05, vol=0.324336, maturity=0.5)


def make_basket(spots=(40.0, 40.0), weights=(0.5, 0.5), dividends=(0.0, 0.0),
                covariance=((0.01, 0.0), (0.0, 0.09)), rate=0.05, strike=40.0,
                maturity=0.5, valuation_time=0.0):
    return BasketSpec(spots=np.array(spots), weights=np.array(weights),
                      dividends=np.array(dividends), covariance=np.array(covariance),
                      rate=rate, strike=strike, maturity=maturity,
                      valuation_time=valuation_time)


# ---------------------------------------------------------------------------
# to_dimensionless
# ---------------------------------------------------------------------------


def test_dimensionless_at_the_money_expiry():
    spec = VanillaOptionSpec(**{**SECTION5, "valuation_time": 0.5})
    rc = to_dimensionless(spec)
    assert rc.x == 0.0
    assert rc.tau == 0.0
    assert rc.k == pytest.approx(2 * 0.05 / 0.324336**2, rel=1e-15)


def test_dimensionless_section5_parameters():
    rc = to_dimensionless(VanillaOptionSpec(**SECTION5))
    assert rc.k == pytest.approx(0.1 / 0.324336**2, rel=1e-15)
    assert rc.tau == pytest.approx(0.5 * 0.324336**2 * 0.5, rel=1e-15)


def test_dimensionless_log_moneyness():
    spec = VanillaOptionSpec(**{**SECTION5, "spot": 80.0})
    assert to_dimensionless(spec).x == pytest.approx(math.log(2.0), rel=1e-15)


def test_log_moneyness_is_libm_log_per_element_and_minus_inf_at_zero_ratio():
    # 5e-324 / 40 underflows to 0, which is the zero-spot limit as well
    spots = np.array([[0.0, 1e-310, 40.0], [37.3, 80.0, 5e-324]])
    x = reduce_contract(VanillaOptionSpec(**{**SECTION5, "spot": spots})).y
    ratios = (spots / 40.0).tolist()
    assert x.tolist() == [[math.log(r) if r > 0.0 else -math.inf for r in row] for row in ratios]
    for spot, value in zip(spots.ravel().tolist(), x.ravel().tolist()):
        one = reduce_contract(VanillaOptionSpec(**{**SECTION5, "spot": spot})).y
        assert type(one) is np.float64 and one == value


def test_libm_overflow_names_the_function_and_the_argument():
    with pytest.raises(ValueError, match=r"^exp\(1000\.0\) is out of float range$"):
        _libm(math.exp, 1000.0)
    with pytest.raises(ValueError, match=r"^exp\(1200\.0\) is out of float range$"):
        _libm(math.exp, np.array([[1.0, 800.0], [1200.0, -5.0]]))
    values = np.array([[1.0, 2.5], [-700.0, 0.0]])
    assert _libm(math.exp, values).tolist() == [[math.exp(v) for v in row]
                                                 for row in values.tolist()]


def test_deep_itm_limit_matches_discounting_boundary():
    # in the limit x -> -inf the reduced value e^{-k tau} - e^x scales back to
    # K e^{-k tau}, which must be the discounted strike K e^{-r (T - t)}
    spec = VanillaOptionSpec(**SECTION5)
    rc = to_dimensionless(spec)
    lhs = spec.strike * math.exp(-rc.k * rc.tau)
    rhs = spec.strike * math.exp(-spec.rate * spec.time_remaining)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_invalid_time_rejected():
    with pytest.raises(ValueError):
        VanillaOptionSpec(**{**SECTION5, "valuation_time": 0.6})


def test_dimensionless_round_trip_random():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        spec = VanillaOptionSpec(
            spot=float(rng.uniform(5, 200)), strike=float(rng.uniform(5, 200)),
            rate=float(rng.uniform(0.0, 0.15)), vol=float(rng.uniform(0.05, 1.0)),
            maturity=float(rng.uniform(1e-3, 3.0)),
        )
        rc = to_dimensionless(spec)
        assert spec.strike * math.exp(rc.x) == pytest.approx(spec.spot, rel=1e-15)
        assert 2.0 * rc.tau / (spec.vol * spec.vol) == pytest.approx(
            spec.maturity, rel=1e-15
        )
        assert rc.k * spec.vol * spec.vol / 2.0 == pytest.approx(spec.rate, rel=1e-15)


@given(
    spot=st.floats(10.0, 200.0),
    strike=st.floats(10.0, 200.0),
    rate=st.floats(0.0, 0.15),
    vol=st.floats(0.05, 1.0),
    t_rem=st.floats(1e-4, 3.0),
)
def test_dimensionless_round_trip(spot, strike, rate, vol, t_rem):
    spec = VanillaOptionSpec(spot=spot, strike=strike, rate=rate, vol=vol, maturity=t_rem)
    rc = to_dimensionless(spec)
    assert spec.strike * math.exp(rc.x) == pytest.approx(spot, rel=1e-13)
    assert 2.0 * rc.tau / (vol * vol) == pytest.approx(t_rem, rel=1e-13)


# ---------------------------------------------------------------------------
# basket reduction
# ---------------------------------------------------------------------------


def test_basket_single_asset_degeneration():
    sigma = 0.3
    spec = make_basket(spots=(40.0,), weights=(1.0,), dividends=(0.0,),
                       covariance=((sigma * sigma,),))
    red = reduce_basket(spec)
    assert red.sigma_hat == pytest.approx(sigma, rel=1e-15)
    assert red.q_hat == pytest.approx(0.0, abs=1e-18)


def test_basket_two_asset_arithmetic():
    red = reduce_basket(make_basket())
    assert red.sigma_hat**2 == pytest.approx(0.25 * (0.01 + 0.09), rel=1e-14)
    assert red.q_hat == pytest.approx(0.5 * 0.005 + 0.5 * 0.045 - 0.0125, rel=1e-14)
    assert reduce_contract(make_basket()).y == 0.0


def test_basket_perfectly_correlated_identical_assets():
    sigma = 0.25
    cov = sigma * sigma * np.ones((2, 2))
    red = reduce_basket(make_basket(weights=(0.3, 0.7), covariance=cov))
    assert red.sigma_hat == pytest.approx(sigma, rel=1e-14)


def test_basket_reduced_params_mapping():
    red = reduce_contract(make_basket())
    assert red.params.k1 == pytest.approx(2 * (0.05 - 0.0125) / 0.025, rel=1e-13)
    assert red.params.k2 == pytest.approx(2 * 0.05 / 0.025, rel=1e-13)
    assert red.tau == pytest.approx(0.5 * 0.025 * 0.5, rel=1e-15)
    assert (red.y, red.scale) == (0.0, 40.0)


def test_reduce_contract_refuses_a_degenerate_basket_with_the_reduction_message():
    with pytest.raises(ValueError, match=r"^basket reduction is degenerate: sigma_hat\^2 must "
                                         r"be positive, got 0\.0$"):
        reduce_contract(make_basket(covariance=((0.0, 0.0), (0.0, 0.0))))


def test_basket_weight_sum_violation():
    with pytest.raises(ValueError, match="sum to 1"):
        make_basket(weights=(0.6, 0.6))


def test_basket_non_psd_covariance():
    with pytest.raises(ValueError, match="semidefinite"):
        make_basket(covariance=((0.01, 0.05), (0.05, 0.01)))


def test_basket_asymmetric_covariance():
    with pytest.raises(ValueError, match="symmetric"):
        make_basket(covariance=((0.01, 0.02), (0.0, 0.09)))


def test_basket_sigma_hat_nonnegative_on_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(n, n))
        cov = m @ m.T
        alpha = rng.uniform(0.05, 1.0, n)
        alpha /= alpha.sum()
        spec = make_basket(
            spots=tuple(rng.uniform(10, 100, n)),
            weights=tuple(alpha),
            dividends=tuple(rng.uniform(0, 0.05, n)),
            covariance=cov,
        )
        assert reduce_basket(spec).sigma_hat >= 0.0


# ---------------------------------------------------------------------------
# quanto reduction
# ---------------------------------------------------------------------------

FIG5 = dict(s1=40.0, s2=40.0, sigma1=0.1, sigma2=0.3, rho=1.0,
            r1=0.03, r2=0.05, q=0.0, strike=40.0, maturity=0.5)


def test_quanto_fig5_arithmetic():
    red = reduce_quanto(QuantoSpec(**FIG5))
    assert red.sigma_hat_sq == pytest.approx(0.04, rel=1e-14)
    assert red.q_hat == pytest.approx(-0.02, rel=1e-13)
    assert red.r_hat == pytest.approx(0.02, rel=1e-13)
    params = reduce_contract(QuantoSpec(**FIG5)).params
    assert params.k1 == pytest.approx(-1.0, rel=1e-13)
    assert params.k2 == pytest.approx(1.0, rel=1e-13)


def test_reduce_contract_quanto_fig5_table():
    # y = ln(S1/E), tau = sigma_hat^2 (T-t)/2, the pair of reduce_quanto, scale S2^2 (E/S2)
    spec = QuantoSpec(**{**FIG5, "s1": 30.0, "s2": 1.5})
    red = reduce_contract(spec)
    assert red.y == math.log(30.0 / 40.0)
    assert red.tau == pytest.approx(0.5 * 0.04 * 0.5, rel=1e-13)
    quanto = reduce_quanto(spec)
    assert red.params.k1 == 2.0 * quanto.q_hat / quanto.sigma_hat_sq
    assert red.params.k2 == 2.0 * quanto.r_hat / quanto.sigma_hat_sq
    assert red.scale == 1.5 * 1.5 * (40.0 / 1.5)


def test_reduce_contract_single_table_and_refusals():
    red = reduce_contract(VanillaOptionSpec(**{**SECTION5, "spot": 80.0}))
    k = 2 * 0.05 / 0.324336**2
    assert red.y == math.log(2.0) and red.scale == 40.0
    assert red.params.k1 == red.params.k2 == pytest.approx(k, rel=1e-15)
    assert red.tau == 0.5 * 0.324336 * 0.324336 * 0.5
    with pytest.raises(ValueError, match=r"^vol 1e-200 is too small: vol\^2 underflows to zero$"):
        reduce_contract(VanillaOptionSpec(**{**SECTION5, "vol": 1e-200}))
    with pytest.raises(ValueError, match=r"^vol 1e-155 is too small: 2 rate / vol\^2 is not"):
        reduce_contract(VanillaOptionSpec(**{**SECTION5, "vol": 1e-155}))


def test_quanto_zero_fx_vol_collapses():
    red = reduce_quanto(QuantoSpec(**{**FIG5, "sigma2": 0.0, "rho": -0.4, "r2": 0.07}))
    assert red.sigma_hat_sq == pytest.approx(0.1**2, rel=1e-15)


def test_quanto_carry_discount_identity():
    # q_hat + r_hat = -q follows from the two definitions (the sigma2^2 and
    # rate terms cancel exactly)
    rng = np.random.default_rng(5)
    for _ in range(300):
        spec = QuantoSpec(
            s1=40.0, s2=1.0,
            sigma1=float(rng.uniform(0.05, 0.6)),
            sigma2=float(rng.uniform(0.0, 0.6)),
            rho=float(rng.uniform(-1, 1)),
            r1=float(rng.uniform(-0.05, 0.1)),
            r2=float(rng.uniform(-0.05, 0.1)),
            q=float(rng.uniform(0.0, 0.08)),
            strike=40.0, maturity=1.0,
        )
        try:
            red = reduce_quanto(spec)
        except ValueError:
            continue
        scale = max(1.0, abs(red.q_hat), abs(red.r_hat))
        assert abs((red.q_hat + red.r_hat) - (-spec.q)) <= 4e-16 * scale


def test_quanto_degenerate_volatility_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        reduce_quanto(QuantoSpec(**{**FIG5, "sigma1": 0.3, "sigma2": 0.3, "rho": 1.0}))


def test_quanto_invalid_rho():
    with pytest.raises(ValueError, match="rho"):
        QuantoSpec(**{**FIG5, "rho": 1.5})
