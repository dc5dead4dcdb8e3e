import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putpricer import hpm_series as hpm
from putpricer.exact_pricing import bs_put, reduced_exact_u
from putpricer.hpm_series import (
    MAX_ORDER,
    hpm1_reduced,
    hpm_reduced_sum,
    phi_term,
    price_basket_hpm,
    price_quanto_hpm,
    price_single_hpm1,
    price_single_hpm2,
    single_asset_term,
)
from putpricer.transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    to_dimensionless,
)

SECTION5 = dict(strike=40.0, rate=0.05, vol=0.324336, maturity=0.5)
SQRT_PI = math.sqrt(math.pi)

# frozen regression constants (established against the exact-solution oracle)
HPM_SUM_VS_EXACT_FIG1_BOUND = 0.3127129478271348   # max on y in [-3, 3], order 6
HPM2_VS_BS_AT_80 = 1e-8                            # |hpm2 - bs_put| at S = 80


def fig1_spec(spot):
    return VanillaOptionSpec(spot=spot, **SECTION5)


def fig1_params():
    rc = to_dimensionless(fig1_spec(40.0))
    return rc, GeneralizedReducedParams(rc.k, rc.k)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def term_taylor_oracle(z, k1, k2, n):
    """n-th root-time Taylor coefficient of the exact reduced solution.

    The smoothed series terms must reproduce these coefficients exactly;
    computed in 60-digit arithmetic, entirely outside the library.
    """
    with mp.workdps(60):
        z_, k1_, k2_ = mp.mpf(z), mp.mpf(k1), mp.mpf(k2)

        def ncdf(v):
            return mp.erfc(-v / mp.sqrt(2)) / 2

        def numerator(w):
            d1 = (z_ + w * (k1_ - 1)) / mp.sqrt(2)
            d2 = (z_ + w * (k1_ + 1)) / mp.sqrt(2)
            return mp.exp(-k2_ * w * w) * ncdf(-d1) - mp.exp(
                z_ * w + (k1_ - k2_) * w * w
            ) * ncdf(-d2)

        return float(mp.taylor(numerator, 0, n + 1)[n + 1])


def term_deep_itm_asymptote(n, z, k1, k2):
    """Polynomial the n-th term approaches as z -> -inf.

    Coefficient of w^n in (e^{-k2 w^2} - e^{z w + (k1-k2) w^2}) / w; combinatorial
    evaluation, independent of the term formulas.
    """
    total = 0.0
    if n % 2 == 1:
        m = (n + 1) // 2
        total += (-k2) ** m / math.factorial(m)
    for m in range((n + 1) // 2 + 1):
        j = n + 1 - 2 * m
        if j < 0:
            continue
        total -= (k1 - k2) ** m / math.factorial(m) * z**j / math.factorial(j)
    return total


# ---------------------------------------------------------------------------
# term values
# ---------------------------------------------------------------------------


def test_phi0_at_origin():
    assert phi_term(0, 0.0, GeneralizedReducedParams(1.0, 2.0)) == pytest.approx(
        1.0 / SQRT_PI, rel=1e-15
    )


def test_phi1_at_origin_is_minus_half_k1():
    for k1 in (-1.5, 0.3, 2.0):
        params = GeneralizedReducedParams(k1, 0.789)
        assert phi_term(1, 0.0, params) == pytest.approx(-0.5 * k1, rel=1e-14)


def test_phi2_specializes_to_single_asset_form():
    value = phi_term(2, 1.0, GeneralizedReducedParams(0.5, 0.5))
    assert value == pytest.approx(single_asset_term(2, 1.0, 0.5), abs=1e-14)


def test_single_asset_term_matches_phi_identically_at_n0():
    z = np.linspace(-8, 8, 41)
    a = phi_term(0, z, GeneralizedReducedParams(0.7, 0.7))
    b = single_asset_term(0, z, 0.7)
    assert np.array_equal(a, b)


def test_single_asset_n3_hand_value():
    # at z = 0, k = 1 the bracket reduces to (0 - 12)(erf(0) - 1)/48 = 12/48
    assert single_asset_term(3, 0.0, 1.0) == pytest.approx(0.25, rel=1e-14)


def test_specialization_identity_random():
    rng = np.random.default_rng(123)
    xi = rng.uniform(-10.0, 10.0, 1000)
    for n in range(MAX_ORDER):
        for k in rng.uniform(0.1, 3.0, 5):
            params = GeneralizedReducedParams(float(k), float(k))
            diff = np.abs(phi_term(n, xi, params) - single_asset_term(n, xi, float(k)))
            assert diff.max() <= 1e-12


def test_term_rows_equal_one_call_per_order():
    # one special-function pass yielding order after order returns what a
    # term call per order returns, on both sides of z = 0 and for array k
    rng = np.random.default_rng(124)
    z = rng.uniform(-10.0, 10.0, 300)
    k1, k2 = rng.uniform(-2.0, 3.0, (2, 4, 1))
    orders = range(MAX_ORDER)
    phi_rows = list(hpm._term_rows(hpm._phi_polys, orders, z, k1, k2))
    single_rows = list(hpm._term_rows(hpm._single_polys, orders, z, k1))
    assert np.stack(phi_rows).shape == np.stack(single_rows).shape == (MAX_ORDER, 4, 300)
    for n, phi, single in zip(orders, phi_rows, single_rows):
        assert np.array_equal(phi, phi_term(n, z, GeneralizedReducedParams(k1, k2)))
        assert np.array_equal(single, single_asset_term(n, z, k1))
    # a range that starts above 0 yields only its own orders
    later = list(hpm._term_rows(hpm._phi_polys, range(3, MAX_ORDER), z, k1, k2))
    assert len(later) == MAX_ORDER - 3
    assert all(np.array_equal(row, phi_rows[n]) for n, row in zip(range(3, MAX_ORDER), later))


@pytest.mark.parametrize(
    "z,k1,k2",
    [(0.3, 0.95, 0.95), (-1.2, -1.0, 1.0)],
)
def test_terms_are_taylor_coefficients_of_exact_solution(z, k1, k2):
    params = GeneralizedReducedParams(k1, k2)
    for n in range(MAX_ORDER):
        ref = term_taylor_oracle(z, k1, k2, n)
        assert phi_term(n, z, params) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_deep_itm_asymptote_all_orders():
    for k1, k2 in [(0.95, 0.95), (-1.0, 1.0), (1.7, 0.3)]:
        params = GeneralizedReducedParams(k1, k2)
        for n in range(MAX_ORDER):
            got = phi_term(n, -12.0, params)
            ref = term_deep_itm_asymptote(n, -12.0, k1, k2)
            assert got == pytest.approx(ref, abs=1e-8)


def test_right_tail_decay_all_orders():
    for k1, k2 in [(0.95, 0.95), (-1.0, 1.0)]:
        params = GeneralizedReducedParams(k1, k2)
        for n in range(MAX_ORDER):
            assert abs(phi_term(n, 12.0, params)) < 1e-12
            assert abs(single_asset_term(n, 12.0, k1)) < 1e-12


def test_term_index_validation():
    params = GeneralizedReducedParams(1.0, 1.0)
    with pytest.raises(ValueError, match="unsupported"):
        phi_term(6, 0.0, params)
    with pytest.raises(ValueError, match="unsupported"):
        single_asset_term(-1, 0.0, 1.0)
    with pytest.raises(ValueError, match="integer"):
        phi_term(2.5, 0.0, params)
    with pytest.raises(ValueError, match="finite"):
        phi_term(2, float("nan"), params)


@pytest.mark.filterwarnings("error")
def test_huge_coordinates_refused():
    # past |z| = 1e50 the order-5 factors' z^6 overflows; a tau of 1e-300
    # puts y / sqrt(tau) at 1e150, which used to give nan after warnings
    params = GeneralizedReducedParams(0.7, 1.2)
    with pytest.raises(ValueError, match="at most 1e50"):
        hpm_reduced_sum(1.0, 1e-300, params)
    with pytest.raises(ValueError, match="at most 1e50"):
        phi_term(2, 1e60, params)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("price, spec", [
    (price_single_hpm2, VanillaOptionSpec(spot=40.0, **{**SECTION5, "vol": 1e200})),
    (price_single_hpm2, VanillaOptionSpec(spot=40.0, **{**SECTION5, "vol": 1e150})),
    (price_single_hpm2, VanillaOptionSpec(spot=np.array([30.0, 40.0]),
                                          **{**SECTION5, "vol": 1e150})),
    (price_basket_hpm, BasketSpec(spots=[40.0, 40.0], weights=[0.5, 0.5], dividends=[0.0, 0.0],
                                  covariance=[[1e300, 0.0], [0.0, 1e300]], rate=0.05,
                                  strike=40.0, maturity=0.5)),
    (price_quanto_hpm, QuantoSpec(s1=40.0, s2=40.0, sigma1=1e150, sigma2=0.3, rho=1.0, r1=0.03,
                                  r2=0.05, q=0.0, strike=40.0, maturity=0.5)),
], ids=["single-vol-1e200", "single-vol-1e150", "single-array", "basket", "quanto"])
def test_series_refuses_a_reduced_time_past_the_cap(price, spec):
    # tau ~ 1e299 (inf at vol 1e200) overflowed w^n into a nan price
    with pytest.raises(ValueError, match="reduced time tau must not exceed 1e50"):
        price(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y, tau", [
    (-1e74, 1e48),
    (np.array([-1e74]), np.array([1e48])),
    (np.array([0.3, -1e74, -5e73, 0.0]), np.array([0.5, 1e48, 1e48, 0.0])),
], ids=["one-point", "shape-(1,)", "array"])
def test_reduced_sum_refuses_a_non_finite_sum(y, tau):
    # z = -1e50 is within the coordinate cap, but the order-5 term's z^6 times w^6 = 1e144
    # overflows: refused without a warning, on Python floats and on arrays alike
    with pytest.raises(ValueError, match=r"not finite at y = -1e\+74, tau = 1e\+48$"):
        hpm_reduced_sum(y, tau, GeneralizedReducedParams(1.5, 0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vol", [1e200, np.array([1e200]), np.array([0.3, 1e200])],
                         ids=["float", "shape-(1,)", "array"])
@pytest.mark.parametrize("price, match", [
    (price_single_hpm1, r"k \* tau = 0 \* inf"),
    (price_single_hpm2, "reduced time tau must not exceed 1e50"),
])
def test_an_overflowing_vol_is_refused_unwarned(vol, price, match):
    # an array vol's square overflows without numpy's warning, so the refusal that a
    # float vol meets comes first for either field form (bs_put's: test_exact_pricing)
    with pytest.raises(ValueError, match=match):
        price(VanillaOptionSpec(spot=40.0, strike=45.0, rate=0.0, vol=vol, maturity=0.5))


@pytest.mark.filterwarnings("error")
def test_hpm1_refuses_an_overflowing_growth_factor():
    # e^{-k tau} = e^{1000}: inf with a RuntimeWarning, now the discount factor's refusal
    spec = dict(spot=40.0, strike=40.0, vol=0.3, maturity=100.0)
    with pytest.raises(ValueError, match=r"^exp\(1000\.\d*\) is out of float range$"):
        price_single_hpm1(VanillaOptionSpec(rate=-10.0, **spec))
    with pytest.raises(ValueError, match=r"^exp\(1000\.\d*\) is out of float range$"):
        price_single_hpm1(VanillaOptionSpec(rate=np.array([0.05, -10.0]), **spec))


def test_term_bound_message_follows_max_order(monkeypatch):
    import putpricer.hpm_series as hpm

    params = GeneralizedReducedParams(1.0, 1.0)
    with pytest.raises(ValueError, match=rf"terms stop at {MAX_ORDER - 1}$"):
        phi_term(MAX_ORDER, 0.0, params)
    # the bound is read from MAX_ORDER, not restated
    monkeypatch.setattr(hpm, "MAX_ORDER", 4)
    with pytest.raises(ValueError, match=r"order 4; terms stop at 3$"):
        single_asset_term(4, 0.0, 1.0)


# ---------------------------------------------------------------------------
# naive series
# ---------------------------------------------------------------------------


def test_hpm1_reduced_values():
    assert hpm1_reduced(0.0, 0.0, 1.0) == 0.0
    for x in (-0.5, -2.0):
        assert hpm1_reduced(x, 0.0, 1.0) == pytest.approx(1.0 - math.exp(x), rel=1e-15)
    assert hpm1_reduced(1.0, 0.3, 1.0) == 0.0  # clamp region
    # x = -inf is spot 0, where the naive series pays e^{-k tau}
    assert hpm1_reduced(-math.inf, 0.2, 0.7) == pytest.approx(math.exp(-0.14), rel=1e-15)
    assert np.array_equal(hpm1_reduced(np.array([-math.inf, 0.0]), 0.0, 0.7), [1.0, 0.0])


@pytest.mark.parametrize("args", [
    (math.nan, 0.2, 0.7), (0.3, math.nan, 0.7), (0.3, 0.2, math.nan),
    (np.array([-0.5, math.nan]), 0.2, 0.7), (np.array([-0.5, 0.1]), 0.2, np.array([0.7, math.nan])),
], ids=["x", "tau", "k", "x-array", "k-array"])
def test_hpm1_reduced_refuses_nan(args):
    # reduced_exact_u and hpm_reduced_sum refuse such input too
    with pytest.raises(ValueError, match="NaN input"):
        hpm1_reduced(*args)


def test_hpm1_partial_sum_identity():
    # sum_{n=1..30} (-k tau)^n / n! telescopes to e^{-k tau} - 1
    for ktau in (0.1, 1.0, 2.0, 5.0):
        partial = math.fsum(
            (-ktau) ** n / math.factorial(n) for n in range(1, 31)
        )
        assert abs(partial - (math.exp(-ktau) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# smoothed series sum
# ---------------------------------------------------------------------------


def test_reduced_sum_payoff_branch():
    params = GeneralizedReducedParams(1.0, 1.0)
    assert hpm_reduced_sum(-1.0, 0.0, params) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-15
    )
    assert hpm_reduced_sum(0.7, 0.0, params) == 0.0


def test_reduced_sum_vanishes_far_out_of_the_money():
    params = GeneralizedReducedParams(0.95, 0.95)
    assert abs(hpm_reduced_sum(30.0, 0.26, params, 6)) < 1e-12


def test_reduced_sum_accuracy_vs_exact_regression():
    rc, params = fig1_params()
    y = np.linspace(-3.0, 3.0, 601)
    diff = np.abs(
        hpm_reduced_sum(y, rc.tau, params, 6) - reduced_exact_u(y, rc.tau, params)
    )
    assert diff.max() <= 1.05 * HPM_SUM_VS_EXACT_FIG1_BOUND


def test_reduced_sum_order_validation():
    params = GeneralizedReducedParams(1.0, 1.0)
    for bad in (0, 7, -1):
        with pytest.raises(ValueError, match="order"):
            hpm_reduced_sum(0.0, 0.1, params, bad)


# ---------------------------------------------------------------------------
# price pipelines
# ---------------------------------------------------------------------------


def test_hpm_prices_match_payoff_at_expiry():
    spec = VanillaOptionSpec(spot=31.0, valuation_time=0.5, **SECTION5)
    assert price_single_hpm2(spec) == pytest.approx(9.0, rel=1e-15)
    assert price_single_hpm1(spec) == pytest.approx(9.0, rel=1e-15)


def test_hpm1_clamp_region_and_deep_itm_limit():
    rc, _ = fig1_params()
    kink = 40.0 * math.exp(-rc.k * rc.tau)
    assert price_single_hpm1(fig1_spec(kink + 1.0)) == 0.0
    deep = price_single_hpm1(fig1_spec(1e-12))
    assert deep == pytest.approx(40.0 * math.exp(-rc.k * rc.tau), rel=1e-12)


def test_hpm1_one_sided_slopes_differ_by_one():
    rc, _ = fig1_params()
    kink = 40.0 * math.exp(-rc.k * rc.tau)
    h = 1e-6
    left = (price_single_hpm1(fig1_spec(kink)) - price_single_hpm1(fig1_spec(kink - h))) / h
    right = (price_single_hpm1(fig1_spec(kink + h)) - price_single_hpm1(fig1_spec(kink))) / h
    assert abs(right - left) == pytest.approx(1.0, abs=1e-6)


def test_hpm2_matches_exact_out_of_the_money():
    spec = fig1_spec(80.0)
    assert abs(price_single_hpm2(spec, 6) - bs_put(spec)) <= HPM2_VS_BS_AT_80


def test_hpm2_smooth_across_strike():
    # second central difference converges to the (finite) gamma as h shrinks
    estimates = []
    for h in (1.0, 0.5, 0.25, 0.125):
        d2 = (
            price_single_hpm2(fig1_spec(40.0 + h))
            - 2.0 * price_single_hpm2(fig1_spec(40.0))
            + price_single_hpm2(fig1_spec(40.0 - h))
        ) / (h * h)
        estimates.append(d2)
    assert all(abs(e) < 1.0 for e in estimates)
    assert abs(estimates[-1] - estimates[-2]) < abs(estimates[-1])


def test_hpm2_order_improves_accuracy_on_convergence_region():
    # for S >= 20 the max error falls strictly with every added term; closer
    # to S = 0 truncation at order 6 dominates (see term_taylor_oracle above)
    grid = np.linspace(20.0, 100.0, 81)
    max_errs = []
    for order in range(1, 7):
        errs = [
            abs(price_single_hpm2(fig1_spec(float(s)), order) - bs_put(fig1_spec(float(s))))
            for s in grid
        ]
        max_errs.append(max(errs))
    assert all(b < a for a, b in zip(max_errs, max_errs[1:]))


def test_hpm2_clamps_negative_series_values():
    # deep in the money the truncated series goes negative and clamps to 0
    assert price_single_hpm2(fig1_spec(1.0), 6) == 0.0


def test_basket_hpm_single_asset_degeneration():
    vanilla = VanillaOptionSpec(spot=45.0, **SECTION5)
    basket = BasketSpec(
        spots=np.array([45.0]), weights=np.array([1.0]), dividends=np.zeros(1),
        covariance=np.array([[SECTION5["vol"] ** 2]]),
        rate=SECTION5["rate"], strike=SECTION5["strike"], maturity=SECTION5["maturity"],
    )
    for order in (1, 3, 6):
        assert price_basket_hpm(basket, order) == pytest.approx(
            price_single_hpm2(vanilla, order), abs=1e-12
        )


def test_basket_hpm_payoff_at_expiry():
    spec = BasketSpec(
        spots=np.array([30.0, 50.0]), weights=np.array([0.5, 0.5]),
        dividends=np.zeros(2), covariance=np.diag([0.01, 0.09]),
        rate=0.05, strike=40.0, maturity=0.5, valuation_time=0.5,
    )
    geo = math.sqrt(30.0 * 50.0)
    expected = max(40.0 - geo, 0.0)
    assert price_basket_hpm(spec) == pytest.approx(expected, rel=1e-15)


def test_basket_hpm_variant_validation():
    spec = BasketSpec(
        spots=np.array([40.0, 40.0]), weights=np.array([0.5, 0.5]),
        dividends=np.zeros(2), covariance=np.diag([0.01, 0.09]),
        rate=0.05, strike=40.0, maturity=0.5,
    )
    # basket series prices have one route and take no variant keyword
    with pytest.raises(TypeError, match="variant"):
        price_basket_hpm(spec, variant="literal")
    assert price_basket_hpm(spec) >= 0.0


def test_quanto_hpm_payoff_and_homogeneity():
    base = dict(s1=35.0, sigma1=0.1, sigma2=0.3, rho=1.0, r1=0.03, r2=0.05,
                q=0.0, strike=40.0, maturity=0.5)
    at_expiry = QuantoSpec(s2=2.0, valuation_time=0.5, **base)
    assert price_quanto_hpm(at_expiry) == pytest.approx(2.0 * 5.0, rel=1e-15)
    one = price_quanto_hpm(QuantoSpec(s2=1.5, **base))
    two = price_quanto_hpm(QuantoSpec(s2=3.0, **base))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


# ---------------------------------------------------------------------------
# one-point sides: the term loop on Python floats, with an array lane's bits
# ---------------------------------------------------------------------------

# a one-point argument taken from element i of an array: a float (a basket's
# spot vector as a list), a 0-d array (a basket's as its row) and shape (1,)
ONE_POINT_FORMS = {
    "float": lambda a, i: a[i].tolist(),
    "0-d": lambda a, i: np.array(a[i]),
    "(1,)": lambda a, i: a[i:i + 1],
}
coordinate = st.one_of(st.sampled_from([-0.0, 0.0, -1e-300, 1e-300]), st.floats(-12.0, 12.0))
k_value = st.floats(-2.0, 3.0)


def assert_lane(one, many, i, form, within=None):
    """`one`, a call on element i in `form`, is element i of `many` bit for bit (or, where
    `within` is given, to that absolute bound), and follows the return rule: a float for a
    float or 0-d input, shape (1,) otherwise."""
    if form == "(1,)":
        assert isinstance(one, np.ndarray) and one.shape == (1,)
    else:
        assert isinstance(one, float)
    value, lane = float(np.ravel(one)[0]), float(np.ravel(many)[i])
    if within is None:
        assert value.hex() == lane.hex(), (i, form)
    else:
        assert abs(value - lane) <= within, (i, form, value.hex(), lane.hex())


def k_forms(values, array_k):
    """k as the array call and the one-point calls take it: an array k on one
    point stays an array (0-d or (1,)), since its powers are numpy's array
    power; a float k is one float everywhere."""
    if not array_k:
        return values[0], lambda i, form: values[0]
    k = np.array(values)
    return k, lambda i, form: np.array(k[i]) if form != "(1,)" else k[i:i + 1]


def draws(data, size, elements):
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))


@given(data=st.data(), size=st.integers(2, 6), order=st.integers(1, MAX_ORDER),
       array_k=st.booleans())
@settings(max_examples=80, deadline=None)
def test_one_point_reduced_sum_is_a_lane_of_the_array_call(data, size, order, array_k):
    # each side of z = 0 holds one point or several, -0.0 and tau = 0 included
    y = draws(data, size, coordinate)
    tau = draws(data, size, st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    k1, k1_at = k_forms(draws(data, size, k_value).tolist(), array_k)
    k2, k2_at = k_forms(draws(data, size, k_value).tolist(), array_k)
    many = hpm_reduced_sum(y, tau, GeneralizedReducedParams(k1, k2), order)
    for i in range(size):
        for form, pick in ONE_POINT_FORMS.items():
            params = GeneralizedReducedParams(k1_at(i, form), k2_at(i, form))
            assert_lane(hpm_reduced_sum(pick(y, i), pick(tau, i), params, order), many, i, form)


@given(data=st.data(), size=st.integers(2, 6), n=st.integers(0, MAX_ORDER - 1),
       array_k=st.booleans())
@settings(max_examples=80, deadline=None)
def test_one_point_terms_are_lanes_of_the_array_call(data, size, n, array_k):
    z = draws(data, size, coordinate)
    k1, k1_at = k_forms(draws(data, size, k_value).tolist(), array_k)
    k2, k2_at = k_forms(draws(data, size, k_value).tolist(), array_k)
    phi = phi_term(n, z, GeneralizedReducedParams(k1, k2))
    single = single_asset_term(n, z, k1)
    for i in range(size):
        for form, pick in ONE_POINT_FORMS.items():
            params = GeneralizedReducedParams(k1_at(i, form), k2_at(i, form))
            assert_lane(phi_term(n, pick(z, i), params), phi, i, form)
            assert_lane(single_asset_term(n, pick(z, i), k1_at(i, form)), single, i, form)


@pytest.mark.parametrize("array_k", [False, True], ids=["float-k", "array-k"])
def test_one_point_calls_are_lanes_on_random_points(array_k):
    # the drawn examples favour round values, which few routes round
    # differently; 64 random points on both sides of z = 0 do not, and numpy's
    # AVX-512 power rounds ~3 % of k^3 .. k^5 unlike the scalar one
    rng = np.random.default_rng(2029)
    y, tau = rng.uniform(-3.0, 3.0, 64), rng.uniform(1e-3, 2.0, 64)
    k1, k1_at = k_forms(rng.uniform(-2.0, 3.0, 64).tolist(), array_k)
    k2, k2_at = k_forms(rng.uniform(-2.0, 3.0, 64).tolist(), array_k)
    params = GeneralizedReducedParams(k1, k2)
    sums = [hpm_reduced_sum(y, tau, params, order) for order in range(1, MAX_ORDER + 1)]
    terms = [phi_term(n, y, params) for n in range(MAX_ORDER)]
    for i in range(y.size):
        for form, pick in ONE_POINT_FORMS.items():
            at = GeneralizedReducedParams(k1_at(i, form), k2_at(i, form))
            for n in range(MAX_ORDER):
                assert_lane(hpm_reduced_sum(pick(y, i), pick(tau, i), at, n + 1), sums[n], i, form)
                assert_lane(phi_term(n, pick(y, i), at), terms[n], i, form)


def _single_fields(data, size, array_k):
    strike = data.draw(st.floats(20.0, 120.0))
    spot = strike * np.exp(draws(data, size, st.floats(-0.5, 0.5)))
    rate = draws(data, size, st.floats(0.0, 0.1)) if array_k else data.draw(st.floats(0.0, 0.1))
    return dict(spot=spot, strike=strike, rate=rate, vol=data.draw(st.floats(0.1, 0.6)),
                maturity=data.draw(st.floats(0.05, 2.0)))


def _basket_fields(data, size, array_k):
    single = _single_fields(data, size, array_k)
    spot2 = single["strike"] * np.exp(draws(data, size, st.floats(-0.5, 0.5)))
    s1, s2, c = (data.draw(st.floats(lo, hi)) for lo, hi in ((0.1, 0.5), (0.1, 0.5), (-0.8, 0.9)))
    return dict(spots=np.stack([single["spot"], spot2], axis=-1), weights=[0.4, 0.6],
                dividends=[0.01, 0.0], covariance=[[s1 * s1, c * s1 * s2], [c * s1 * s2, s2 * s2]],
                rate=single["rate"], strike=single["strike"], maturity=single["maturity"])


def _quanto_fields(data, size, array_k):
    single = _single_fields(data, size, array_k)
    return dict(s1=single["spot"], s2=data.draw(st.floats(0.5, 3.0)), sigma1=0.2, sigma2=0.3,
                rho=0.4, r1=0.03, r2=single["rate"], q=0.01, strike=single["strike"],
                maturity=single["maturity"])


SERIES_PRICERS = {
    "price_single_hpm2": (price_single_hpm2, VanillaOptionSpec, _single_fields),
    "price_basket_hpm": (price_basket_hpm, BasketSpec, _basket_fields),
    "price_quanto_hpm": (price_quanto_hpm, QuantoSpec, _quanto_fields),
}


@pytest.mark.parametrize("name", sorted(SERIES_PRICERS))
@given(data=st.data(), size=st.integers(2, 5), order=st.integers(1, MAX_ORDER),
       array_k=st.booleans())
@settings(max_examples=40, deadline=None)
def test_one_point_series_price_is_a_lane_of_the_array_call(name, data, size, order, array_k):
    # the spots, and with array k the rates, vary by contract; a one-point
    # contract takes its fields in one form
    price, spec_cls, fields = SERIES_PRICERS[name]
    values = fields(data, size, array_k)
    many = price(spec_cls(**values), order)
    varying = [k for k, v in values.items() if isinstance(v, np.ndarray)]
    for i in range(size):
        for form, pick in ONE_POINT_FORMS.items():
            one = spec_cls(**{**values, **{k: pick(values[k], i) for k in varying}})
            assert_lane(price(one, order), many, i, form, _lane_bound(values, array_k, form))


def _lane_bound(values, array_k, form):
    """None (bit for bit) where the one-point contract's k has the array call's form;
    otherwise README's bound, 1e-14 of the price scale: a float or 0-d rate makes a scalar
    k, whose k^3 .. k^5 come from C pow, while the array call's lane uses numpy's array power."""
    if not array_k or form == "(1,)":
        return None
    return 1e-14 * values["strike"] * values.get("s2", 1.0)


def test_one_point_price_with_a_scalar_k_is_near_its_array_lane():
    # the contract where a scalar k's C pow and the array power round differently under
    # AVX-512 (the lane 0x1.5c2b5096d4b3dp-9, the scalar call ...40p-9)
    values = dict(spot=20.0 * np.exp(np.array([0.0, 0.125])), strike=20.0,
                  rate=np.array([0.0, 0.09327594332974976]), vol=0.1, maturity=0.5)
    many = price_single_hpm2(VanillaOptionSpec(**values), 4)
    for i in range(2):
        for form, pick in ONE_POINT_FORMS.items():
            one = VanillaOptionSpec(**{**values, "spot": pick(values["spot"], i),
                                       "rate": pick(values["rate"], i)})
            assert_lane(price_single_hpm2(one, 4), many, i, form,
                        _lane_bound(values, True, form))


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_one_point_spot_zero_is_a_lane_of_the_array_call(order):
    # at spot 0 before expiry an even order clamps to 0 and an odd one raises,
    # for one point as for an array holding it
    spots = np.array([0.0, 35.0, 45.0])
    spec = VanillaOptionSpec(spot=spots, **SECTION5)
    if order % 2:
        for one_spot in (0.0, np.array(0.0), spots[:1], spots):
            with pytest.raises(ValueError, match="unbounded at spot 0"):
                price_single_hpm2(VanillaOptionSpec(spot=one_spot, **SECTION5), order)
        return
    many = price_single_hpm2(spec, order)
    assert many[0] == 0.0 and (many[1:] > 0.0).all()
    for form, pick in ONE_POINT_FORMS.items():
        assert_lane(price_single_hpm2(VanillaOptionSpec(spot=pick(spots, 0), **SECTION5), order),
                    many, 0, form)


@pytest.mark.parametrize("z", [[-1.5, 2.5], [-0.0, 0.7], [-3.0, 0.0, 4.0]])
@pytest.mark.parametrize("array_k", [False, True], ids=["float-k", "array-k"])
def test_term_rows_with_one_point_sides(z, array_k):
    # every side holds one point, or one side several and the other one: the
    # rows equal one term call per order, and each column the rows of its point
    z = np.array(z)
    k1, k2 = (np.full(z.shape, k) if array_k else k for k in (0.8, -0.3))
    orders = range(MAX_ORDER)
    rows = hpm._term_rows(hpm._phi_polys, orders, z, k1, k2)
    assert rows.shape == (MAX_ORDER,) + z.shape
    for n in orders:
        assert np.array_equal(rows[n], phi_term(n, z, GeneralizedReducedParams(k1, k2)))
    for i in range(z.size):
        k_at = [k if not array_k else k[i:i + 1] for k in (k1, k2)]
        column = hpm._term_rows(hpm._phi_polys, orders, z[i:i + 1], *k_at)
        assert [v.hex() for v in column.ravel().tolist()] == [v.hex() for v in rows[:, i].tolist()]
