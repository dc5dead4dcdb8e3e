"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing one pass/fail line per criterion.

Two sub-assertions are provably unattainable for the series the rest of the
suite pins down and are kept as strict xfails with the analysis in their
reasons: the order-monotonicity of the max error on the full [1, 100] grid
(truncation at order 6 dominates near S -> 0, see the mpmath oracle
tests/test_hpm_series.py::term_taylor_oracle, and clamped odd/even partial
sums alternate there) and the bare leading-monomial left-tail asymptote (the
recursion forces k-dependent subleading terms for n >= 1).  Each xfail
expects an AssertionError, so an error unrelated to the math still fails.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from putpricer import hpm_series, validation
from putpricer.transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    reduce_contract,
    reduce_quanto,
)
from putpricer.exact_pricing import basket_put_exact, bs_put, quanto_put_exact, reduced_exact_u
from putpricer.special_functions import erf, normal_cdf
from putpricer.cli import main


def _assert_all(results, label, budget=None, elapsed=None):
    for r in results:
        line = f"{label} {r.name}: {r.status} (measured {r.measured:.3e}, bound {r.bound})"
        print(line)
        if r.severity == "check":
            assert r.passed, line
    if budget is not None:
        print(f"{label} runtime: {elapsed:.2f}s (budget {budget}s)")
        assert elapsed < budget


def _timed(check):
    t0 = time.perf_counter()
    results = check("default")
    return results, time.perf_counter() - t0


def test_criterion_01_specialization_identity():
    results, elapsed = _timed(validation.check_specialization_identity)
    _assert_all(results, "criterion-01", budget=1.0, elapsed=elapsed)


def test_criterion_02_recursion_residuals():
    results, elapsed = _timed(validation.check_recursion_residuals)
    _assert_all(results, "criterion-02", budget=10.0, elapsed=elapsed)


def test_criterion_03_cn_cross_validation():
    results, elapsed = _timed(validation.check_cn_cross_validation)
    _assert_all(results, "criterion-03", budget=30.0, elapsed=elapsed)


@pytest.mark.parametrize("n", [180, 200, 220])
def test_cn_bound_holds_at_neighbouring_n(n):
    # after one extrapolation the gap does not fall steadily with n, so the
    # default check's n = 200 is held to its 1e-6 bound beside its neighbours:
    # 9.3e-7, 4.9e-7 and 2.5e-7 measured, under either exp dispatch
    params, tau, exact = validation._cn_contracts()
    gaps = np.abs(validation._richardson_at_zero(params, tau, n) - exact)
    assert gaps.max() <= 1e-6, gaps


def test_cn_check_catches_a_closed_form_off_by_1e_5_relative(monkeypatch):
    # the mutation moves the Section-5 put's reduced value by ~7.8e-7: strict
    # reads 7.4e-7 against its bound of 1e-7
    exact_put = validation.bs_put
    monkeypatch.setattr(validation, "bs_put", lambda spec: exact_put(spec) * (1.0 + 1e-5))
    single = validation.check_cn_cross_validation("strict")[0]
    assert single.name == "cn-vs-exact-single"
    assert not single.passed, single


def test_cn_check_catches_a_basket_tau_off_by_1e_3_relative(monkeypatch):
    # the Crank-Nicolson side solves at the reduction's tau and the closed form
    # prices in market variables, so an error in the one reduction shows
    def mutated(spec):
        red = reduce_contract(spec)
        return replace(red, tau=red.tau * 1.001) if isinstance(spec, BasketSpec) else red

    monkeypatch.setattr(validation, "reduce_contract", mutated)
    for profile in ("default", "strict"):
        basket = validation.check_cn_cross_validation(profile)[-1]
        assert basket.name == "cn-vs-exact-basket"
        assert not basket.passed, basket


def test_criterion_04_quanto_internal_consistency():
    results, elapsed = _timed(validation.check_quanto_internal_consistency)
    _assert_all(results, "criterion-04", budget=1.0, elapsed=elapsed)


def test_criterion_05_degenerations():
    results, _ = _timed(validation.check_degenerations)
    _assert_all(results, "criterion-05")


def test_criterion_06_hpm2_accuracy_frozen_and_region_monotonicity():
    results, elapsed = _timed(validation.check_hpm2_accuracy)
    _assert_all(results, "criterion-06", budget=1.0, elapsed=elapsed)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="max error over S in [1,100] cannot fall monotonically with order: "
    "truncation at order 6 dominates as S -> 0 (the series has no "
    "convergence boundary; see the mpmath oracle "
    "tests/test_hpm_series.py::term_taylor_oracle), and "
    "there clamped even orders pin the error at the exact price "
    "(38.01) while odd orders overshoot (orders 1..6 give max errors "
    "109.5, 38.0, 171.0, 38.0, 90.1, 38.0); monotonicity does hold on "
    "S in [20, 100], asserted in criterion 06",
)
def test_criterion_06_order_monotonicity_full_grid_as_stated():
    (errs,) = validation._hpm2_max_errors(np.linspace(1.0, 100.0, 201))
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_criterion_07_smoothness_contrast():
    results, _ = _timed(validation.check_smoothness_contrast)
    _assert_all(results, "criterion-07")


def test_criterion_08_error_surfaces_and_s2_monotonicity():
    results, _ = _timed(validation.check_error_surfaces)
    _assert_all(results, "criterion-08")


def test_criterion_09_special_functions():
    results, _ = _timed(validation.check_special_functions)
    _assert_all(results, "criterion-09")


def test_special_functions_check_matches_scalar_loop():
    # the array form of the check must measure exactly what one call per
    # point measured, with the quadrature summed panel by panel
    nodes, weights = np.polynomial.legendre.leggauss(64)
    worst_n = 0.0
    for v in np.linspace(-8.0, 8.0, 401):
        edges = np.linspace(0.0, v, 5)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            total += 0.5 * (hi - lo) * float(np.sum(weights * np.exp(-0.5 * t * t)))
        quad = 0.5 + total / math.sqrt(2.0 * math.pi)
        worst_n = max(worst_n, abs(normal_cdf(float(v)) - quad))
    worst_e = 0.0
    for x in np.linspace(-1.0, 1.0, 201):
        worst_e = max(worst_e, abs(erf(float(x)) - validation._erf_maclaurin(float(x))))
    measured = [r.measured for r in validation.check_special_functions()]
    assert measured == [worst_n, worst_e]


def test_criterion_10_partial_sum_identity():
    results, _ = _timed(validation.check_partial_sum_identity)
    _assert_all(results, "criterion-10")


def test_series_short_time_check():
    results, elapsed = _timed(validation.check_series_short_time)
    _assert_all(results, "series-short-time", budget=1.0, elapsed=elapsed)


def _reversed_on_side(coef, at, shape):
    # an array coefficient read from the side's points in reverse order
    if hpm_series._is_float(coef):
        return coef
    return np.broadcast_to(coef, shape).reshape(-1)[at[::-1]]


@pytest.mark.parametrize("name, value", [
    ("_INV_SQRT_PI", 1.0 / (math.sqrt(math.pi) + 1e-9)),
    ("_on_side", _reversed_on_side),
], ids=["gauss-constant", "side-indexing"])
def test_series_short_time_check_sees_the_evaluation_path(monkeypatch, name, value):
    # errors that leave every polynomial coefficient intact, which the
    # term-family checks therefore cannot see
    monkeypatch.setattr(hpm_series, name, value)
    for profile in ("default", "strict"):
        [result] = validation.check_series_short_time(profile)
        assert not result.passed, result


def test_criterion_11_boundary_asymptotics():
    results, _ = _timed(validation.check_tail_asymptotics)
    _assert_all(results, "criterion-11")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the left-tail limit of f_n is the full deep-in-the-money "
    "polynomial, whose leading term is -z^(n+1)/(n+1)!; for n >= 1 the "
    "recursion forces k-dependent subleading terms (e.g. f_1 -> -z^2/2 - k1, "
    "f_3 gains +k^2/2), so the bare monomial misses by O(k) at any generic "
    "k; the full-asymptote form is asserted in criterion 11",
)
def test_criterion_11_leading_monomial_left_tail_as_stated():
    rng = np.random.default_rng(55)
    for k1, k2 in [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(2)]:
        params = GeneralizedReducedParams(float(k1), float(k2))
        for n in range(hpm_series.MAX_ORDER):
            monomial = -((-12.0) ** (n + 1)) / math.factorial(n + 1)
            assert abs(hpm_series.phi_term(n, -12.0, params) - monomial) <= 1e-8


def test_frozen_section5_price_agrees_with_cn_validated_value():
    spec = VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.324336,
                             maturity=0.5)
    assert bs_put(spec) == pytest.approx(validation.BS_PUT_SECTION5_ATM, abs=1e-13)


def test_full_validate_command_exits_zero(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


# ---------------------------------------------------------------------------
# the batched random-contract checks against their one-contract loops
# ---------------------------------------------------------------------------
# The references below are the loops these checks ran before they became
# array calls: one scalar spec, one rng.uniform call per field, and for the
# term families one k or (k1, k2) pair at a time on 1-D coefficient rows.
# The batched checks must return equal results.


def _loop_recursion_residual(k1, k2):
    # one (k1, k2) pair, each order's two identities on 1-D coefficient rows
    poly, size = np.polynomial.polynomial, validation._N_COEFS

    def d(c):   # d/dz, kept at `size` coefficients
        return np.append(poly.polyder(c), 0.0)

    def times_z(c):   # z c, cut to `size` coefficients as the batched map cuts it
        return np.concatenate([[0.0], c[:-1]])

    p, q = validation._coefficients(hpm_series._phi_polys, k1, k2)
    zero = np.zeros(size)
    ps, qs = [zero, zero, *p], [zero, zero, *q]   # f_{-2} = f_{-1} = 0
    a = [d(pn) - 0.5 * times_z(pn) + qn for pn, qn in zip(ps, qs)]
    worst = 0.0
    for n in range(hpm_series.MAX_ORDER):
        i = n + 2
        gauss = (2.0 * d(a[i]) + 2.0 * d(qs[i]) - (n + 1.0) * ps[i]
                 + 2.0 * (k1 - 1.0) * a[i - 1] - 2.0 * k2 * ps[i - 2])
        erf_part = (2.0 * d(d(qs[i])) + times_z(d(qs[i])) - (n + 1.0) * qs[i]
                    + 2.0 * (k1 - 1.0) * d(qs[i - 1]) - 2.0 * k2 * qs[i - 2])
        scale = max(float(np.abs(c).max()) for c in ps[i - 2:i + 1] + qs[i - 2:i + 1])
        worst = max(worst, float(np.abs(gauss).max()) / scale,
                    float(np.abs(erf_part).max()) / scale)
    return worst


def _loop_specialization_identity(profile):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        k = float(rng.uniform(0.1, 3.0))
        phi = validation._coefficients(hpm_series._phi_polys, k, k)
        single = validation._coefficients(hpm_series._single_polys, k)
        for n in range(hpm_series.MAX_ORDER):
            diff = max(float(np.abs(a[n] - b[n]).max()) for a, b in zip(phi, single))
            scale = max(float(np.abs(c[n]).max()) for c in (*phi, *single))
            worst = max(worst, diff / scale)
    bound = validation._tol(1e-13, profile, floor=2e-14)
    return [validation.CheckResult("specialization-identity", worst, f"<= {bound:.1e}",
                                   worst <= bound)]


def _loop_recursion_residuals(profile):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        k1, k2 = rng.uniform(-2.0, 2.0, 2)
        worst = max(worst, _loop_recursion_residual(float(k1), float(k2)))
    bound = validation._tol(1e-13, profile, floor=2e-14)
    return [validation.CheckResult("recursion-residuals", worst, f"<= {bound:.1e}",
                                   worst <= bound)]


def _loop_quanto_internal_consistency(profile):
    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    while checked < 1000:
        spec = QuantoSpec(
            s1=float(rng.uniform(25, 70)), s2=float(rng.uniform(0.5, 3.0)),
            sigma1=float(rng.uniform(0.05, 0.5)), sigma2=float(rng.uniform(0.0, 0.5)),
            rho=float(rng.uniform(-1.0, 1.0)), r1=float(rng.uniform(0.0, 0.1)),
            r2=float(rng.uniform(0.0, 0.1)), q=float(rng.uniform(0.0, 0.05)),
            strike=float(rng.uniform(25, 70)), maturity=float(rng.uniform(0.1, 2.0)),
        )
        if reduce_quanto(spec).sigma_hat_sq <= 1e-4:
            continue
        checked += 1
        price = quanto_put_exact(spec)
        red = reduce_contract(spec)
        routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
        if price > 1e-12:
            worst = max(worst, abs(price - routed) / price)
    bound = validation._tol(1e-10, profile)
    return [validation.CheckResult("quanto-internal-consistency", worst, f"<= {bound:.1e}",
                                   worst <= bound)]


def _loop_degenerations(profile):
    bound = validation._tol(1e-12, profile)
    rng = np.random.default_rng(41)
    worst_basket = 0.0
    worst_reduced = 0.0
    for _ in range(1000):
        strike = float(rng.uniform(20, 100))
        spec = VanillaOptionSpec(
            spot=strike * float(rng.uniform(0.6, 1.6)), strike=strike,
            rate=float(rng.uniform(0.0, 0.12)), vol=float(rng.uniform(0.1, 0.6)),
            maturity=float(rng.uniform(0.1, 2.0)),
        )
        basket = BasketSpec(
            spots=np.array([spec.spot]), weights=np.array([1.0]),
            dividends=np.zeros(1), covariance=np.array([[spec.vol**2]]),
            rate=spec.rate, strike=spec.strike, maturity=spec.maturity,
        )
        reference = bs_put(spec)
        worst_basket = max(worst_basket, abs(basket_put_exact(basket) - reference))
        red = reduce_contract(spec)
        routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
        worst_reduced = max(worst_reduced, abs(routed - reference))
    return [
        validation.CheckResult("degeneration-basket-n1", worst_basket, f"<= {bound:.1e}",
                               worst_basket <= bound),
        validation.CheckResult("degeneration-reduced-exact", worst_reduced, f"<= {bound:.1e}",
                               worst_reduced <= bound),
    ]


def _section5_at(spot):
    return VanillaOptionSpec(spot=spot, **validation.SECTION5)


def _loop_hpm2_accuracy(profile):
    def max_error(order, grid):
        return max(abs(hpm_series.price_single_hpm2(_section5_at(s), order)
                       - bs_put(_section5_at(s))) for s in grid.tolist())

    grid = np.linspace(1.0, 100.0, 201)
    measured = max_error(6, grid)
    bound = 1.05 * validation.EPS1_HPM2_MAX_ERROR
    results = [validation.CheckResult("hpm2-error-frozen", measured, f"<= {bound:.6f}",
                                      measured <= bound)]
    errs_region = [max_error(order, np.linspace(20.0, 100.0, 81)) for order in range(1, 7)]
    monotone_region = all(b < a for a, b in zip(errs_region, errs_region[1:]))
    results.append(validation.CheckResult(
        "hpm2-order-monotone-region", errs_region[-1],
        "max err strictly falls, orders 1..6 on S in [20,100]", monotone_region))
    errs_full = [max_error(order, grid) for order in range(1, 7)]
    monotone_full = all(b <= a for a, b in zip(errs_full, errs_full[1:]))
    results.append(validation.CheckResult(
        "hpm2-order-monotone-full-grid", max(errs_full),
        "nonincreasing on S in [1,100] (known impossible)", monotone_full,
        severity="diagnostic"))
    return results


def _loop_smoothness_contrast(profile):
    red = reduce_contract(_section5_at(40.0))
    kink = red.scale * math.exp(-red.params.k2 * red.tau)
    h = 1e-6

    def hpm1(s):
        return hpm_series.price_single_hpm1(_section5_at(s))

    jump = abs((hpm1(kink + h) - hpm1(kink)) / h - (hpm1(kink) - hpm1(kink - h)) / h)
    results = [validation.CheckResult("hpm1-kink-jump", jump, ">= 0.1", jump >= 0.1)]

    def hpm2(s):
        return hpm_series.price_single_hpm2(_section5_at(s))

    second = [(hpm2(40.0 + step) - 2.0 * hpm2(40.0) + hpm2(40.0 - step)) / (step * step)
              for step in (1.0, 0.5, 0.25, 0.125)]
    bounded = all(abs(v) < 1.0 for v in second)
    convergent = abs(second[-1] - second[-2]) < 0.25 * abs(second[-1])
    results.append(validation.CheckResult("hpm2-second-difference", second[-1],
                                          "bounded and grid-convergent across S = E",
                                          bounded and convergent))
    return results


def _loop_tail_asymptotics(profile):
    rng = np.random.default_rng(55)
    pairs = [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(2)]
    singles = list(rng.uniform(0.1, 3.0, 2))
    terms = [(lambda n, z, p=GeneralizedReducedParams(float(k1), float(k2)):
              hpm_series.phi_term(n, z, p), k1, k2) for k1, k2 in pairs]
    terms += [(lambda n, z, k=float(k): hpm_series.single_asset_term(n, z, k), k, k)
              for k in singles]
    worst_left = worst_right = worst_monomial = 0.0
    for term, k1, k2 in terms:
        for n in range(hpm_series.MAX_ORDER):
            f_left = term(n, -12.0)
            worst_left = max(worst_left,
                             abs(f_left - validation._deep_itm_asymptote(n, -12.0, k1, k2)))
            worst_right = max(worst_right, abs(term(n, 12.0)))
            monomial = -((-12.0) ** (n + 1)) / math.factorial(n + 1)
            worst_monomial = max(worst_monomial, abs(f_left - monomial))
    bound_left = validation._tol(1e-8, profile)
    bound_right = validation._tol(1e-12, profile)
    return [
        validation.CheckResult("tail-asymptote-left", worst_left, f"<= {bound_left:.1e}",
                               worst_left <= bound_left),
        validation.CheckResult("tail-decay-right", worst_right, f"<= {bound_right:.1e}",
                               worst_right <= bound_right),
        validation.CheckResult("tail-leading-monomial-gap", worst_monomial,
                               "recorded (nonzero by construction for n >= 1)",
                               worst_monomial <= bound_left, severity="diagnostic"),
    ]


@pytest.mark.parametrize("check, loop", [
    (validation.check_specialization_identity, _loop_specialization_identity),
    (validation.check_recursion_residuals, _loop_recursion_residuals),
    (validation.check_quanto_internal_consistency, _loop_quanto_internal_consistency),
    (validation.check_degenerations, _loop_degenerations),
    (validation.check_hpm2_accuracy, _loop_hpm2_accuracy),
    (validation.check_smoothness_contrast, _loop_smoothness_contrast),
    (validation.check_tail_asymptotics, _loop_tail_asymptotics),
], ids=["specialization", "recursion", "quanto", "degenerations", "hpm2", "smoothness", "tail"])
def test_batched_check_equals_its_loop(check, loop):
    assert check("default") == loop("default")


def test_block_draws_equal_per_call_draws():
    # degenerations (seed 41): five fields per contract, one row each
    bounds = [(20, 100), (0.6, 1.6), (0.0, 0.12), (0.1, 0.6), (0.1, 2.0)]
    rng = np.random.default_rng(41)
    per_call = np.array([[rng.uniform(lo, hi) for lo, hi in bounds] for _ in range(1000)])
    u = np.random.default_rng(41).random((1000, len(bounds)))
    block = np.column_stack([validation._uniform(u[:, j], lo, hi)
                             for j, (lo, hi) in enumerate(bounds)])
    assert per_call.tobytes() == block.tobytes()

    # recursion residuals (seed 7): one (k1, k2) pair per row
    rng = np.random.default_rng(7)
    per_call = [rng.uniform(-2.0, 2.0, 2) for _ in range(10)]
    block = validation._uniform(np.random.default_rng(7).random((10, 2)), -2.0, 2.0)
    assert np.array(per_call).tobytes() == block.tobytes()


# ---------------------------------------------------------------------------
# the coefficient route of the term-family checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family, coefs", [
    ("_phi_polys", (np.array([-1.7, 0.4, 2.9]), np.array([0.8, -2.2, 1.1]))),
    ("_single_polys", (np.array([0.1, 1.3, 3.0]),)),
], ids=["phi", "single"])
def test_coefficients_reproduce_the_factors_at_real_points(family, coefs):
    # the transform over the roots of unity recovers each factor whole: no
    # degree aliases, and the coefficients evaluate back to the factors
    polys, poly = getattr(hpm_series, family), np.polynomial.polynomial
    z = np.linspace(-4.0, 4.0, 9)[:, None]
    powers = poly.polyval(np.abs(z), np.ones(validation._N_COEFS))   # sum_j |z|^j
    p, q = validation._coefficients(polys, *coefs)
    for n in range(hpm_series.MAX_ORDER):
        for direct, c in zip(polys(n, z, *coefs), (p[n], q[n])):
            gap = np.abs(poly.polyval(z, c.T, tensor=False) - direct)
            assert (gap <= 1e-14 * np.abs(c).max(axis=-1) * powers).all(), (family, n)


def test_recursion_identities_hold_on_wide_pairs():
    # the hand-typed table solves the recursion for any (k1, k2), not only the
    # check's ten pairs in [-2, 2]^2
    k1, k2 = np.random.default_rng(22).uniform(-10.0, 10.0, (2, 1000))
    p, q = validation._coefficients(hpm_series._phi_polys, k1, k2)
    assert validation._recursion_residual(p, q, k1, k2) <= 1e-13


# ---------------------------------------------------------------------------
# coefficient errors the term-family checks must catch
# ---------------------------------------------------------------------------


def _shift_p(monkeypatch, name, order, shift):
    """Add shift(z, *k) to P_order of the family `hpm_series.<name>`."""
    original = getattr(hpm_series, name)

    def mutated(n, z, *coefs):
        p, q = original(n, z, *coefs)
        return (p + shift(z, *coefs), q) if n == order else (p, q)

    monkeypatch.setattr(hpm_series, name, mutated)


def test_recursion_check_catches_a_1e_9_constant_error(monkeypatch):
    # 1e-9 on P_2's constant reads 4e-9 of the largest coefficient involved
    _shift_p(monkeypatch, "_phi_polys", 2, lambda z, k1, k2: 1e-9)
    [result] = validation.check_recursion_residuals("default")
    assert not result.passed and result.measured > 1e-9


def test_recursion_check_catches_the_p4_k2_coefficient(monkeypatch):
    # -150 k2 in place of the -160 k2 z^2 that P_4's comment explains
    _shift_p(monkeypatch, "_phi_polys", 4, lambda z, k1, k2: 10.0 * k2 * z * z / 960.0)
    [result] = validation.check_recursion_residuals("default")
    assert not result.passed and result.measured > 0.1


def test_specialization_check_catches_a_single_asset_coefficient(monkeypatch):
    # -3.000000001 k in place of -3 k in the z coefficient of the single-asset P_3
    _shift_p(monkeypatch, "_single_polys", 3, lambda z, k: -2e-9 * z * k / 48.0)
    [result] = validation.check_specialization_identity("default")
    assert not result.passed
