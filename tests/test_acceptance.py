"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing one pass/fail line per criterion.

Two sub-assertions are provably unattainable for the series the rest of the
suite pins down and are kept as strict xfails with the analysis in their
reasons: the order-monotonicity of the max error on the full [1, 100] grid
(truncation at order 6 dominates near S -> 0, see the mpmath table under
ROADMAP item 3, and clamped odd/even partial sums alternate there) and the
bare leading-monomial left-tail asymptote (the recursion forces k-dependent
subleading terms for n >= 1).
"""

import math
import time

import numpy as np
import pytest

from putpricer import hpm_series, validation
from putpricer.transforms import GeneralizedReducedParams, VanillaOptionSpec
from putpricer.exact_pricing import bs_put
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
    reason="max error over S in [1,100] cannot fall monotonically with order: "
    "truncation at order 6 dominates as S -> 0 (the series has no "
    "convergence boundary; see the mpmath table under ROADMAP item 3), and "
    "there clamped even orders pin the error at the exact price "
    "(38.01) while odd orders overshoot (orders 1..6 give max errors "
    "109.5, 38.0, 171.0, 38.0, 90.1, 38.0); monotonicity does hold on "
    "S in [20, 100], asserted in criterion 06",
)
def test_criterion_06_order_monotonicity_full_grid_as_stated():
    grid = np.linspace(1.0, 100.0, 201)
    errs = [validation._hpm2_max_error(order, grid) for order in range(1, 7)]
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
    # point measured
    nodes, weights = np.polynomial.legendre.leggauss(64)
    worst_n = 0.0
    for v in np.linspace(-8.0, 8.0, 401):
        quad = validation._normal_cdf_quadrature(float(v), nodes, weights)
        worst_n = max(worst_n, abs(normal_cdf(float(v)) - quad))
    worst_e = 0.0
    for x in np.linspace(-1.0, 1.0, 201):
        worst_e = max(worst_e, abs(erf(float(x)) - validation._erf_maclaurin(float(x))))
    measured = [r.measured for r in validation.check_special_functions()]
    assert measured == [worst_n, worst_e]


def test_criterion_10_partial_sum_identity():
    results, _ = _timed(validation.check_partial_sum_identity)
    _assert_all(results, "criterion-10")


def test_criterion_11_boundary_asymptotics():
    results, _ = _timed(validation.check_tail_asymptotics)
    _assert_all(results, "criterion-11")


@pytest.mark.xfail(
    strict=True,
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
