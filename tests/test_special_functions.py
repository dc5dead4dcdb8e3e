import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from putpricer import special_functions as sf
from putpricer.special_functions import erf, erfc, erfcx, normal_cdf

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def erf_maclaurin(x, terms=30):
    """Alternating Maclaurin series (2/sqrt(pi)) sum (-1)^n x^(2n+1) / (n! (2n+1))."""
    parts = [
        (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
        for n in range(terms)
    ]
    return 2.0 / math.sqrt(math.pi) * math.fsum(parts)


def erfc_continued_fraction(x, terms=120):
    """Laplace continued fraction for erfc, evaluated in 60-digit arithmetic."""
    with mp.workdps(60):
        xm = mp.mpf(x)
        tail = mp.mpf(0)
        for n in range(terms, 0, -1):
            tail = (mp.mpf(n) / 2) / (xm + tail)
        return float(mp.exp(-xm * xm) / mp.sqrt(mp.pi) / (xm + tail))


def erfcx_asymptotic(x, terms=6):
    """Truncated large-x expansion (1/(x sqrt(pi))) sum (-1)^n (2n-1)!! / (2x^2)^n."""
    total, term = 1.0, 1.0
    for n in range(1, terms):
        term *= -(2 * n - 1) / (2.0 * x * x)
        total += term
    return total / (x * math.sqrt(math.pi))


def normal_cdf_quadrature(v):
    """N(v) by adaptive quadrature of the density from 0, plus the half mass."""
    from scipy.integrate import quad

    body, _ = quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
        0.0,
        v,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    return 0.5 + body


# frozen expected values, computed once with the oracles above
ERF_HALF = 0.5204998778130465          # erf_maclaurin(0.5)
ERFC_FIVE = 1.537459794428035e-12      # erfc_continued_fraction(5)
ERFCX_ONE = 0.4275835761558072         # e * (1 - erf_maclaurin(1, terms=40))
NCDF_ONE = 0.841344746068543           # normal_cdf_quadrature(1.0)


# ---------------------------------------------------------------------------
# erf
# ---------------------------------------------------------------------------


def test_erf_zero():
    assert erf(0.0) == 0.0


def test_erf_saturates():
    assert erf(10.0) == pytest.approx(1.0, abs=1e-15)
    assert erf(np.inf) == 1.0
    assert erf(-np.inf) == -1.0


def test_erf_half_against_series_oracle():
    assert erf_maclaurin(0.5) == pytest.approx(ERF_HALF, abs=1e-16)
    assert erf(0.5) == pytest.approx(ERF_HALF, rel=1e-14)


def test_erf_matches_series_on_unit_interval():
    for x in np.linspace(-1.0, 1.0, 201):
        assert erf(float(x)) == pytest.approx(erf_maclaurin(float(x)), abs=1e-14)


def test_erf_oddness_exact_in_sign():
    rng = np.random.default_rng(42)
    x = rng.uniform(-6.0, 6.0, 10_000)
    left = erf(-x)
    right = -erf(x)
    # the implementation folds through |x|, so antisymmetry is bitwise
    assert np.array_equal(left, right)


# ---------------------------------------------------------------------------
# erfc
# ---------------------------------------------------------------------------


def test_erfc_zero():
    assert erfc(0.0) == 1.0


def test_erfc_reflection():
    x = 3.7
    assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-15)


def test_erfc_five_against_cf_oracle():
    assert erfc_continued_fraction(5.0) == pytest.approx(ERFC_FIVE, rel=1e-15)
    assert erfc(5.0) == pytest.approx(ERFC_FIVE, rel=1e-14)


def test_erfc_relative_accuracy_wide_range():
    # relative 1e-14 wherever the value is representable in float64;
    # past x ~ 26.6 the true value drops below the smallest subnormal
    with mp.workdps(60):
        for x in np.linspace(-8.0, 26.4, 300):
            ref = float(mp.erfc(mp.mpf(float(x))))
            assert erfc(float(x)) == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert 0.0 <= erfc(27.0) < 1e-318  # subnormal territory
    assert erfc(28.0) == 0.0
    assert erfc(30.0) == 0.0


def test_erfc_identity_with_erf():
    for x in np.linspace(-6.0, 6.0, 500):
        assert erfc(float(x)) == pytest.approx(1.0 - erf(float(x)), abs=1e-14)


def test_erfc_saturations():
    assert erfc(np.inf) == 0.0
    assert erfc(-np.inf) == 2.0


@pytest.mark.filterwarnings("error")
def test_huge_finite_arguments_saturate_without_warnings():
    # x * x overflows past ~1.3e154; the Gaussian factor is 0 long before
    assert erfc(1e200) == 0.0
    assert normal_cdf(-1e200) == 0.0
    assert np.array_equal(erfc(np.array([27.0, 1e200, np.finfo(float).max])),
                          [erfc(27.0), 0.0, 0.0])


# ---------------------------------------------------------------------------
# erfcx
# ---------------------------------------------------------------------------


def test_erfcx_zero():
    assert erfcx(0.0) == 1.0


def test_erfcx_one_compose_oracles():
    assert math.e * (1.0 - erf_maclaurin(1.0, terms=40)) == pytest.approx(
        ERFCX_ONE, abs=1e-15
    )
    assert erfcx(1.0) == pytest.approx(ERFCX_ONE, rel=1e-13)


def test_erfcx_large_x_asymptotic_series():
    # the bare leading term 1/(x sqrt(pi)) is off by ~1/(2x^2) (5.5e-4 at x=30);
    # the truncated expansion is the meaningful comparison at tight tolerance
    assert erfcx(30.0) == pytest.approx(erfcx_asymptotic(30.0), rel=1e-10)
    assert erfcx(30.0) == pytest.approx(1.0 / (30.0 * math.sqrt(math.pi)), rel=1e-3)
    for x in (26.5, 40.0, 100.0, 1e4):
        assert erfcx(x) == pytest.approx(erfcx_asymptotic(x, terms=8), rel=1e-13)


def test_erfcx_scaling_identity():
    for x in np.linspace(0.0, 25.0, 400):
        lhs = erfcx(float(x)) * math.exp(-float(x) * float(x))
        assert lhs == pytest.approx(erfc(float(x)), rel=1e-13)


def test_erfcx_negative_branch_and_saturation():
    with mp.workdps(60):
        for x in (-0.3, -2.0, -10.0, -25.0):
            ref = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x)))
            assert erfcx(x) == pytest.approx(ref, rel=1e-13)
    assert erfcx(-27.0) == np.inf
    assert erfcx(np.inf) == 0.0
    assert erfcx(-np.inf) == np.inf


# ---------------------------------------------------------------------------
# normal_cdf
# ---------------------------------------------------------------------------


def test_normal_cdf_zero():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_reflection():
    v = 1.234
    assert normal_cdf(v) + normal_cdf(-v) == pytest.approx(1.0, abs=1e-15)


def test_normal_cdf_one_against_quadrature():
    assert normal_cdf_quadrature(1.0) == pytest.approx(NCDF_ONE, abs=1e-14)
    assert normal_cdf(1.0) == pytest.approx(NCDF_ONE, abs=1e-15)


def test_normal_cdf_in_unit_interval_and_monotone():
    rng = np.random.default_rng(7)
    v = np.sort(rng.uniform(-12.0, 12.0, 10_000))
    n = normal_cdf(v)
    assert np.all(n >= 0.0) and np.all(n <= 1.0)
    assert np.all(np.diff(n) >= 0.0)


def test_normal_cdf_saturations():
    assert normal_cdf(np.inf) == 1.0
    assert normal_cdf(-np.inf) == 0.0


# ---------------------------------------------------------------------------
# domain errors and shared behavior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fn", [erf, erfc, erfcx, normal_cdf])
def test_nan_rejected(fn):
    with pytest.raises(ValueError):
        fn(float("nan"))
    with pytest.raises(ValueError):
        fn(np.array([0.0, np.nan]))


# (input, result shape): shape () comes back as a float, any other as an ndarray
SCALAR_AND_ARRAY_INPUTS = [
    (0.25, ()), (np.float64(0.5), ()), (np.array(0.5), ()),
    (np.array([0.1, 0.2]), (2,)), ([0.1, 0.2], (2,)), ((0.3,), (1,)), ([0.4], (1,)),
]


@pytest.mark.parametrize("fn", [erf, erfc, erfcx, normal_cdf])
def test_scalar_in_scalar_out(fn):
    for x, shape in SCALAR_AND_ARRAY_INPUTS:
        out = fn(x)
        if shape == ():
            assert type(out) is float
        else:
            assert type(out) is np.ndarray and out.shape == shape
            assert np.array_equal(out, fn(np.asarray(x)))


@given(st.floats(min_value=-6.0, max_value=6.0))
def test_erf_bounded_and_odd(x):
    y = erf(x)
    assert -1.0 <= y <= 1.0
    assert erf(-x) == -y


# ---------------------------------------------------------------------------
# the one-range-split kernels == the masked kernels they replaced, bit for bit
# ---------------------------------------------------------------------------


def _masked_exp_neg_sq(x):
    x = np.minimum(x, 28.0)
    ysq = np.trunc(16.0 * x) / 16.0
    delta = (x - ysq) * (x + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta)


def _masked_rational(x, num_coefs, num_lead, den_coefs, last_num, last_den):
    num = num_lead * x
    den = x
    for a, b in zip(num_coefs, den_coefs):
        num = (num + a) * x
        den = (den + b) * x
    return num + last_num, den + last_den


def _masked_erf_small(x):
    num, den = _masked_rational(x * x, sf._A[:3], sf._A[4], sf._B[:3], sf._A[3], sf._B[3])
    return x * num / den


def _masked_erfcx_nonneg(x):
    # the four ranges of x >= 0, each found by its own boolean mask
    out = np.empty_like(x)
    small = x <= 0.46875
    mid = (x > 0.46875) & (x <= 4.0)
    far = (x > 4.0) & (x <= 6.0)
    cf = x > 6.0
    if small.any():
        xs = x[small]
        out[small] = np.exp(xs * xs) * (1.0 - _masked_erf_small(xs))
    if mid.any():
        num, den = _masked_rational(x[mid], sf._C[:7], sf._C[8], sf._D[:7], sf._C[7], sf._D[7])
        out[mid] = num / den
    if far.any():
        xf = x[far]
        y = 1.0 / (xf * xf)
        num, den = _masked_rational(y, sf._P[:4], sf._P[5], sf._Q[:4], sf._P[4], sf._Q[4])
        out[far] = (1.0 / math.sqrt(math.pi) - y * num / den) / xf
    if cf.any():
        xc = x[cf]
        tail = np.zeros_like(xc)
        for n in range(40, 0, -1):
            tail = (0.5 * n) / (xc + tail)
        out[cf] = (1.0 / math.sqrt(math.pi)) / (xc + tail)
    return out


def _masked_erfc_nonneg(x):
    out = np.empty_like(x)
    small = x <= 0.46875
    if small.any():
        out[small] = 1.0 - _masked_erf_small(x[small])
    rest = ~small
    if rest.any():
        xr = x[rest]
        out[rest] = _masked_exp_neg_sq(xr) * _masked_erfcx_nonneg(xr)
    return out


def _masked_finite(x, fill_inf, body):
    # infinities first, then the finite elements through `body`
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    inf = np.isinf(arr)
    out[inf] = fill_inf(arr[inf])
    out[~inf] = body(arr[~inf])
    return out if out.ndim else float(out)


def _masked_erf(x):
    def body(a):
        sub = np.empty_like(a)
        small = np.abs(a) <= 0.46875
        sub[small] = _masked_erf_small(a[small])
        big = ~small
        sub[big] = np.sign(a[big]) * (1.0 - _masked_erfc_nonneg(np.abs(a[big])))
        return sub
    return _masked_finite(x, np.sign, body)


def _masked_by_sign(negative, positive):
    def body(a):
        sub = np.empty_like(a)
        neg = a < 0
        sub[neg] = negative(a[neg])
        sub[~neg] = positive(a[~neg])
        return sub
    return body


def _masked_erfc(x):
    return _masked_finite(x, lambda v: np.where(v > 0, 0.0, 2.0), _masked_by_sign(
        lambda a: 2.0 - _masked_erfc_nonneg(-a), _masked_erfc_nonneg))


def _masked_erfcx(x):
    def negative(a):
        with np.errstate(over="ignore"):
            return 2.0 * np.exp(a * a) - _masked_erfcx_nonneg(-a)
    return _masked_finite(x, lambda v: np.where(v > 0, 0.0, np.inf), _masked_by_sign(
        negative, _masked_erfcx_nonneg))


def _masked_normal_cdf(v):
    return 0.5 * _masked_erfc(-np.asarray(v, dtype=float) / math.sqrt(2.0))


MASKED = {erf: _masked_erf, erfc: _masked_erfc, erfcx: _masked_erfcx,
          normal_cdf: _masked_normal_cdf}


def _kernel_arguments():
    edges = []
    for edge in (0.46875, 4.0, 6.0):
        edges += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    special = [0.0, np.inf, 5e-324, 1e-310, np.finfo(float).tiny, 1e300, 26.6, 27.0]
    magnitudes = np.array(edges + special)
    draws = np.random.default_rng(12).uniform(-30.0, 30.0, 20_000)
    return np.concatenate([magnitudes, -magnitudes, draws])


KERNEL_ARGUMENTS = _kernel_arguments()


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", list(MASKED), ids=lambda fn: fn.__name__)
def test_range_split_matches_masked_kernels(fn):
    # range edges with their neighbours, +-0, +-inf, subnormals, +-1e300,
    # erfcx's overflow edge +-26.6 / +-27, and uniform draws; then each of
    # the fixed arguments as a Python float
    assert_same_bits(fn(KERNEL_ARGUMENTS), MASKED[fn](KERNEL_ARGUMENTS))
    for x in KERNEL_ARGUMENTS[:-20_000]:
        assert_same_bits(fn(float(x)), MASKED[fn](float(x)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", list(MASKED), ids=lambda fn: fn.__name__)
def test_range_split_matches_masked_kernels_on_every_shape(fn):
    grid = KERNEL_ARGUMENTS[:60].reshape(6, 10)
    shapes = {
        "0-d": np.array(-4.0), "one": np.array([6.0]), "empty": np.array([]),
        "empty-2d": np.empty((0, 3)), "2-d": grid, "strided": KERNEL_ARGUMENTS[:41:2],
        "transposed": grid.T, "broadcast": np.broadcast_to(grid[1], (4, 10)),
        "column-broadcast": np.broadcast_to(grid[:, :1], (6, 5)),
    }
    for name, x in shapes.items():
        assert_same_bits(fn(x), MASKED[fn](x))
