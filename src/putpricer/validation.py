"""Acceptance checks: every formula verified against an independent route.

Each check pits one implementation path against an independent route:
finite-difference PDE solves against the closed forms, the coefficients of
the series terms' polynomial factors against the recursion's exact
identities, the terms against deep-tail combinatorics, the series sum at
short time against the exact solution, the special functions against
series/quadrature.  A check that needs a contract's (y, tau, k1, k2, scale)
reads it from `reduce_contract`, the map of every series price, so the CN
checks hold that map against the market-variable closed forms.  A route is
independent of the formula it checks, not of every line of the library:
every quanto check (the CN solve, the internal-consistency route, the error
surface) starts from `reduce_quanto`'s parameters, as the quanto closed form
does, so nothing here checks that reduction against the two-asset model
itself.  The CN solver's boundary values are the payoff's deep-tail
asymptote, and it refuses a grid too narrow for them.
`run_all` powers both the CLI `validate` command and the acceptance tests.

Every oracle runs as array calls, with no loop over points: random
contracts are drawn as blocks of `rng.random` scaled column by column,
which reproduces the one-contract-at-a-time draws bit for bit, each family
or series order is priced in one call over array-valued fields, and the
series terms of every order arrive from one call.  The term-family checks
sample no points: they compare coefficient arrays of the factors P_n, Q_n,
read off once per order at the roots of unity for every k at once.  Every array stays
below glibc's 128 KB mmap threshold, since freeing a larger one raises that
threshold and grows the heap for the rest of the process; the chunk sizes
below keep it.  The two reduced engines bound theirs likewise, to
16,384-element (128 KB) blocks.

Frozen regression constants were established once with the oracles in this
module and are asserted with 5% slack thereafter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import hpm_series
from .config import DEFAULT_BASKET, DEFAULT_QUANTO, DEFAULT_SINGLE
from .exact_pricing import basket_put_exact, bs_put, quanto_put_exact, reduced_exact_u
from .pde_oracle import _richardson_at_zero
from .special_functions import erf, normal_cdf
from .transforms import (
    BasketSpec,
    GeneralizedReducedParams,
    QuantoSpec,
    VanillaOptionSpec,
    reduce_contract,
    reduce_quanto,
)

# frozen regression constants
BS_PUT_SECTION5_ATM = 3.1341649725632905      # S = E = 40, r=0.05, vol=0.324336, T=0.5
EPS1_HPM2_MAX_ERROR = 38.01239648113331       # max |hpm2(6) - exact| on S in [1, 100]
EPS2_QUANTO_SURFACE = 0.0029262086729886505   # max |hpm - exact| on [20, 60]^2
EPS3_BASKET_SURFACE = 0.00029932999129300697  # max |hpm - exact| on [20, 60]^2

# the Section-5 put without its spot; it and the figure contracts are the CLI's defaults
SECTION5 = {name: DEFAULT_SINGLE[name] for name in ("strike", "rate", "vol", "maturity")}


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: str
    passed: bool
    severity: str = "check"   # "check" gates the run; "diagnostic" never does

    @property
    def status(self) -> str:
        if self.severity == "diagnostic":
            return "INFO" if self.passed else "WARN"
        return "PASS" if self.passed else "FAIL"


def _fig3_basket():
    return BasketSpec(**DEFAULT_BASKET)


def _fig5_quanto():
    return QuantoSpec(**DEFAULT_QUANTO)


def _tol(bound, profile, floor=0.0):
    # strict tightens 10x, except where double precision or a stated
    # truncation depth already bounds what is achievable
    if profile == "strict":
        return max(bound * 0.1, floor)
    return bound


# ---------------------------------------------------------------------------
# term-family checks
# ---------------------------------------------------------------------------


def _uniform(u, lo, hi):
    """`rng.uniform(lo, hi)` from draws `u` of `rng.random()`, bit for bit.

    Generator.uniform is lo + (hi - lo) * random(), so a block of `random`
    scaled column by column reproduces a sequence of scalar draws.
    """
    return lo + (hi - lo) * u


# the factors reach degree MAX_ORDER (Q_5: z^6) and the identities multiply by z
# at most once, so MAX_ORDER + 2 coefficients hold every polynomial formed; a
# degree of _N_COEFS or more would alias onto low ones unseen, hence no parameter
_N_COEFS = hpm_series.MAX_ORDER + 2
# d/dz and multiplication by z, as maps c -> c @ map of coefficient rows
_DERIV = np.diag(np.arange(1.0, _N_COEFS), -1)
_TIMES_Z = np.eye(_N_COEFS, k=1)


def _coefficients(polys, *coefs):
    """Coefficients in z of P_n and Q_n of one family, for every order n < MAX_ORDER.

    Returns (p, q), each shaped (MAX_ORDER,) + the k values' broadcast shape
    + (_N_COEFS,), the coefficient of z^j at j on the last axis.  `polys` is
    evaluated once per order at the N-th roots of unity, with the k values as
    arrays; the discrete Fourier transform of those values, divided by N, is
    the coefficients.
    """
    roots = np.exp(2j * np.pi * np.arange(_N_COEFS) / _N_COEFS)
    coefs = [np.asarray(c, dtype=float)[..., None] for c in coefs]
    shape = np.broadcast_shapes(roots.shape, *(c.shape for c in coefs))
    values = np.empty((2, hpm_series.MAX_ORDER) + shape, dtype=complex)
    for n in range(hpm_series.MAX_ORDER):
        values[0, n], values[1, n] = polys(n, roots, *coefs)
    return tuple(np.fft.fft(values).real / _N_COEFS)


def _largest(*polys):
    """The largest coefficient magnitude of each polynomial, over all of `polys`."""
    return np.max([np.abs(c).max(axis=-1) for c in polys], axis=0)


def _recursion_residual(p, q, k1, k2):
    """Worst relative residual of the recursion's two coefficient identities.

    f_n = P_n G + Q_n (erf(z/2) - 1) solves the recursion for every z exactly
    when its G and erf parts vanish, with A_n = P_n' - (z/2) P_n + Q_n and
    f_{-1} = f_{-2} = 0:

        2 A_n' + 2 Q_n' - (n+1) P_n + 2(k1-1) A_{n-1} - 2 k2 P_{n-2} = 0,
        2 Q_n'' + z Q_n' - (n+1) Q_n + 2(k1-1) Q_{n-1}' - 2 k2 Q_{n-2} = 0.

    Each residual is taken relative to the largest coefficient of orders
    n-2..n, for every order and k pair at once.
    """
    k1, k2 = (np.asarray(k, dtype=float)[..., None] for k in (k1, k2))
    p, q = (np.concatenate([np.zeros((2,) + c.shape[1:]), c]) for c in (p, q))
    dq = q @ _DERIV
    a = p @ _DERIV - 0.5 * (p @ _TIMES_Z) + q
    order = np.arange(1.0, hpm_series.MAX_ORDER + 1).reshape((-1,) + (1,) * (p.ndim - 1))
    gauss = (2.0 * (a[2:] @ _DERIV) + 2.0 * dq[2:] - order * p[2:]
             + 2.0 * (k1 - 1.0) * a[1:-1] - 2.0 * k2 * p[:-2])
    erf_part = (2.0 * (dq[2:] @ _DERIV) + dq[2:] @ _TIMES_Z - order * q[2:]
                + 2.0 * (k1 - 1.0) * dq[1:-1] - 2.0 * k2 * q[:-2])
    size = _largest(p, q)
    scale = np.maximum(np.maximum(size[2:], size[1:-1]), size[:-2])
    return float((_largest(gauss, erf_part) / scale).max())


def check_specialization_identity(profile="default"):
    k = np.random.default_rng(2024).uniform(0.1, 3.0, 20)
    phi = _coefficients(hpm_series._phi_polys, k, k)
    single = _coefficients(hpm_series._single_polys, k)
    # per order and k, relative to the largest coefficient of either family
    worst = float((_largest(*(a - b for a, b in zip(phi, single)))
                   / _largest(*phi, *single)).max())
    bound = _tol(1e-13, profile, floor=2e-14)   # 2.6e-15 measured, under either exp dispatch
    return [CheckResult("specialization-identity", worst, f"<= {bound:.1e}",
                        worst <= bound)]


def check_recursion_residuals(profile="default"):
    k1, k2 = _uniform(np.random.default_rng(7).random((10, 2)), -2.0, 2.0).T
    worst = _recursion_residual(*_coefficients(hpm_series._phi_polys, k1, k2), k1, k2)
    bound = _tol(1e-13, profile, floor=2e-14)   # 5.5e-15 measured, under either exp dispatch
    return [CheckResult("recursion-residuals", worst, f"<= {bound:.1e}",
                        worst <= bound)]


# ---------------------------------------------------------------------------
# PDE cross-validation
# ---------------------------------------------------------------------------


def check_cn_cross_validation(profile="default"):
    # Richardson over n and 2n nodes, each on a quarter as many steps, leaves at
    # most 4.9e-7 at n = 200 and 5.2e-8 at n = 400, which strict's 10x tighter
    # tolerance needs
    bound = _tol(1e-6, profile)
    n = 400 if profile == "strict" else 200
    params, tau, exact = _cn_contracts()
    gaps = np.abs(_richardson_at_zero(params, tau, n) - exact)
    return [CheckResult(f"cn-vs-exact-{name}", gap, f"<= {bound:.1e}", gap <= bound)
            for name, gap in (("single", float(gaps[0])), ("random", float(gaps[1:6].max())),
                              ("quanto", float(gaps[6])), ("basket", float(gaps[7])))]


def _cn_contracts():
    """(params, tau, exact u at y = 0) of the CN check's eight contracts: the Section-5 put,
    five random at-the-money ones, the figure-5 quanto and the figure-3 basket."""
    fields = ("strike", "rate", "vol", "maturity")
    lo, hi = np.array([(20.0, 0.01, 0.15, 0.25), (80.0, 0.1, 0.5, 1.5)])
    drawn = _uniform(np.random.default_rng(31).random((5, len(fields))), lo, hi)
    columns = dict(zip(fields, np.vstack([[SECTION5[f] for f in fields], drawn]).T))
    singles = VanillaOptionSpec(spot=columns["strike"], **columns)
    contracts = []
    for spec, price in ((singles, bs_put), (_fig5_quanto(), quanto_put_exact),
                        (_fig3_basket(), basket_put_exact)):
        red = reduce_contract(spec)
        contracts.append(np.atleast_1d(red.params.k1, red.params.k2, red.tau,
                                       price(spec) / red.scale))

    k1, k2, tau, exact = np.concatenate(contracts, axis=1)
    return GeneralizedReducedParams(k1, k2), tau, exact


# ---------------------------------------------------------------------------
# internal consistency and degenerations
# ---------------------------------------------------------------------------


_QUANTO_DRAWS = (("s1", 25, 70), ("s2", 0.5, 3.0), ("sigma1", 0.05, 0.5),
                 ("sigma2", 0.0, 0.5), ("rho", -1.0, 1.0), ("r1", 0.0, 0.1),
                 ("r2", 0.0, 0.1), ("q", 0.0, 0.05), ("strike", 25, 70),
                 ("maturity", 0.1, 2.0))


def _quanto_contracts(u):
    # one contract per row of draws, one field per column
    return QuantoSpec(**{name: _uniform(u[:, j], lo, hi)
                         for j, (name, lo, hi) in enumerate(_QUANTO_DRAWS)})


def check_quanto_internal_consistency(profile="default"):
    rng = np.random.default_rng(17)
    # contracts are drawn a row at a time, and those with sigma_hat^2 <= 1e-4
    # are rejected, until 1,000 are kept
    kept = np.empty((0, len(_QUANTO_DRAWS)))
    while len(kept) < 1000:
        u = rng.random((1100, len(_QUANTO_DRAWS)))
        kept = np.concatenate([kept, u[reduce_quanto(_quanto_contracts(u)).sigma_hat_sq > 1e-4]])
    spec = _quanto_contracts(kept[:1000])
    red = reduce_contract(spec)
    price = quanto_put_exact(spec)
    routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
    priced = price > 1e-12
    worst = float(np.max(np.abs(price - routed)[priced] / price[priced], initial=0.0))
    bound = _tol(1e-10, profile)
    return [CheckResult("quanto-internal-consistency", worst, f"<= {bound:.1e}",
                        worst <= bound)]


def check_degenerations(profile="default"):
    bound = _tol(1e-12, profile)
    rng = np.random.default_rng(41)
    u = rng.random((1000, 5))
    strike = _uniform(u[:, 0], 20, 100)
    spec = VanillaOptionSpec(
        spot=strike * _uniform(u[:, 1], 0.6, 1.6), strike=strike,
        rate=_uniform(u[:, 2], 0.0, 0.12), vol=_uniform(u[:, 3], 0.1, 0.6),
        maturity=_uniform(u[:, 4], 0.1, 2.0),
    )
    basket = BasketSpec(
        spots=spec.spot[:, None], weights=np.array([1.0]), dividends=np.zeros(1),
        covariance=(spec.vol * spec.vol)[:, None, None],
        rate=spec.rate, strike=spec.strike, maturity=spec.maturity,
    )
    reference = bs_put(spec)
    worst_basket = float(np.abs(basket_put_exact(basket) - reference).max())
    red = reduce_contract(spec)
    routed = red.scale * reduced_exact_u(red.y, red.tau, red.params)
    worst_reduced = float(np.abs(routed - reference).max())
    return [
        CheckResult("degeneration-basket-n1", worst_basket, f"<= {bound:.1e}",
                    worst_basket <= bound),
        CheckResult("degeneration-reduced-exact", worst_reduced, f"<= {bound:.1e}",
                    worst_reduced <= bound),
    ]


# ---------------------------------------------------------------------------
# series accuracy, smoothness, error surfaces
# ---------------------------------------------------------------------------


def _hpm2_max_errors(*grids):
    """max |hpm2 - exact| of orders 1..6 at the Section-5 contract, on each grid of spots."""
    spec = VanillaOptionSpec(spot=np.concatenate(grids), **SECTION5)
    exact = bs_put(spec)
    errs = np.array([np.abs(hpm_series.price_single_hpm2(spec, order) - exact)
                     for order in range(1, 7)])
    return [part.max(axis=1).tolist()
            for part in np.split(errs, np.cumsum([g.size for g in grids[:-1]]), axis=1)]


def check_hpm2_accuracy(profile="default"):
    grid = np.linspace(1.0, 100.0, 201)
    region = np.linspace(20.0, 100.0, 81)
    errs_full, errs_region = _hpm2_max_errors(grid, region)
    measured = errs_full[-1]
    bound = 1.05 * EPS1_HPM2_MAX_ERROR
    results = [CheckResult("hpm2-error-frozen", measured, f"<= {bound:.6f}",
                           measured <= bound)]

    # order-monotonicity holds where truncation at order 6 is small; on the
    # full [1, 100] grid the truncation error of orders 1..6 dominates near
    # S -> 0 (see the mpmath oracle tests/test_hpm_series.py::term_taylor_oracle)
    # and the clamped odd/even partial sums alternate, so the global max
    # cannot decrease monotonically (documented diagnostic, see the region check)
    monotone_region = all(b < a for a, b in zip(errs_region, errs_region[1:]))
    results.append(CheckResult("hpm2-order-monotone-region", errs_region[-1],
                               "max err strictly falls, orders 1..6 on S in [20,100]",
                               monotone_region))

    monotone_full = all(b <= a for a, b in zip(errs_full, errs_full[1:]))
    results.append(CheckResult("hpm2-order-monotone-full-grid", max(errs_full),
                               "nonincreasing on S in [1,100] (known impossible)",
                               monotone_full, severity="diagnostic"))
    return results


def check_smoothness_contrast(profile="default"):
    spec = VanillaOptionSpec(spot=40.0, **SECTION5)
    red = reduce_contract(spec)
    kink = red.scale * math.exp(-red.params.k2 * red.tau)
    h = 1e-6
    up, at, down = hpm_series.price_single_hpm1(
        replace(spec, spot=np.array([kink + h, kink, kink - h])))
    jump = float(abs((up - at) / h - (at - down) / h))
    results = [CheckResult("hpm1-kink-jump", jump, ">= 0.1", jump >= 0.1)]

    steps = np.array([1.0, 0.5, 0.25, 0.125])
    up, at, down = np.split(hpm_series.price_single_hpm2(
        replace(spec, spot=np.concatenate([40.0 + steps, [40.0], 40.0 - steps]))), [4, 5])
    second = ((up - 2.0 * at + down) / (steps * steps)).tolist()
    bounded = all(abs(v) < 1.0 for v in second)
    convergent = abs(second[-1] - second[-2]) < 0.25 * abs(second[-1])
    results.append(CheckResult("hpm2-second-difference", second[-1],
                               "bounded and grid-convergent across S = E",
                               bounded and convergent))
    return results


def check_error_surfaces(profile="default"):
    grid = np.linspace(20.0, 60.0, 41)
    qspec = replace(_fig5_quanto(), s1=grid[:, None], s2=grid[None, :])
    worst_q = float(np.abs(hpm_series.price_quanto_hpm(qspec, 6) - quanto_put_exact(qspec)).max())
    bspec = replace(_fig3_basket(), spots=np.stack(np.meshgrid(grid, grid, indexing="ij"), -1))
    worst_b = float(np.abs(hpm_series.price_basket_hpm(bspec, 6) - basket_put_exact(bspec)).max())
    bound_q = 1.05 * EPS2_QUANTO_SURFACE
    bound_b = 1.05 * EPS3_BASKET_SURFACE
    results = [
        CheckResult("quanto-surface-frozen", worst_q, f"<= {bound_q:.3e}",
                    worst_q <= bound_q),
        CheckResult("basket-surface-frozen", worst_b, f"<= {bound_b:.3e}",
                    worst_b <= bound_b),
    ]

    # exact quanto value rises with the exchange-rate ratio while the
    # per-unit bracket stays positive (in-the-money region)
    prices = quanto_put_exact(replace(qspec, s1=np.array([[20.0], [27.5], [35.0]])))
    monotone = bool((np.diff(prices, axis=1) > 0).all())
    results.append(CheckResult("quanto-s2-monotonicity", float(monotone),
                               "prices strictly increase in S2 for S1 <= 35",
                               monotone))
    return results


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def _normal_cdf_quadrature(v, nodes, weights):
    # composite Gauss-Legendre on [0, v] per v, panels summed in turn; independent of erfc
    edges = np.linspace(0.0, v, 5)[..., None]   # panel edges on axis 0, nodes last
    half = 0.5 * (edges[1:] - edges[:-1])
    t = 0.5 * (edges[:-1] + edges[1:]) + half * nodes
    t *= -0.5 * t   # in place from here: this table is the check's largest array
    np.exp(t, out=t)
    t *= weights
    total = 0.0
    for panel in half[..., 0] * np.sum(t, axis=-1):
        total = total + panel
    return 0.5 + total / math.sqrt(2.0 * math.pi)


_MACLAURIN_POWERS = np.arange(1, 60, 2)      # 2n + 1 for n < 30
_MACLAURIN_DENOMINATORS = np.array([(-1) ** n * math.factorial(n) * (2 * n + 1)
                                    for n in range(30)], dtype=float)


def _erf_maclaurin(x):
    # erf at each element of x by 30 Maclaurin terms: the table by numpy, each row by fsum
    rows = np.power.outer(np.atleast_1d(x), _MACLAURIN_POWERS) / _MACLAURIN_DENOMINATORS
    sums = np.array([math.fsum(row) for row in rows.tolist()]).reshape(np.shape(x))
    return 2.0 / math.sqrt(math.pi) * sums


def check_special_functions(profile="default"):
    nodes, weights = np.polynomial.legendre.leggauss(64)
    vs = np.linspace(-8.0, 8.0, 401)
    # eight chunks keep each (4, 51, 64) node table at most 104 KB
    quadrature = np.concatenate([_normal_cdf_quadrature(chunk, nodes, weights)
                                 for chunk in np.array_split(vs, 8)])
    worst_n = float(np.abs(normal_cdf(vs) - quadrature).max())
    # the default bound already sits a few ulps from 0.5; strict cannot go lower
    bound_n = _tol(1e-15, profile, floor=5e-16)

    xs = np.linspace(-1.0, 1.0, 201)
    worst_e = float(np.abs(erf(xs) - _erf_maclaurin(xs)).max())
    bound_e = _tol(1e-14, profile)
    return [
        CheckResult("normal-cdf-quadrature", worst_n, f"<= {bound_n:.1e}",
                    worst_n <= bound_n),
        CheckResult("erf-maclaurin", worst_e, f"<= {bound_e:.1e}",
                    worst_e <= bound_e),
    ]


def check_partial_sum_identity(profile="default"):
    worst = 0.0
    for ktau in (0.1, 1.0, 2.0, 5.0):
        partial = math.fsum((-ktau) ** n / math.factorial(n) for n in range(1, 31))
        worst = max(worst, abs(partial - (math.exp(-ktau) - 1.0)))
    # the 30-term truncation alone leaves ~5.7e-13 at k*tau = 5
    bound = _tol(1e-12, profile, floor=6e-13)
    return [CheckResult("partial-sum-identity", worst, f"<= {bound:.1e}",
                        worst <= bound)]


# ---------------------------------------------------------------------------
# tail asymptotics
# ---------------------------------------------------------------------------


def _deep_itm_asymptote(n, z, k1, k2):
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


def check_series_short_time(profile="default"):
    # at tau = 1e-6 the order-6 sum misses the exact solution by O(tau^3.5), so this
    # sees rounding on the series' evaluation path: both sides of z = 0 and array k
    tau = 1e-6
    k1, k2 = _uniform(np.random.default_rng(61).random((2, 8, 1)), -2.0, 2.0)
    params = GeneralizedReducedParams(k1, k2)
    y = math.sqrt(tau) * np.linspace(-8.0, 8.0, 33)
    gap = hpm_series.hpm_reduced_sum(y, tau, params) - reduced_exact_u(y, tau, params)
    worst = float(np.abs(gap).max()) / math.sqrt(tau)
    bound = _tol(1e-11, profile)
    return [CheckResult("series-short-time", worst, f"<= {bound:.1e}", worst <= bound)]


def check_tail_asymptotics(profile="default"):
    rng = np.random.default_rng(55)
    pairs = [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(2)]
    singles = list(rng.uniform(0.1, 3.0, 2))

    # (polynomial factors, their coefficients, k1, k2): both term families, one loop
    families = [(hpm_series._phi_polys, (float(k1), float(k2)), k1, k2) for k1, k2 in pairs]
    families += [(hpm_series._single_polys, (float(k),), k, k) for k in singles]

    worst_left = worst_right = worst_monomial = 0.0
    tails = np.array([-12.0, 12.0])
    for polys, coefs, k1, k2 in families:
        rows = hpm_series._term_rows(polys, range(hpm_series.MAX_ORDER), tails, *coefs)
        for n, (f_left, f_right) in enumerate(row.tolist() for row in rows):
            worst_left = max(worst_left, abs(
                f_left - _deep_itm_asymptote(n, -12.0, k1, k2)
            ))
            worst_right = max(worst_right, abs(f_right))
            monomial = -((-12.0) ** (n + 1)) / math.factorial(n + 1)
            worst_monomial = max(worst_monomial, abs(f_left - monomial))

    bound_left = _tol(1e-8, profile)
    bound_right = _tol(1e-12, profile)
    return [
        CheckResult("tail-asymptote-left", worst_left, f"<= {bound_left:.1e}",
                    worst_left <= bound_left),
        CheckResult("tail-decay-right", worst_right, f"<= {bound_right:.1e}",
                    worst_right <= bound_right),
        # the bare monomial -z^{n+1}/(n+1)! misses the k-dependent subleading
        # terms the recursion forces for n >= 1, so this gap is O(k^m) by
        # construction; recorded to document the magnitude
        CheckResult("tail-leading-monomial-gap", worst_monomial,
                    "recorded (nonzero by construction for n >= 1)",
                    worst_monomial <= bound_left, severity="diagnostic"),
    ]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    check_specialization_identity,
    check_recursion_residuals,
    check_cn_cross_validation,
    check_quanto_internal_consistency,
    check_degenerations,
    check_hpm2_accuracy,
    check_smoothness_contrast,
    check_error_surfaces,
    check_special_functions,
    check_partial_sum_identity,
    check_series_short_time,
    check_tail_asymptotics,
)


def run_all(profile="default"):
    """Run every acceptance check; returns the full list of CheckResults."""
    if profile not in ("default", "strict"):
        raise ValueError(f"profile must be 'default' or 'strict', got {profile!r}")
    results = []
    for check in ALL_CHECKS:
        results.extend(check(profile))
    return results
