"""Independent numerical ground truth for the reduced equation.

A Crank-Nicolson finite-difference solver for

    u_tau = u_yy + (k1 - 1) u_y - k2 u,   u(y, 0) = max(1 - e^y, 0),

plus central-difference residual probes for the series-term recursion.
The solver is the verification side of every closed-form formula in this
library, so it deliberately shares nothing with them beyond the boundary
values it is asked to use.  Its steps share one tridiagonal system, solved
directly in a few array operations per step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import hpm_series
from .exact_pricing import reduced_exact_u
from .special_functions import _result
from .transforms import GeneralizedReducedParams

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """Space-time grid for the reduced equation on [y_min, y_max]."""

    y_min: float = -4.0
    y_max: float = 4.0
    ny: int = 400          # interior nodes
    n_steps: int = 400

    def __post_init__(self):
        if not (self.y_min < 0.0 < self.y_max):
            raise ValueError("grid must bracket y = 0")
        if self.ny < 16:
            raise ValueError(f"ny must be at least 16, got {self.ny}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")


@dataclass(frozen=True)
class PdeSolution:
    """Solve output: final[j] = u(y[j], tau_final), and the least value over all levels."""

    grid: GridSpec
    params: GeneralizedReducedParams
    y: np.ndarray
    final: np.ndarray
    min_value: float

    def value_at_zero(self) -> float:
        """Final-time value at y = 0, which sits midway between two nodes."""
        j = int(np.searchsorted(self.y, 0.0))
        return 0.5 * float(self.final[j - 1] + self.final[j])


def _payoff(y):
    return np.maximum(1.0 - np.exp(y), 0.0)


def _shifted_nodes(grid: GridSpec):
    # uniform nodes shifted so y = 0 falls midway between two of them; this
    # halves the quadrature error of the kinked initial data
    h = (grid.y_max - grid.y_min) / (grid.ny + 1)
    m = round(-grid.y_min / h - 0.5)
    delta = -(grid.y_min + (m + 0.5) * h)
    if abs(delta) > 0.5 * h + 1e-12:
        raise AssertionError("cell-centering shift exceeded half a cell")
    return grid.y_min + delta + h * np.arange(grid.ny + 2), h


def _tridiagonal_solver(lower, diag, upper, n):
    """Direct solve of the constant tridiagonal system T of order n, set up once.

    SPIKE-style: T padded to p blocks B of m = round(sqrt(2n)) rows is
    D + U V^T with D = blockdiag(B, ...), so by Woodbury T^-1 r = y - z y[cols]
    with y = D^-1 r, z = D^-1 U (I + V^T D^-1 U)^-1.  Returns the rhs buffer
    and its solve.
    """
    m = round(math.sqrt(2 * n))
    p = -(-n // m)
    size = p * m
    binv = np.linalg.inv(np.diag(np.full(m, diag)) + np.diag(np.full(m - 1, lower), -1)
                         + np.diag(np.full(m - 1, upper), 1))
    # couplings between rows e - 1 and e: T has them across the block edges,
    # the blocks have one across row n, where the padding starts inside a block
    edges = np.arange(m, size, m)
    if n < size:
        edges = np.append(edges, n)
    values = np.outer(np.where(edges % m, -1.0, 1.0), [upper, lower]).reshape(-1, 1)
    rows = np.stack([edges - 1, edges], axis=1).ravel()
    cols = np.stack([edges, edges - 1], axis=1).ravel()
    # column j of D^-1 U is values[j] times column rows[j] % m of B^-1, in block rows[j] // m
    k = rows.size
    dinv_u = np.zeros((size, k))
    dinv_u.reshape(p, m, k)[rows // m, :, np.arange(k)] = binv[:, rows % m].T * values
    z = (np.linalg.inv(np.eye(k) + dinv_u[cols]).T @ dinv_u.T).T   # column-major
    # the decay of B^-1 leaves subnormal entries in z, which would slow every
    # step's product about twofold while adding nothing to it
    z[np.abs(z) < np.finfo(float).tiny] = 0.0
    rhs = np.zeros(size)
    blocks = rhs.reshape(p, m)

    def solve():
        x = (blocks @ binv.T).ravel()
        x -= z @ x[cols]
        return x[:n]

    return rhs[:n], solve


def _boundary_values(boundary, params: GeneralizedReducedParams, y_lo, y_hi, taus):
    """Dirichlet data at every time level: one left and one right list over `taus`."""
    if boundary == "exact":
        # the closed form needs tau > 0, so tau = 0 takes the payoff and the
        # later levels come from one array call per side
        return tuple(
            [float(_payoff(np.asarray(edge)))]
            + reduced_exact_u(edge, taus[1:], params).tolist()
            for edge in (y_lo, y_hi)
        )
    tau_list = taus.tolist()
    if boundary == "asymptote":
        k1, k2 = params.k1, params.k2
        left = [math.exp(-k2 * tau) - math.exp(y_lo + (k1 - k2) * tau) for tau in tau_list]
        return left, [0.0] * len(tau_list)
    if isinstance(boundary, tuple) and len(boundary) == 2:
        left_fn, right_fn = boundary
        return [left_fn(tau) for tau in tau_list], [right_fn(tau) for tau in tau_list]
    raise ValueError(
        "boundary must be 'exact', 'asymptote', or a (left, right) callable pair"
    )


def cn_solve(params: GeneralizedReducedParams, tau_final: float, grid: GridSpec,
             initial=None, boundary="exact") -> PdeSolution:
    """Crank-Nicolson solve of the reduced equation up to tau_final on the given grid.

    `initial` overrides the put payoff (test hook); `boundary` selects the
    Dirichlet data: exact closed-form values (default, isolates interior
    discretization error), the deep-tail payoff asymptote (independence
    mode), or a (left, right) pair of callables of tau.  Second order in
    both h and dtau.  Every step solves the same tridiagonal system,
    through one `_tridiagonal_solver` set up per call.
    """
    if not (math.isfinite(tau_final) and tau_final > 0.0):
        raise ValueError(f"tau_final must be positive and finite, got {tau_final}")
    if not (math.isfinite(params.k1) and math.isfinite(params.k2)):
        raise ValueError("non-finite reduced parameters")

    y, h = _shifted_nodes(grid)
    dtau = tau_final / grid.n_steps
    taus = dtau * np.arange(grid.n_steps + 1)
    left, right = _boundary_values(boundary, params, float(y[0]), float(y[-1]), taus)

    k1, k2 = params.k1, params.k2
    a_coef = 1.0 / (h * h) - (k1 - 1.0) / (2.0 * h)   # multiplies u_{j-1}
    b_coef = -2.0 / (h * h) - k2                      # multiplies u_j
    c_coef = 1.0 / (h * h) + (k1 - 1.0) / (2.0 * h)   # multiplies u_{j+1}

    # half the operator implicit, half explicit
    lower = -0.5 * dtau * a_coef
    diag = 1.0 - 0.5 * dtau * b_coef
    upper = -0.5 * dtau * c_coef
    rhs, solve = _tridiagonal_solver(lower, diag, upper, grid.ny)

    ea = 0.5 * dtau * a_coef
    eb = 1.0 + 0.5 * dtau * b_coef
    ec = 0.5 * dtau * c_coef

    # one time level is kept: u is overwritten in place step by step
    u = _payoff(y) if initial is None else np.asarray(initial(y), dtype=float)
    u = u.astype(float).copy()
    u[0] = left[0]
    u[-1] = right[0]
    min_value = u.min()
    scratch = np.empty(grid.ny)

    for step in range(1, grid.n_steps + 1):
        np.multiply(u[1:-1], eb, out=rhs)
        rhs += np.multiply(u[:-2], ea, out=scratch)
        rhs += np.multiply(u[2:], ec, out=scratch)
        rhs[0] -= lower * left[step]
        rhs[-1] -= upper * right[step]
        u[1:-1] = solve()
        u[0] = left[step]
        u[-1] = right[step]
        min_value = np.minimum(min_value, u.min())

    if min_value < -1e-12:
        log.info("cn_solve: solution dipped to %.3e below zero (scheme is not "
                 "positivity preserving; diagnostic only)", min_value)
    return PdeSolution(grid=grid, params=params, y=y, final=u, min_value=float(min_value))


# ---------------------------------------------------------------------------
# finite-difference residuals of the series-term recursion
# ---------------------------------------------------------------------------


def _fd_residuals(term_index, params, z, w, steps):
    """fd_residual at each step of `steps`, from one special-function pass.

    f_n, f_{n-1} and f_{n-2} are evaluated once on the stacked stencil
    points [z, z + h, z - h for each h]; f_n(z) also serves the w-derivative,
    which moves only the power of w.
    """
    if not 0 <= term_index < hpm_series.MAX_ORDER:
        raise ValueError(
            f"term_index must lie in [0, {hpm_series.MAX_ORDER - 1}], got {term_index}"
        )
    if w <= 0 or min(steps) <= 0:
        raise ValueError("fd_residual needs w > 0 and h > 0")
    z_arr = np.asarray(z, dtype=float)
    n = term_index
    k1, k2 = params.k1, params.k2
    orders = range(n, max(n - 2, 0) - 1, -1)       # n, n-1, n-2 down to 0
    points = np.stack([z_arr] + [z_arr + s for h in steps for s in (h, -h)])
    f = hpm_series._phi_terms(orders, points, params)

    def u(m, point, ww):
        # u_m = f_m(z) w^m at stencil point 0 (z), 2i + 1 (z + h_i) or 2i + 2 (z - h_i)
        return f[n - m, point] * ww**m

    residuals = []
    for i, h in enumerate(steps):
        plus, minus = 2 * i + 1, 2 * i + 2
        f_c = u(n, 0, w)
        f_p = u(n, plus, w)
        f_m = u(n, minus, w)
        d2z = (f_p - 2.0 * f_c + f_m) / (h * h)
        d1z = (f_p - f_m) / (2.0 * h)
        dw = ((w + h) * u(n, 0, w + h) - (w - h) * u(n, 0, w - h)) / (2.0 * h)
        resid = 2.0 * d2z + z_arr * d1z - dw
        if n >= 1:
            g_p = u(n - 1, plus, w)
            g_m = u(n - 1, minus, w)
            resid = resid + 2.0 * (k1 - 1.0) * w * (g_p - g_m) / (2.0 * h)
        if n >= 2:
            resid = resid - 2.0 * k2 * w * w * u(n - 2, 0, w)
        residuals.append(_result(resid))
    return residuals


def fd_residual(term_index: int, params: GeneralizedReducedParams, z, w: float,
                h: float):
    """Central-difference estimate of the recursion residual R_n(z, w).

    R_n = 2 d^2 u_n/dz^2 + z du_n/dz - d(w u_n)/dw
          + 2(k1-1) w du_{n-1}/dz - 2 k2 w^2 u_{n-2},
    with u_n = f_n(z) w^n.  Vanishes analytically for every generalized
    term; the estimate is O(h^2).  Accepts scalar or array z.
    """
    return _fd_residuals(term_index, params, z, w, (h,))[0]


def richardson_residual(term_index: int, params: GeneralizedReducedParams, z,
                        w: float, h: float = 0.02):
    """Two-stage Richardson extrapolation of fd_residual (h, h/2, h/4).

    Eliminates the h^2 and h^4 error terms, leaving O(h^6) + roundoff, so an
    analytically zero residual extrapolates to ~1e-11 or below.  The three
    stencils share one special-function pass.
    """
    r1, r2, r4 = _fd_residuals(term_index, params, z, w, (h, 0.5 * h, 0.25 * h))
    a1 = (4.0 * r2 - r1) / 3.0
    a2 = (4.0 * r4 - r2) / 3.0
    return (16.0 * a2 - a1) / 15.0
