"""Independent numerical ground truth for the reduced equation.

A Crank-Nicolson finite-difference solver for

    u_tau = u_yy + (k1 - 1) u_y - k2 u,   u(y, 0) = max(1 - e^y, 0),

plus central-difference residual probes for the series-term recursion.
The solver is the verification side of every closed-form formula in this
library, so it deliberately shares nothing with them beyond the boundary
values it is asked to use.  Every step applies one map, set up once per
solve: a product of blocks of nodes and a small Woodbury correction.
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
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (self.ny, self.n_steps)):
            raise ValueError(f"ny and n_steps must be integers, got {self.ny!r}, {self.n_steps!r}")
        if not (-math.inf < self.y_min < 0.0 < self.y_max < math.inf):
            raise ValueError("grid bounds must be finite and bracket y = 0")
        if not math.isfinite((self.y_max - self.y_min) / (self.ny + 1)):
            raise ValueError("grid spacing overflows")
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


def _cn_stepper(a, b, c, dtau, n):
    """One Crank-Nicolson step on n interior nodes, set up once: returns u and step().

    step() overwrites u[1:-1] with T^-1 E u for the explicit tridiagonal
    E = (ea, eb, ec) = (0, 1, 0) + dtau/2 (a, b, c) over all n + 2 nodes and
    T = tridiag(-ea, 1 - dtau b/2, -ec).  SPIKE-style: T padded to p blocks B
    of m = round(sqrt(2n)) rows is D + U V^T with D = blockdiag(B, ...), so by
    Woodbury T^-1 E u = x - D^-1 U C^-1 x[cols], C = I + V^T D^-1 U, where
    x = D^-1 E u is one product of u's overlapping (m + 2)-node windows with
    B^-1 E_loc, and D^-1 U lives in at most four columns of B^-1.
    """
    m = round(math.sqrt(2 * n))
    p = -(-n // m)
    ea, ec = 0.5 * dtau * a, 0.5 * dtau * c

    def band(lo, mid, hi):   # row i holds (lo, mid, hi) in columns i, i + 1, i + 2
        return sum(v * np.eye(m, m + 2, s) for s, v in enumerate((lo, mid, hi)))
    binv = np.linalg.inv(band(-ea, 1.0 - 0.5 * dtau * b, -ec)[:, 1:-1])
    kernel = (binv @ band(ea, 1.0 + 0.5 * dtau * b, ec)).T
    # couplings between rows e - 1 and e: T has them across the block edges,
    # the blocks have one across row n, where the padding starts inside a block
    edges = np.arange(m, p * m, m)
    if n < p * m:
        edges = np.append(edges, n)
    values = np.outer(np.where(edges % m, 1.0, -1.0), [ec, ea]).ravel()
    rows = np.stack([edges - 1, edges], axis=1).ravel()
    cols = np.stack([edges, edges - 1], axis=1).ravel()
    # column j of D^-1 U is values[j] times column rows[j] % m of B^-1, in block rows[j] // m
    vdu = np.where(cols[:, None] // m == rows // m, binv[cols[:, None] % m, rows % m], 0.0)
    basis_cols, which = np.unique(rows % m, return_inverse=True)
    # C^-1 with the values folded in, one row per (column, block) slot of the
    # correction; two couplings share a slot when n % m == 1
    slots, slot_of = np.unique(which * p + rows // m, return_inverse=True)
    fold = np.zeros((slots.size, rows.size))
    fold[slot_of, np.arange(rows.size)] = values
    fold = fold @ np.linalg.inv(np.eye(rows.size) + vdu * values)
    basis = binv[:, basis_cols].T.copy()
    # the decay of B^-1 leaves subnormal entries, which would slow every
    # step's products while adding nothing to them
    for operator in (kernel, fold, basis):
        operator[np.abs(operator) < np.finfo(float).tiny] = 0.0

    u = np.zeros(p * m + 2)
    windows = np.lib.stride_tricks.sliding_window_view(u, m + 2)[::m]
    x, correction, coef = np.empty((p, m)), np.empty((p, m)), np.zeros((basis.shape[0], p))
    flat_x, flat_coef, solution = x.reshape(-1), coef.reshape(-1), u[1:n + 1]
    x_head, correction_head = flat_x[:n], correction.reshape(-1)[:n]

    def step():
        np.matmul(windows, kernel, out=x)
        flat_coef[slots] = fold @ flat_x[cols]
        np.matmul(coef.T, basis, out=correction)
        np.subtract(x_head, correction_head, out=solution)

    return u[:n + 2], step


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
    both h and dtau.  Every step applies the same map T^-1 E, set up once
    per call by `_cn_stepper`.
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
    u, step = _cn_stepper(a_coef, b_coef, c_coef, dtau, grid.ny)

    # one time level is kept: u is overwritten in place step by step
    u[:] = _payoff(y) if initial is None else initial(y)
    interior = u[1:-1]
    least = interior.copy()   # elementwise least value over the levels
    # moved to the right side, T's Dirichlet terms carry E's coefficients, so
    # during a step an edge node holds the sum of its values at the two levels
    for l0, l1, r0, r1 in zip(left, left[1:], right, right[1:]):
        u[0], u[-1] = l0 + l1, r0 + r1
        step()
        np.minimum(least, interior, out=least)
    u[0], u[-1] = left[-1], right[-1]
    min_value = min(least.min(), min(left), min(right))

    if min_value < -1e-12:
        log.info("cn_solve: solution dipped to %.3e below zero (scheme is not "
                 "positivity preserving; diagnostic only)", min_value)
    return PdeSolution(grid=grid, params=params, y=y, final=u, min_value=float(min_value))


# ---------------------------------------------------------------------------
# finite-difference residuals of the series-term recursion
# ---------------------------------------------------------------------------


def _fd_residuals(term_indices, params, z, w, steps):
    """fd_residual of each order in `term_indices` at each step of `steps`.

    One special-function pass evaluates every order the residuals need on
    the stacked stencil points [z, z + h, z - h for each h]; f_n(z) also
    serves the w-derivative, which moves only the power of w.
    """
    for n in term_indices:
        if not 0 <= n < hpm_series.MAX_ORDER:
            raise ValueError(f"term_index must lie in [0, {hpm_series.MAX_ORDER - 1}], got {n}")
    if w <= 0 or min(steps) <= 0:
        raise ValueError("fd_residual needs w > 0 and h > 0")
    z = np.asarray(z, dtype=float)
    k1, k2 = params.k1, params.k2
    low = max(min(term_indices) - 2, 0)
    points = np.stack([z] + [z + s for h in steps for s in (h, -h)])
    f = hpm_series._phi_terms(range(low, max(term_indices) + 1), points, params)

    def u(m, point, ww):
        # u_m = f_m(z) w^m at stencil point 0 (z), 2i + 1 (z + h_i) or 2i + 2 (z - h_i)
        return f[m - low, point] * ww**m

    residuals = []
    for n in term_indices:
        residuals.append([])
        for i, h in enumerate(steps):
            plus, minus = 2 * i + 1, 2 * i + 2
            f_c = u(n, 0, w)
            f_p = u(n, plus, w)
            f_m = u(n, minus, w)
            d2z = (f_p - 2.0 * f_c + f_m) / (h * h)
            d1z = (f_p - f_m) / (2.0 * h)
            dw = ((w + h) * u(n, 0, w + h) - (w - h) * u(n, 0, w - h)) / (2.0 * h)
            resid = 2.0 * d2z + z * d1z - dw
            if n >= 1:
                g_p = u(n - 1, plus, w)
                g_m = u(n - 1, minus, w)
                resid = resid + 2.0 * (k1 - 1.0) * w * (g_p - g_m) / (2.0 * h)
            if n >= 2:
                resid = resid - 2.0 * k2 * w * w * u(n - 2, 0, w)
            residuals[-1].append(_result(resid))
    return residuals


def _richardson_residuals(term_indices, params, z, w, h):
    """richardson_residual of each order in `term_indices`, from one special-function pass."""
    # a1 = (4 r2 - r1)/3 and a2 = (4 r4 - r2)/3 cancel h^2, (16 a2 - a1)/15 then h^4
    return [(16.0 * ((4.0 * r4 - r2) / 3.0) - (4.0 * r2 - r1) / 3.0) / 15.0
            for r1, r2, r4 in _fd_residuals(term_indices, params, z, w, (h, 0.5 * h, 0.25 * h))]


def fd_residual(term_index: int, params: GeneralizedReducedParams, z, w: float,
                h: float):
    """Central-difference estimate of the recursion residual R_n(z, w).

    R_n = 2 d^2 u_n/dz^2 + z du_n/dz - d(w u_n)/dw
          + 2(k1-1) w du_{n-1}/dz - 2 k2 w^2 u_{n-2},
    with u_n = f_n(z) w^n.  Vanishes analytically for every generalized
    term; the estimate is O(h^2).  Accepts scalar or array z.
    """
    return _fd_residuals((term_index,), params, z, w, (h,))[0][0]


def richardson_residual(term_index: int, params: GeneralizedReducedParams, z,
                        w: float, h: float = 0.02):
    """Two-stage Richardson extrapolation of fd_residual (h, h/2, h/4).

    Eliminates the h^2 and h^4 error terms, leaving O(h^6) + roundoff, so an
    analytically zero residual extrapolates to ~1e-11 or below.  The three
    stencils share one special-function pass.
    """
    return _richardson_residuals((term_index,), params, z, w, h)[0]
