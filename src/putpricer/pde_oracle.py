"""Independent numerical ground truth for the reduced equation.

A Crank-Nicolson finite-difference solver for

    u_tau = u_yy + (k1 - 1) u_y - k2 u,   u(y, 0) = max(1 - e^y, 0).

The solver is the verification side of every closed-form and series formula
in this library, so it shares no code with them: its boundary values are the
payoff's deep-tail asymptote, on grids wide enough for it.  Every step applies
one map per contract, set up once per solve: a product of blocks of nodes and
a small Woodbury correction, batched over all the contracts of a call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .transforms import GeneralizedReducedParams

log = logging.getLogger(__name__)
_TAIL_TOLERANCE = 1e-15   # ~5 ulp of the solution's scale; validate's contracts leave 6.8e-20
_MAX_EXPONENT = math.log(np.finfo(float).max / 2.0**32)   # a step's products reach ~dtau/(4h^2) u
_REACTION_GAP = 1e-2   # validate's solves leave 5.6e-9 at 50 steps, the tests 4.2e-5


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
    """Solve output: final[..., j] = u(y[j], tau_final), and the least value over all levels.

    The leading axes of `final` and `min_value` index contracts; for a single
    contract `final` is 1-D and `min_value` a float.
    """

    grid: GridSpec
    params: GeneralizedReducedParams
    y: np.ndarray
    final: np.ndarray
    min_value: float

    def value_at_zero(self):
        """Final-time value at y = 0, which sits midway between two nodes."""
        j = int(np.searchsorted(self.y, 0.0))
        return _result(0.5 * (self.final[..., j - 1] + self.final[..., j]))


def _result(out):   # the pricers' return rule, restated to import none of them
    return out if out.ndim else float(out)


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

    a, b, c and dtau broadcast to one batch shape, one contract per element
    (shape () for one contract); u is that shape + (n + 2,), and step()
    overwrites u[..., 1:-1] with T^-1 E u for every contract at once, for the
    explicit tridiagonal E = (ea, eb, ec) = (0, 1, 0) + dtau/2 (a, b, c) over
    all n + 2 nodes and T = tridiag(-ea, 1 - dtau b/2, -ec).  SPIKE-style: T
    padded to p blocks B of m = round(sqrt(2n)) rows is D + U V^T with
    D = blockdiag(B, ...), so by Woodbury T^-1 E u = x - D^-1 U C^-1 x[cols],
    C = I + V^T D^-1 U, where x = D^-1 E u is one product of u's overlapping
    (m + 2)-node windows with B^-1 E_loc, and D^-1 U lives in at most four
    columns of B^-1.  The operators carry the batch axes; which rows couple
    depends only on n and m, so the coupling indices are shared.
    """
    a, b, c, dtau = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, dtau)))
    m = round(math.sqrt(2 * n))
    p = -(-n // m)
    ea, ec = 0.5 * dtau * a, 0.5 * dtau * c

    def band(lo, mid, hi):   # row i holds (lo, mid, hi) in columns i, i + 1, i + 2
        return sum(np.multiply.outer(v, np.eye(m, m + 2, s)) for s, v in enumerate((lo, mid, hi)))
    binv = np.linalg.inv(band(-ea, 1.0 - 0.5 * dtau * b, -ec)[..., 1:-1])
    # stored row-major: the batched window product runs ~30 % faster than on a transposed view
    kernel = np.swapaxes(binv @ band(ea, 1.0 + 0.5 * dtau * b, ec), -1, -2).copy()
    # couplings between rows e - 1 and e: T has them across the block edges,
    # the blocks have one across row n, where the padding starts inside a block
    edges = np.arange(m, p * m, m)
    if n < p * m:
        edges = np.append(edges, n)
    values = (np.where(edges % m, 1.0, -1.0)[:, None]
              * np.stack([ec, ea], axis=-1)[..., None, :]).reshape(a.shape + (-1,))
    rows = np.stack([edges - 1, edges], axis=1).ravel()
    cols = np.stack([edges, edges - 1], axis=1).ravel()
    # column j of D^-1 U is values[j] times column rows[j] % m of B^-1, in block rows[j] // m
    vdu = np.where(cols[:, None] // m == rows // m, binv[..., cols[:, None] % m, rows % m], 0.0)
    basis_cols, which = np.unique(rows % m, return_inverse=True)
    # C^-1 with the values folded in, one row per (column, block) slot of the
    # correction; two couplings share a slot when n % m == 1
    slots, slot_of = np.unique(rows // m * basis_cols.size + which, return_inverse=True)
    fold = np.zeros(a.shape + (slots.size, rows.size))
    fold[..., slot_of, np.arange(rows.size)] = values
    fold = fold @ np.linalg.inv(np.eye(rows.size) + vdu * values[..., None, :])
    basis = np.swapaxes(binv[..., basis_cols], -1, -2).copy()
    # the decay of B^-1 leaves subnormal entries, which would slow every
    # step's products while adding nothing to them
    for operator in (kernel, fold, basis):
        operator[np.abs(operator) < np.finfo(float).tiny] = 0.0

    u = np.zeros(a.shape + (p * m + 2,))
    windows = np.lib.stride_tricks.sliding_window_view(u, m + 2, axis=-1)[..., ::m, :]
    x, correction = np.empty(a.shape + (p, m)), np.empty(a.shape + (p, m))
    coef = np.zeros(a.shape + (p, basis_cols.size))
    flat_x, flat_coef = x.reshape(a.shape + (-1,)), coef.reshape(a.shape + (-1,))
    solution, x_head = u[..., 1:n + 1], flat_x[..., :n]
    correction_head = correction.reshape(a.shape + (-1,))[..., :n]

    def step():
        np.matmul(windows, kernel, out=x)
        flat_coef[..., slots] = (fold @ flat_x[..., cols, None])[..., 0]
        np.matmul(coef, basis, out=correction)
        np.subtract(x_head, correction_head, out=solution)

    return u[..., :n + 2], step


def _boundary_values(boundary, k1, k2, tau, y, taus):
    """Dirichlet data at every time level: a left and a right array shaped like `taus`.

    Unless a callable pair is given, the deep-tail asymptote: e^(-k2 tau) - e^(y + (k1 - k2)
    tau) on the left, 0 on the right.  Relative to e^(-k2 tau), it leaves out a call on the
    left and the put on the right.  Their bounds below take the drift as |k1 +- 1|, so they
    grow with tau; a grid on which one exceeds `_TAIL_TOLERANCE` at tau_final is refused.
    """
    if isinstance(boundary, tuple) and len(boundary) == 2:
        return tuple(np.array([fn(t) for t in taus.ravel().tolist()]).reshape(taus.shape)
                     for fn in boundary)
    if boundary is not None:
        raise ValueError(f"boundary must be None or a (left, right) callable pair: {boundary!r}")
    erfc, root = np.vectorize(math.erfc, otypes=[float]), 2.0 * np.sqrt(tau)
    with np.errstate(over="ignore"):   # what overflows here is refused below
        tail = np.maximum(np.exp(y[0] + np.maximum(k1, 0.0) * tau)
                          * erfc((-y[0] - abs(k1 + 1.0) * tau) / root),
                          erfc((y[-1] - abs(k1 - 1.0) * tau) / root)).max()
        peak = np.maximum(-k2 * tau, y[0] + (k1 - k2) * tau).max()   # linear in tau, <= 0 at 0
    if tail > _TAIL_TOLERANCE:
        raise ValueError(f"grid too narrow for the asymptote boundary: tail bound {tail:.1e}")
    if peak > _MAX_EXPONENT:
        raise ValueError("boundary values overflow the headroom: -k2 tau or y + (k1 - k2) tau "
                         f"exceeds {_MAX_EXPONENT:.1f}")
    left = np.exp(-k2[..., None] * taus) - np.exp(y[0] + (k1 - k2)[..., None] * taus)
    return left, np.zeros_like(left)


def cn_solve(params: GeneralizedReducedParams, tau_final, grid: GridSpec,
             initial=None, boundary=None) -> PdeSolution:
    """Crank-Nicolson solve of the reduced equation up to tau_final on the given grid.

    `params.k1`, `params.k2` and `tau_final` are floats or broadcastable
    arrays, one contract per element of their broadcast shape; every
    contract shares the grid and its n_steps and is stepped in the same time
    loop.  The Dirichlet data is the payoff's deep-tail asymptote; a grid
    too narrow for it, a scale e^(-k2 tau) near overflow and a time step the
    reaction -k2 u dominates raise ValueError (see `_boundary_values`).  Test
    hooks: `initial` overrides the put payoff, and `boundary`, a (left, right)
    pair of callables of a scalar tau shared by every contract, the boundary
    data.  Second order in both h and dtau.  Every step applies each
    contract's map T^-1 E, set up once per call by `_cn_stepper`.
    """
    try:
        k1, k2, tau = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (params.k1, params.k2, tau_final)))
    except ValueError as exc:
        raise ValueError(f"k1, k2 and tau_final must broadcast together: {exc}") from None
    if not (np.isfinite(tau).all() and (tau > 0.0).all()):
        raise ValueError(f"tau_final must be positive and finite, got {tau_final}")
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()):
        raise ValueError("non-finite reduced parameters")

    y, h = _shifted_nodes(grid)
    dtau = tau / grid.n_steps
    taus = dtau[..., None] * np.arange(grid.n_steps + 1)
    # (left, right) at every level: batch shape + (n_steps + 1, 2)
    edges = np.stack(_boundary_values(boundary, k1, k2, tau, y, taus), axis=-1)
    # the scheme's reaction factor (1 - x)/(1 + x), x = dtau k2 / 2, stands for e^(-2x): it is not
    # positive for |x| >= 1, and compounded over the steps it misses e^(-k2 tau) by e^gap
    x = float(np.abs(0.5 * dtau * k2).max())   # the gap grows with |x|
    if not (x < 1.0 and 2 * grid.n_steps * (math.atanh(x) - x) <= _REACTION_GAP):
        raise ValueError("reaction dominates the time step: dtau |k2| / 2 must be small")

    a_coef = 1.0 / (h * h) - (k1 - 1.0) / (2.0 * h)   # multiplies u_{j-1}
    b_coef = -2.0 / (h * h) - k2                      # multiplies u_j
    c_coef = 1.0 / (h * h) + (k1 - 1.0) / (2.0 * h)   # multiplies u_{j+1}
    u, step = _cn_stepper(a_coef, b_coef, c_coef, dtau, grid.ny)

    # one time level is kept: u is overwritten in place step by step
    u[...] = _payoff(y) if initial is None else initial(y)
    interior, edge_nodes = u[..., 1:-1], slice(None, None, grid.ny + 1)   # nodes 0, ny + 1
    least = interior.copy()   # elementwise least value over the levels
    # moved to the right side, T's Dirichlet terms carry E's coefficients, so
    # during a step an edge node holds the sum of its values at the two levels
    for sums in np.moveaxis(edges[..., :-1, :] + edges[..., 1:, :], -2, 0):
        u[..., edge_nodes] = sums
        step()
        np.minimum(least, interior, out=least)
    u[..., edge_nodes] = edges[..., -1, :]
    min_value = np.minimum(least.min(axis=-1), edges.min(axis=(-2, -1)))

    if (min_value < -1e-12).any():
        log.info("cn_solve: solution dipped to %.3e below zero (scheme is not "
                 "positivity preserving; diagnostic only)", min_value.min())
    return PdeSolution(grid=grid, params=params, y=y, final=u, min_value=_result(min_value))


def _richardson_at_zero(params: GeneralizedReducedParams, tau_final, n: int):
    """u(0, tau_final) extrapolated as (4 v_2n - v_n)/3 from an n- and a 2n-node solve.

    v_m is `value_at_zero` on ny = m nodes and n_steps = m // 4 steps, whose
    leading error is O(h^2 + dtau^2) with dtau ~ h on both grids; the
    combination cancels it.  On validate's contracts the h^2 term dominates:
    the worst gap reads the same with m, m // 4 or m // 8 steps and only
    breaks down at m // 16.  It goes from 6.1e-4 for v_200 to 4.9e-7 at n = 200.
    """
    coarse, fine = (cn_solve(params, tau_final, GridSpec(ny=m, n_steps=m // 4)).value_at_zero()
                    for m in (n, 2 * n))
    return (4.0 * fine - coarse) / 3.0
