import math

import numpy as np
import pytest

from putpricer import hpm_series
from putpricer.exact_pricing import reduced_exact_u
from putpricer.pde_oracle import (
    GridSpec,
    _tridiagonal_solver,
    cn_solve,
    fd_residual,
    richardson_residual,
)
from putpricer.transforms import GeneralizedReducedParams

FIG1_PARAMS = GeneralizedReducedParams(0.950625998140567, 0.950625998140567)
FIG1_TAU = 0.026298460224


# ---------------------------------------------------------------------------
# grid and inputs
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError, match="bracket"):
        GridSpec(y_min=1.0, y_max=2.0)
    with pytest.raises(ValueError, match="ny"):
        GridSpec(ny=8)
    with pytest.raises(ValueError, match="n_steps"):
        GridSpec(n_steps=0)
    with pytest.raises(TypeError, match="theta"):
        GridSpec(theta=0.5)   # the solver is Crank-Nicolson only


def test_solver_input_validation():
    with pytest.raises(ValueError, match="tau_final"):
        cn_solve(FIG1_PARAMS, 0.0, GridSpec())
    with pytest.raises(ValueError, match="tau_final"):
        cn_solve(GeneralizedReducedParams(1.0, 1.0), math.inf, GridSpec())
    with pytest.raises(ValueError, match="boundary"):
        cn_solve(FIG1_PARAMS, 0.1, GridSpec(), boundary="nope")


def test_zero_is_cell_centered():
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=64, n_steps=8))
    j = int(np.searchsorted(sol.y, 0.0))
    midpoint = 0.5 * (sol.y[j - 1] + sol.y[j])
    assert abs(midpoint) < 1e-12


def test_initial_row_is_payoff():
    # only the final row is kept, so the default start is compared through it
    grid = GridSpec(ny=64, n_steps=8)
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, grid)
    reference = cn_solve(FIG1_PARAMS, FIG1_TAU, grid,
                         initial=lambda y: np.maximum(1.0 - np.exp(y), 0.0))
    assert np.array_equal(sol.final, reference.final)


# ---------------------------------------------------------------------------
# solver correctness
# ---------------------------------------------------------------------------


def test_constant_solution_preserved_without_reaction():
    # with k2 = 0 a constant is a steady state of the equation
    c = 0.7
    params = GeneralizedReducedParams(1.3, 0.0)
    sol = cn_solve(
        params, 0.05, GridSpec(ny=64, n_steps=32),
        initial=lambda y: np.full_like(y, c),
        boundary=(lambda tau: c, lambda tau: c),
    )
    # the direct solve reproduces the constant to rounding, not bit for bit
    tol = 16 * np.finfo(float).eps * c
    assert np.abs(sol.final - c).max() <= tol
    assert abs(sol.min_value - c) <= tol


def test_matches_closed_form_at_origin():
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=400, n_steps=400))
    exact = reduced_exact_u(0.0, FIG1_TAU, FIG1_PARAMS)
    assert abs(sol.value_at_zero() - exact) < 1e-4


def test_second_order_convergence():
    errors = []
    for ny in (100, 200, 400):
        sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=ny, n_steps=ny))
        ref = reduced_exact_u(sol.y[1:-1], FIG1_TAU, FIG1_PARAMS)
        errors.append(np.abs(sol.final[1:-1] - ref).max())
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 1.8 <= order <= 2.2
    # halving both steps cuts the error by about 4x
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


def test_asymptote_boundary_mode_agrees():
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=200, n_steps=200),
                   boundary="asymptote")
    ref = reduced_exact_u(sol.y[1:-1], FIG1_TAU, FIG1_PARAMS)
    assert np.abs(sol.final[1:-1] - ref).max() < 5e-4


def test_nonnegativity_monitor_records_minimum():
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=200, n_steps=200))
    assert sol.min_value <= sol.final.min()
    assert sol.min_value > -1e-6  # diagnostic, not an assertion of the scheme


@pytest.mark.parametrize("params", [FIG1_PARAMS, GeneralizedReducedParams(3.0, 4.0)],
                         ids=["k1-eq-k2", "k1-ne-k2"])
def test_exact_boundary_equals_scalar_callable_pair(params):
    # the batched exact boundary must give the same bits as evaluating the
    # closed form one time level at a time (payoff at tau = 0)
    grid = GridSpec(ny=32, n_steps=24)
    sol = cn_solve(params, 0.2, grid)

    def scalar_exact(y_edge):
        def value(tau):
            if tau <= 0.0:
                return float(np.maximum(1.0 - np.exp(y_edge), 0.0))
            return float(reduced_exact_u(y_edge, tau, params))
        return value

    pair = (scalar_exact(float(sol.y[0])), scalar_exact(float(sol.y[-1])))
    reference = cn_solve(params, 0.2, grid, boundary=pair)
    assert np.array_equal(sol.final, reference.final)


def _cn_matrix(lower, diag, upper, n):
    return (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, lower), -1)
            + np.diag(np.full(n - 1, upper), 1))


@pytest.mark.parametrize("ny", [16, 17, 97, 801, 2000])
def test_tridiagonal_solver_matches_dense_solve(ny):
    # CN systems of the reduced equation on [-4, 4]: a fixed draw that is not
    # diagonally dominant on the coarse grids (|k1 - 1| h > 2), then random ones
    rng = np.random.default_rng(ny)
    h = 8.0 / (ny + 1)
    draws = [(100.0, -5.0, 0.1)] + [
        (rng.uniform(-100.0, 100.0), rng.uniform(-5.0, 100.0), 10.0 ** rng.uniform(-6.0, -1.0))
        for _ in range(6)
    ]
    for k1, k2, dtau in draws:
        lower = -0.5 * dtau * (1.0 / (h * h) - (k1 - 1.0) / (2.0 * h))
        diag = 1.0 + 0.5 * dtau * (2.0 / (h * h) + k2)
        upper = -0.5 * dtau * (1.0 / (h * h) + (k1 - 1.0) / (2.0 * h))
        rhs, solve = _tridiagonal_solver(lower, diag, upper, ny)
        rhs[:] = rng.normal(size=ny)
        expected = np.linalg.solve(_cn_matrix(lower, diag, upper, ny), rhs)
        assert np.abs(solve() - expected).max() <= 1e-12 * np.abs(expected).max()


def test_cn_run_matches_dense_stepping():
    # the whole time loop against a reference that steps with a dense solve;
    # data of order one at both edges, so an error in any row shows
    params = GeneralizedReducedParams(3.0, 4.0)
    grid = GridSpec(ny=64, n_steps=32)
    tau_final = 0.2

    def initial(y):
        return 1.0 + 0.5 * np.sin(y)

    def left(tau):
        return 0.6 + tau

    def right(tau):
        return 1.4 - tau

    sol = cn_solve(params, tau_final, grid, initial=initial, boundary=(left, right))

    y = sol.y
    h = y[1] - y[0]
    dtau = tau_final / grid.n_steps
    a = 1.0 / (h * h) - (params.k1 - 1.0) / (2.0 * h)
    b = -2.0 / (h * h) - params.k2
    c = 1.0 / (h * h) + (params.k1 - 1.0) / (2.0 * h)
    implicit = _cn_matrix(-0.5 * dtau * a, 1.0 - 0.5 * dtau * b, -0.5 * dtau * c, grid.ny)
    explicit = _cn_matrix(0.5 * dtau * a, 1.0 + 0.5 * dtau * b, 0.5 * dtau * c, grid.ny)

    u = initial(y[1:-1])
    for step in range(1, grid.n_steps + 1):
        before, after = (step - 1) * dtau, step * dtau
        rhs = explicit @ u
        rhs[0] += 0.5 * dtau * a * (left(before) + left(after))
        rhs[-1] += 0.5 * dtau * c * (right(before) + right(after))
        u = np.linalg.solve(implicit, rhs)
    assert np.abs(sol.final[1:-1] - u).max() <= 1e-13
    assert (sol.final[0], sol.final[-1]) == (left(tau_final), right(tau_final))


# ---------------------------------------------------------------------------
# recursion residuals
# ---------------------------------------------------------------------------


def test_r0_small_at_modest_step():
    r = fd_residual(0, FIG1_PARAMS, 0.3, 0.2, 1e-4)
    assert abs(r) < 1e-7


def test_extrapolated_residual_first_order_term():
    rng = np.random.default_rng(21)
    params = GeneralizedReducedParams(0.95, 0.95)
    z = rng.uniform(-3.0, 3.0, 100)
    r = richardson_residual(1, params, z, 0.3, 0.02)
    assert np.abs(r).max() < 1e-8


def test_extrapolated_residual_all_orders_random_pairs():
    rng = np.random.default_rng(22)
    for _ in range(3):
        k1, k2 = rng.uniform(-2.0, 2.0, 2)
        params = GeneralizedReducedParams(float(k1), float(k2))
        z = rng.uniform(-3.0, 3.0, 200)
        w = float(rng.uniform(0.05, 0.8))
        for n in range(6):
            assert np.abs(richardson_residual(n, params, z, w)).max() < 1e-8


def test_estimator_is_second_order():
    rng = np.random.default_rng(23)
    params = GeneralizedReducedParams(0.6, 1.4)
    z = rng.uniform(-3.0, 3.0, 300)
    r1 = fd_residual(3, params, z, 0.3, 0.02)
    r2 = fd_residual(3, params, z, 0.3, 0.01)
    order = math.log2(
        math.sqrt(float((r1**2).mean())) / math.sqrt(float((r2**2).mean()))
    )
    assert 1.8 <= order <= 2.2


def test_residual_detects_corrupted_term(monkeypatch):
    # mutation check: breaking one constant in the second term must surface
    # as a nonzero recursion residual; the stencil evaluates the terms
    # through the polynomial factors, so the constant of P_2 is broken there
    original = hpm_series._phi_polys

    def corrupted(n, z, k1, k2):
        p, q = original(n, z, k1, k2)
        if n == 2:
            return p + 1e-4, q
        return p, q

    monkeypatch.setattr(hpm_series, "_phi_polys", corrupted)
    r = richardson_residual(2, GeneralizedReducedParams(0.95, 0.95), 0.4, 0.3)
    assert abs(r) > 1e-6


def test_residual_validation():
    with pytest.raises(ValueError, match="term_index"):
        fd_residual(6, FIG1_PARAMS, 0.0, 0.3, 0.01)
    with pytest.raises(ValueError, match="w > 0"):
        fd_residual(1, FIG1_PARAMS, 0.0, 0.0, 0.01)


def test_residual_term_bound_message_follows_max_order(monkeypatch):
    bound = hpm_series.MAX_ORDER - 1
    with pytest.raises(ValueError, match=rf"\[0, {bound}\], got {bound + 1}$"):
        fd_residual(bound + 1, FIG1_PARAMS, 0.0, 0.3, 0.01)
    # the bound is read from MAX_ORDER, not restated
    monkeypatch.setattr(hpm_series, "MAX_ORDER", 4)
    with pytest.raises(ValueError, match=r"\[0, 3\], got 4$"):
        fd_residual(4, FIG1_PARAMS, 0.0, 0.3, 0.01)
