import ast
import dataclasses
import math
import types
from pathlib import Path

import numpy as np
import pytest

from putpricer import hpm_series, pde_oracle, validation
from putpricer.exact_pricing import reduced_exact_u
from putpricer.pde_oracle import (
    GridSpec,
    _cn_stepper,
    _richardson_at_zero,
    cn_solve,
)
from putpricer.transforms import GeneralizedReducedParams, VanillaOptionSpec, reduce_contract

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


@pytest.mark.parametrize("bounds", [(-4.0, math.inf), (-math.inf, 4.0), (math.nan, 4.0)])
def test_grid_refuses_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(y_min=bounds[0], y_max=bounds[1])


def test_grid_refuses_overflowing_spacing():
    with pytest.raises(ValueError, match="spacing"):
        GridSpec(y_min=-1e308, y_max=1e308)


@pytest.mark.parametrize("field, value", [("ny", 100.0), ("ny", True), ("n_steps", 10.0),
                                          ("n_steps", True)])
def test_grid_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match="ny and n_steps must be integers"):
        GridSpec(**{field: value})


def test_solver_input_validation():
    with pytest.raises(ValueError, match="tau_final"):
        cn_solve(FIG1_PARAMS, 0.0, GridSpec())
    with pytest.raises(ValueError, match="tau_final"):
        cn_solve(GeneralizedReducedParams(1.0, 1.0), math.inf, GridSpec())
    for mode in ("exact", "asymptote"):
        with pytest.raises(ValueError, match="boundary must be None"):
            cn_solve(FIG1_PARAMS, 0.1, GridSpec(), boundary=mode)


@pytest.mark.parametrize("k1, k2, tau_final, grid", [
    (2.5, 1.3, 3.0, GridSpec(ny=64, n_steps=16)),
    # the drift carries the left edge's call into view; a bound on the put alone passes
    (1.0, 0.0, 400.0, GridSpec(y_min=-230.0, y_max=230.0, ny=64, n_steps=16)),
], ids=["both-edges", "left-edge"])
def test_solver_refuses_grid_too_narrow_for_asymptote(k1, k2, tau_final, grid):
    with pytest.raises(ValueError, match="too narrow"):
        cn_solve(GeneralizedReducedParams(k1, k2), tau_final, grid)


def test_solver_refuses_overflowing_boundary_values():
    # e^(-k2 tau) = e^1000 is not finite
    with pytest.raises(ValueError, match="boundary values overflow"):
        cn_solve(GeneralizedReducedParams(1.0, -1e4), 0.1, GridSpec(ny=64, n_steps=16))


@pytest.mark.parametrize("k1, k2, tau_final, grid", [
    (1.0, -7000.0, 0.1, GridSpec(ny=64, n_steps=16)),
    (1.0, -7000.0, 0.1, GridSpec(ny=400, n_steps=400)),
    # fine enough in time for the reaction: e^690 fits, but a step's products need room above it
    (1.0, -6900.0, 0.1, GridSpec(ny=16, n_steps=60000)),
], ids=["coarse", "fine", "fine-in-time"])
def test_solver_refuses_scale_without_headroom(k1, k2, tau_final, grid):
    # exact values 1.4e303 and 6.4e298; the solver returned 6.4e239, nan and 7.2e298
    with pytest.raises(ValueError, match="headroom"):
        cn_solve(GeneralizedReducedParams(k1, k2), tau_final, grid)


@pytest.mark.parametrize("k2, grid", [
    (-3500.0, GridSpec(ny=64, n_steps=16)),    # (1 - x)/(1 + x) < 0 at x = 10.9
    (5000.0, GridSpec(ny=400, n_steps=400)),   # 0 < x = 0.625 < 1, a positive factor
    (-500.0, GridSpec(ny=64, n_steps=50)),     # x = 0.5, compounded over 50 steps to e^4.9
], ids=["negative-factor", "decay", "compounded"])
def test_solver_refuses_reaction_dominated_steps(k2, grid):
    # the solver returned 2.7e98, -2.9e-213 and 1.1e23 against exact 1.4e151, 9.8e-219, 7.2e20
    with pytest.raises(ValueError, match="reaction dominates"):
        cn_solve(GeneralizedReducedParams(1.0, k2), 0.1, grid)


def test_reaction_dominated_contract_solves_with_enough_steps():
    # the "compounded" contract above: 40x the steps leave the reaction 0.3 % off e^50
    params = GeneralizedReducedParams(1.0, -500.0)
    sol = cn_solve(params, 0.1, GridSpec(ny=400, n_steps=2000))
    assert sol.value_at_zero() == pytest.approx(reduced_exact_u(0.0, 0.1, params), rel=5e-3)


def test_oracle_imports_nothing_from_the_closed_forms():
    # the oracle checks the closed forms and the series, so it must not evaluate
    # any part of them
    for node in ast.walk(ast.parse(Path(pde_oracle.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            parts = {part for name in names for part in name.split(".")}
            assert not parts & {"exact_pricing", "special_functions", "hpm_series"}, \
                ast.unparse(node)


@pytest.mark.parametrize("tau_final", [np.array([0.1, 0.0]), np.array([0.1, -0.2]),
                                       np.array([0.1, math.nan]), np.array([[0.1], [math.inf]])],
                         ids=["zero", "negative", "nan", "inf"])
def test_solver_refuses_bad_tau_element(tau_final):
    with pytest.raises(ValueError, match="tau_final must be positive and finite"):
        cn_solve(FIG1_PARAMS, tau_final, GridSpec(ny=16, n_steps=2))


@pytest.mark.parametrize("k1, k2", [(np.array([1.0, math.nan]), 1.0),
                                    (1.0, np.array([[math.inf], [1.0]]))], ids=["k1", "k2"])
def test_solver_refuses_non_finite_parameter_element(k1, k2):
    # a duck-typed pair, so the solver's own check is reached; the dataclass
    # refuses the same values at construction
    with pytest.raises(ValueError, match="non-finite reduced parameters"):
        cn_solve(types.SimpleNamespace(k1=k1, k2=k2), 0.1, GridSpec(ny=16, n_steps=2))
    with pytest.raises(ValueError, match="must be finite"):
        GeneralizedReducedParams(k1, k2)


def test_solver_refuses_shapes_that_do_not_broadcast():
    params = GeneralizedReducedParams(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="must broadcast together"):
        cn_solve(params, 0.1, GridSpec(ny=16, n_steps=2))
    with pytest.raises(ValueError, match="must broadcast together"):
        cn_solve(GeneralizedReducedParams(np.ones(2), 1.0), np.full(3, 0.1),
                 GridSpec(ny=16, n_steps=2))


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


def test_richardson_pair_cancels_the_second_order_error():
    # (4 v_400 - v_200)/3 at y = 0, on 50 and 100 steps, leaves 2.8e-7 against
    # 6.5e-5 for 400 nodes and 400 steps alone
    exact = reduced_exact_u(0.0, FIG1_TAU, FIG1_PARAMS)
    raw = abs(cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=400, n_steps=400)).value_at_zero()
              - exact)
    assert abs(_richardson_at_zero(FIG1_PARAMS, FIG1_TAU, 200) - exact) * 50.0 <= raw


def test_halving_the_richardson_time_steps_moves_its_value_by_under_1e_7(monkeypatch):
    # the Section-5 put, the figure-5 quanto and the figure-3 basket at n = 200:
    # half the oracle's steps moves the extrapolated value by at most 3.6e-8,
    # so the time grid is not the limiting error; one halving further it moves
    # by 4.3e-7, on the way to the ~3e-5 gaps of m // 16 steps
    specs = (VanillaOptionSpec(spot=40.0, **validation.SECTION5), validation._fig5_quanto(),
             validation._fig3_basket())
    reds = [reduce_contract(spec) for spec in specs]
    params = GeneralizedReducedParams(np.array([red.params.k1 for red in reds]),
                                      np.array([red.params.k2 for red in reds]))
    tau = np.array([red.tau for red in reds])

    grids = []

    def recording(params, tau_final, grid):
        grids.append(grid)
        return cn_solve(params, tau_final, grid)

    monkeypatch.setattr(pde_oracle, "cn_solve", recording)
    value = _richardson_at_zero(params, tau, 200)
    assert [grid.ny for grid in grids] == [200, 400]
    coarse, fine = (cn_solve(params, tau, dataclasses.replace(grid, n_steps=grid.n_steps // 2))
                    .value_at_zero() for grid in grids)
    assert np.abs((4.0 * fine - coarse) / 3.0 - value).max() <= 1e-7


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
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=200, n_steps=200))
    ref = reduced_exact_u(sol.y[1:-1], FIG1_TAU, FIG1_PARAMS)
    assert np.abs(sol.final[1:-1] - ref).max() < 5e-4


def test_nonnegativity_monitor_records_minimum():
    sol = cn_solve(FIG1_PARAMS, FIG1_TAU, GridSpec(ny=200, n_steps=200))
    assert sol.min_value <= sol.final.min()
    assert sol.min_value > -1e-6  # diagnostic, not an assertion of the scheme


def _cn_matrix(lower, diag, upper, n):
    return (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, lower), -1)
            + np.diag(np.full(n - 1, upper), 1))


@pytest.mark.parametrize("ny", [16, 17, 97, 200, 400, 801, 2000])
def test_cn_step_matches_dense_step(ny):
    # CN steps of the reduced equation on [-4, 4], all draws in one batched
    # stepper (200 and 400 are validate's grids; 200 fills its blocks with no
    # padding): a fixed draw that is not diagonally dominant on the coarse
    # grids (|k1 - 1| h > 2), then random ones; each row against its own
    # dense solve
    rng = np.random.default_rng(ny)
    h = 8.0 / (ny + 1)
    draws = [(100.0, -5.0, 0.1)] + [
        (rng.uniform(-100.0, 100.0), rng.uniform(-5.0, 100.0), 10.0 ** rng.uniform(-6.0, -1.0))
        for _ in range(6)
    ]
    k1, k2, dtau = np.array(draws).T
    a = 1.0 / (h * h) - (k1 - 1.0) / (2.0 * h)
    b = -2.0 / (h * h) - k2
    c = 1.0 / (h * h) + (k1 - 1.0) / (2.0 * h)
    u, step = _cn_stepper(a, b, c, dtau, ny)
    assert u.shape == (len(draws), ny + 2)
    u[:] = rng.normal(size=u.shape)
    before = u.copy()
    step()
    for row, start, ai, bi, ci, dt in zip(u, before, a, b, c, dtau):
        # one dense step: the explicit half over every node, edges included
        explicit = _cn_matrix(0.5 * dt * ai, 1.0 + 0.5 * dt * bi, 0.5 * dt * ci, ny + 2)[1:-1]
        implicit = _cn_matrix(-0.5 * dt * ai, 1.0 - 0.5 * dt * bi, -0.5 * dt * ci, ny)
        expected = np.linalg.solve(implicit, explicit @ start)
        assert np.abs(row[1:-1] - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(row[[0, -1]], start[[0, -1]])


def test_cn_run_matches_dense_stepping():
    # the whole time loop, two contracts in one call, against a reference that
    # steps each with a dense solve; data of order one at both edges, so an
    # error in any row shows.  The second left edge falls below every
    # interior value, so the least value over the run sits on an edge
    params = GeneralizedReducedParams(np.array([3.0, 0.5]), np.array([4.0, 1.5]))
    grid = GridSpec(ny=64, n_steps=32)
    tau_final = np.array([0.2, 0.1])

    def initial(y):
        return 1.0 + 0.5 * np.sin(y)

    def right(tau):
        return 1.4 - tau

    for left in (lambda tau: 0.6 + tau, lambda tau: 0.6 - 3.0 * tau):
        sol = cn_solve(params, tau_final, grid, initial=initial, boundary=(left, right))
        assert sol.final.shape == (2, grid.ny + 2) and sol.min_value.shape == (2,)

        y = sol.y
        h = y[1] - y[0]
        for final, min_value, k1, k2, tau in zip(sol.final, sol.min_value, params.k1,
                                                 params.k2, tau_final):
            dtau = tau / grid.n_steps
            a = 1.0 / (h * h) - (k1 - 1.0) / (2.0 * h)
            b = -2.0 / (h * h) - k2
            c = 1.0 / (h * h) + (k1 - 1.0) / (2.0 * h)
            implicit = _cn_matrix(-0.5 * dtau * a, 1.0 - 0.5 * dtau * b, -0.5 * dtau * c, grid.ny)
            explicit = _cn_matrix(0.5 * dtau * a, 1.0 + 0.5 * dtau * b, 0.5 * dtau * c, grid.ny)

            u = initial(y[1:-1])
            least = min(left(0.0), u.min(), right(0.0))
            for step in range(1, grid.n_steps + 1):
                before, after = (step - 1) * dtau, step * dtau
                rhs = explicit @ u
                rhs[0] += 0.5 * dtau * a * (left(before) + left(after))
                rhs[-1] += 0.5 * dtau * c * (right(before) + right(after))
                u = np.linalg.solve(implicit, rhs)
                least = min(least, left(after), u.min(), right(after))
            assert np.abs(final[1:-1] - u).max() <= 1e-13
            assert (final[0], final[-1]) == (left(tau), right(tau))
            # the least value over every level, edge values included
            assert abs(min_value - least) <= 1e-13


def test_batched_solve_matches_each_contract_alone():
    # a (2, 3) batch from broadcasting k1 (2, 1) against tau (3,), with k2
    # shared; each contract solved alone is the reference.  At tau = 0.3 and
    # k1 = 2.5 the asymptote boundary needs more room than [-4, 4]
    k1, k2 = np.array([[0.4], [2.5]]), 1.3
    tau = np.array([0.02, 0.1, 0.3])
    grid = GridSpec(y_min=-10.0, y_max=10.0, ny=64, n_steps=48)
    sol = cn_solve(GeneralizedReducedParams(k1, k2), tau, grid)
    assert sol.final.shape == (2, 3, grid.ny + 2)
    values, least = sol.value_at_zero(), sol.min_value
    assert values.shape == least.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        alone = cn_solve(GeneralizedReducedParams(float(k1[i, 0]), k2), float(tau[j]), grid)
        assert isinstance(alone.value_at_zero(), float) and isinstance(alone.min_value, float)
        scale = np.abs(alone.final).max()
        assert np.abs(sol.final[i, j] - alone.final).max() <= 1e-14 * scale
        assert abs(values[i, j] - alone.value_at_zero()) <= 1e-14 * abs(alone.value_at_zero())
        assert abs(least[i, j] - alone.min_value) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# recursion residuals of the evaluated terms
# ---------------------------------------------------------------------------
# validate checks the recursion on the coefficients of P_n, Q_n alone.  These
# tests put phi_term's whole evaluation path (the G and erfc parts and their
# split at z = 0) into the PDE recursion through a central-difference stencil
# kept here, so an error on that path that leaves the factors intact shows.


def _fd_residual(n, params, z, w, h):
    """Central-difference R_n(z, w) of u_n = f_n(z) w^n; O(h^2) for exact terms.

    R_n = 2 d^2 u_n/dz^2 + z du_n/dz - d(w u_n)/dw
          + 2(k1-1) w du_{n-1}/dz - 2 k2 w^2 u_{n-2}.
    """
    def u(m, zz, ww):
        return hpm_series.phi_term(m, zz, params) * ww**m

    d2z = (u(n, z + h, w) - 2.0 * u(n, z, w) + u(n, z - h, w)) / (h * h)
    d1z = (u(n, z + h, w) - u(n, z - h, w)) / (2.0 * h)
    dw = ((w + h) * u(n, z, w + h) - (w - h) * u(n, z, w - h)) / (2.0 * h)
    resid = 2.0 * d2z + z * d1z - dw
    if n >= 1:
        resid = resid + (params.k1 - 1.0) * w * (u(n - 1, z + h, w) - u(n - 1, z - h, w)) / h
    if n >= 2:
        resid = resid - 2.0 * params.k2 * w * w * u(n - 2, z, w)
    return resid


def _richardson_residual(n, params, z, w, h=0.02):
    """_fd_residual at h, h/2, h/4 with its h^2 and h^4 errors cancelled."""
    r1, r2, r4 = (_fd_residual(n, params, z, w, s) for s in (h, 0.5 * h, 0.25 * h))
    return (16.0 * ((4.0 * r4 - r2) / 3.0) - (4.0 * r2 - r1) / 3.0) / 15.0


def test_r0_small_at_modest_step():
    r = _fd_residual(0, FIG1_PARAMS, 0.3, 0.2, 1e-4)
    assert abs(r) < 1e-7


def test_extrapolated_residual_first_order_term():
    rng = np.random.default_rng(21)
    params = GeneralizedReducedParams(0.95, 0.95)
    z = rng.uniform(-3.0, 3.0, 100)
    r = _richardson_residual(1, params, z, 0.3, 0.02)
    assert np.abs(r).max() < 1e-8


def test_extrapolated_residual_all_orders_random_pairs():
    rng = np.random.default_rng(22)
    for _ in range(3):
        k1, k2 = rng.uniform(-2.0, 2.0, 2)
        params = GeneralizedReducedParams(float(k1), float(k2))
        z = rng.uniform(-3.0, 3.0, 200)
        w = float(rng.uniform(0.05, 0.8))
        for n in range(hpm_series.MAX_ORDER):
            assert np.abs(_richardson_residual(n, params, z, w)).max() < 1e-8


def test_residual_detects_corrupted_term(monkeypatch):
    # mutation check: breaking one constant in the second term must surface
    # as a nonzero recursion residual of the evaluated term
    original = hpm_series._phi_polys

    def corrupted(n, z, k1, k2):
        p, q = original(n, z, k1, k2)
        if n == 2:
            return p + 1e-4, q
        return p, q

    monkeypatch.setattr(hpm_series, "_phi_polys", corrupted)
    r = _richardson_residual(2, GeneralizedReducedParams(0.95, 0.95), 0.4, 0.3)
    assert abs(r) > 1e-6
