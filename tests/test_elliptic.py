import math

import numpy as np
import pytest

from fraclab import operator
from fraclab.elliptic import residual_check, solve_dirichlet
from fraclab.errors import MemoryBudgetError, SingularOperatorError
from fraclab.gridfn import build_grid, extend_by_zero
from fraclab.operator import DEFAULT_DENSE_CAP, FractionalParams, assemble_operator_matrix
from fraclab.regions import Ball


def test_zero_source_gives_zero_solution(grid65, params_half):
    u = solve_dirichlet(np.zeros(grid65.n_omega), params_half, grid65)
    assert u.linf() == 0.0


def test_getoor_benchmark_converges():
    errs = []
    for n in (129, 257):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        u = solve_dirichlet(np.ones(grid.n_omega), FractionalParams(1, 0.5), grid)
        x = grid.axes[0]
        exact = np.where(grid.mask, np.clip(1 - x * x, 0, None) ** 0.5, 0.0)
        inner = np.abs(x) <= 0.5
        errs.append((np.abs(u.values - exact)[inner] / exact[inner]).max())
    assert errs[0] < 0.02
    assert errs[1] < errs[0]


def test_solver_is_linear(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid65.n_omega)
    g = rng.standard_normal(grid65.n_omega)
    alpha, beta = 2.5, -1.25
    lhs = solve_dirichlet(alpha * f + beta * g, params_half, grid65, matrix=A)
    rhs = (alpha * solve_dirichlet(f, params_half, grid65, matrix=A).values
           + beta * solve_dirichlet(g, params_half, grid65, matrix=A).values)
    assert np.abs(lhs.values - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_residual_contract(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half)
    f = np.ones(grid65.n_omega)
    u = solve_dirichlet(f, params_half, grid65, matrix=A)
    assert residual_check(u, f, params_half) <= 1e-10


def test_residual_above_tolerance_at_iteration_cap_raises(grid65, params_half, monkeypatch):
    monkeypatch.setattr(operator, "RESIDUAL_REL_TOL", 0.0)
    f = np.random.default_rng(5).standard_normal(grid65.n_omega)
    with pytest.raises(SingularOperatorError,
                       match=rf"relative residual .* after {grid65.n_omega} conjugate-gradient "
                             "iterations exceeds 0"):
        solve_dirichlet(f, params_half, grid65)


def test_residual_of_zero_guess(grid65, params_half):
    zero = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    assert residual_check(zero, np.ones(grid65.n_omega), params_half) == pytest.approx(1.0)


def test_residual_grows_with_point_perturbation(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half)
    f = np.ones(grid65.n_omega)
    u = solve_dirichlet(f, params_half, grid65, matrix=A)
    eps = 1e-3
    j = grid65.n_omega // 3
    bumped = u.values[grid65.mask]
    bumped[j] += eps
    res = residual_check(extend_by_zero(bumped, grid65), f, params_half)
    assert res >= eps * A.matrix[j, j] * 0.99


def test_maximum_principle_and_comparison(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f1 = np.abs(rng.standard_normal(grid65.n_omega))
        u1 = solve_dirichlet(f1, params_half, grid65, matrix=A)
        assert u1.values[grid65.mask].min() >= -1e-12
        f2 = f1 + np.abs(rng.standard_normal(grid65.n_omega))
        u2 = solve_dirichlet(f2, params_half, grid65, matrix=A)
        assert (u2.values - u1.values)[grid65.mask].min() >= -1e-12


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_boundary_profile_tracks_rho_to_the_s(s):
    grid = build_grid(1, ((-2.0, 2.0),), 257, Ball((0.0,), 1.0))
    u = solve_dirichlet(np.ones(grid.n_omega), FractionalParams(1, s), grid)
    x = grid.axes[0]
    inner_half = grid.mask & (np.abs(x) <= 0.5)
    ratio = u.values[inner_half] / grid.rho[inner_half] ** s
    normalized = ratio / np.median(ratio)
    assert normalized.min() >= 0.5
    assert normalized.max() <= 2.0


def test_2d_solve_matches_getoor():
    grid = build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 33, Ball((0.0, 0.0), 1.0))
    s = 0.5
    u = solve_dirichlet(np.ones(grid.n_omega), FractionalParams(2, s), grid)
    lam = 2.0 ** (2 * s) * math.gamma(1 + s) ** 2
    pts = grid.nodes()
    r2 = (pts ** 2).sum(axis=1).reshape(grid.shape)
    exact = np.clip(1 - r2, 0, None) ** s / lam
    inner = r2 <= 0.25
    rel = np.abs(u.values[inner] - exact[inner]) / exact[inner]
    assert rel.max() < 0.01


def test_2d_solve_past_the_dense_cap():
    grid = build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 161, Ball((0.0, 0.0), 1.0))
    assert grid.n_omega > DEFAULT_DENSE_CAP
    params = FractionalParams(2, 0.5)
    A = assemble_operator_matrix(grid, params)
    f = np.ones(grid.n_omega)
    u = solve_dirichlet(f, params, grid, matrix=A)
    assert residual_check(u, f, params) <= 1e-10
    with pytest.raises(MemoryBudgetError):
        A.matrix
