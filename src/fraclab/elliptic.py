"""Matrix-free solve of the exterior-zero Dirichlet problem on Omega."""

from __future__ import annotations

import numpy as np

from .gridfn import GridFunction, extend_by_zero
from .operator import apply_fractional_laplacian, assemble_operator_matrix


def _rhs_on_omega(f, grid):
    if isinstance(f, GridFunction):
        return f.values[grid.mask].astype(float)
    arr = np.asarray(f, float)
    if arr.shape == grid.shape:
        return arr[grid.mask]
    return arr.ravel()


def solve_dirichlet(f, params, grid, matrix=None):
    """Exterior-zero solution of the restricted system A u = f on Omega.

    OperatorMatrix.solve: conjugate gradients with the FFT apply and the
    box-circulant preconditioner, to a residual of 1e-10 relative to
    ||f||_inf (operator.RESIDUAL_REL_TOL).  No dense matrix is gathered
    or factored, so the solve has no size cap; SingularOperatorError
    reports the residual reached if the iteration cap is hit.
    All grid data are finite-energy, so low-integrability sources take
    the same path: the p < 2 distinction only matters for which norms a
    probe inspects afterwards, not for the solve.
    """
    if matrix is None:
        matrix = assemble_operator_matrix(grid, params)
    rhs = _rhs_on_omega(f, grid)
    if rhs.size != grid.n_omega:
        raise ValueError(f"rhs has {rhs.size} entries for {grid.n_omega} Omega nodes")
    return extend_by_zero(matrix.solve(rhs), grid)


def residual_check(u, f, params):
    """Max over Omega nodes of |(-Delta)^s u - f|."""
    grid = u.grid
    image = apply_fractional_laplacian(u, params)
    rhs = _rhs_on_omega(f, grid)
    return float(np.abs(image.values[grid.mask] - rhs).max())
