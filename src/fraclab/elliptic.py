"""Matrix-free solve of the exterior-zero Dirichlet problem on Omega."""

from __future__ import annotations

import numpy as np

from .errors import FracLabError, LengthMismatchError
from .gridfn import GridFunction, extend_by_zero
from .operator import apply_fractional_laplacian, assemble_operator_matrix


def _rhs_on_omega(f, grid):
    """f as a float vector on the Omega nodes, from a GridFunction, box values or Omega values.

    Raises LengthMismatchError unless that gives one value per Omega node,
    and FracLabError if any of them is inf or nan.
    """
    if isinstance(f, GridFunction):
        vec = f.values[grid.mask].astype(float)
    else:
        arr = np.asarray(f, float)
        vec = arr[grid.mask] if arr.shape == grid.shape else arr.ravel()
    if vec.size != grid.n_omega:
        raise LengthMismatchError(f"got {vec.size} values for {grid.n_omega} Omega nodes")
    bad = vec.size - int(np.isfinite(vec).sum())
    if bad:
        raise FracLabError(f"{bad} of {vec.size} Omega values are not finite (inf or nan)")
    return vec


def _operator(matrix, params, grid):
    """matrix, checked to be the operator of (grid, params), or a new one if it is None."""
    if matrix is None:
        return assemble_operator_matrix(grid, params)
    if matrix.grid is not grid or matrix.params != params:
        raise ValueError("matrix was built for another grid or params")
    return matrix


def solve_dirichlet(f, params, grid, matrix=None):
    """Exterior-zero solution of the restricted system A u = f on Omega.

    OperatorMatrix.solve: conjugate gradients with the windowed FFT apply
    and the windowed circulant preconditioner on Omega's bounding box, to
    a residual of 1e-10 relative to ||f||_inf
    (operator.RESIDUAL_REL_TOL).  No dense matrix is gathered
    or decomposed, so the solve has no size cap; SingularOperatorError
    reports the residual reached if the iteration cap is hit.
    All grid data are finite-energy, so low-integrability sources take
    the same path: the p < 2 distinction only matters for which norms a
    probe inspects afterwards, not for the solve.
    """
    matrix = _operator(matrix, params, grid)
    return extend_by_zero(matrix.solve(_rhs_on_omega(f, grid)), grid)


def residual_check(u, f, params):
    """Max over Omega nodes of |(-Delta)^s u - f|."""
    grid = u.grid
    image = apply_fractional_laplacian(u, params)
    rhs = _rhs_on_omega(f, grid)
    return float(np.abs(image.values[grid.mask] - rhs).max())
