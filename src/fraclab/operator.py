"""Pointwise fractional Laplacian and its Dirichlet-restricted matrix.

The quadrature module writes the operator on the grid box as one
Toeplitz kernel plus a diagonal,

  (A u)_i = C h^(-2s) (d_i u_i - sum_{j != i} t(j - i) u_j),

with d and t built from nonnegative weights once per (ndim, n, s) at
unit spacing, scaled by h^(-2s) (FractionalParams.scale).
apply_fractional_laplacian evaluates it at every box node with one real
FFT convolution; assemble_operator_matrix gathers d and t onto Omega
pairs.  Since t(kappa) = t(-kappa) exactly, the restricted matrix is
exactly symmetric with the M-matrix sign pattern: positive diagonal,
nonpositive off-diagonal, and a strictly positive action on the
all-ones vector.  That structure carries the discrete maximum principle
used by the solvers and semigroup tests.

The FFTs run on scipy.fft's worker count (scipy.fft.set_workers); the
results do not depend on it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import MemoryBudgetError, SingularOperatorError
from .gridfn import Grid, GridFunction
from .quadrature import sweep_1d, sweep_2d

DEFAULT_DENSE_CAP = 4500  # max Omega nodes for a dense matrix
_GATHER_ROWS = 64  # dense rows gathered per block


def normalization_constant(ndim, s):
    """Normalization of the singular-integral operator.

    s * 4^s * Gamma(s + ndim/2) / (pi^(ndim/2) * Gamma(1 - s)).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if ndim < 1 or ndim != int(ndim):
        raise ValueError(f"dimension must be a positive integer, got {ndim}")
    return (
        s * 2.0 ** (2 * s) * math.gamma((2 * s + ndim) / 2.0)
        / (math.pi ** (ndim / 2.0) * math.gamma(1.0 - s))
    )


@dataclass(frozen=True)
class FractionalParams:
    ndim: int
    s: float
    cns: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cns", normalization_constant(self.ndim, self.s))

    def scale(self, h):
        """C h^(-2s): the factor of the unit-spacing kernel on a lattice of spacing h."""
        return self.cns * h ** (-2 * self.s)


Toeplitz = namedtuple("Toeplitz", "t d t_hat size near")


@lru_cache(maxsize=16)
def toeplitz_operator(ndim, n, s):
    """Kernel t, diagonal d and the size-point real FFT t_hat of t, at unit spacing.

    The one kernel cache: every grid with this (ndim, n, s) shares the
    entry, whatever its box, and FractionalParams.scale(h) supplies the
    normalization and the spacing.  t and d include the near-field
    stencil, whose weight per unit offset is `near`.
    """
    kernel = (sweep_1d if ndim == 1 else sweep_2d)(n, s)
    t, d = kernel.far, kernel.diag + 2 * ndim * kernel.near
    for axis in range(ndim):
        for step in (-1, 1):
            unit = [n - 1] * ndim
            unit[axis] += step
            t[tuple(unit)] += kernel.near
    # t(k) goes to index k mod L: no wrap-around for offsets |k| <= n-1
    size = scipy.fft.next_fast_len(2 * n - 1, real=True)
    wrapped = np.zeros((size,) * ndim)
    wrapped[np.ix_(*[np.arange(1 - n, n) % size] * ndim)] = t
    t_hat = scipy.fft.rfftn(wrapped)
    for part in (t, d, t_hat):
        part.setflags(write=False)
    return Toeplitz(t, d, t_hat, size, kernel.near)


def convolve(op, values):
    """sum_j t(j - i) values_j at every box node i, for the kernel t of op."""
    size = (op.size,) * values.ndim
    full = scipy.fft.irfftn(scipy.fft.rfftn(values, size) * op.t_hat, size)
    return full[tuple(slice(0, n) for n in values.shape)]


def apply_fractional_laplacian(u, params):
    """Evaluate the operator at every grid node of an exterior-zero function.

    Splits the principal value at radius h: the near field uses the
    second-difference Taylor correction with moment h^(2-2s)/(2-2s), the
    far field integrates the weighted second difference cell-exactly, and
    the part beyond the box is evaluated in closed form against the zero
    extension.
    """
    if not isinstance(u, GridFunction):
        raise TypeError("u must be a GridFunction")
    if not u.dirichlet:
        raise ValueError("u must be exterior-zero (Dirichlet-extended)")
    if params.ndim != u.grid.ndim:
        raise ValueError("params dimension does not match the grid")
    grid = u.grid
    op = toeplitz_operator(grid.ndim, grid.n, params.s)
    return GridFunction(grid, params.scale(grid.h) * (op.d * u.values - convolve(op, u.values)))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator restricted to Omega nodes (mask order)."""

    grid: Grid
    params: object
    matrix: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def h(self):
        return self.grid.h

    def apply_to_omega(self, vec):
        return self.matrix @ np.asarray(vec, float)

    def bilinear(self, v, w):
        """Discrete energy pairing sum v . (A w) h^N."""
        return float(np.dot(v, self.matrix @ w)) * self.h ** self.grid.ndim

    def factor(self, c=None):
        """Upper Cholesky factor of A (c None) or of I + c A, built once per c.

        Every solver reaches the factorization through here, so a matrix
        shared by several solves or semigroup steps is factored once per
        shift.  The factors live and die with this matrix.  I + c A is
        formed in one Fortran-ordered buffer that LAPACK factors in place.
        """
        cho = self._factors.get(c)
        if cho is None:
            if c is None:
                shifted = self.matrix
            else:
                shifted = np.multiply(self.matrix, c, order="F")
                shifted[np.diag_indices_from(shifted)] += 1.0
            try:
                cho = scipy.linalg.cho_factor(shifted, lower=False, overwrite_a=c is not None,
                                              check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise SingularOperatorError(f"operator factorization failed: {exc}") from exc
            cho[0].setflags(write=False)
            self._factors[c] = cho
        return cho


def assemble_operator_matrix(grid, params, dense_cap=DEFAULT_DENSE_CAP):
    """Dense matrix A with A (u|Omega) = apply(extend_by_zero(u))|Omega.

    Entries are gathered from the same kernel and diagonal as the
    matrix-free path, so the two agree to rounding.  Raises
    MemoryBudgetError above dense_cap Omega nodes.
    """
    m = grid.n_omega
    if m > dense_cap:
        raise MemoryBudgetError(
            f"{m} Omega nodes exceed the dense cap of {dense_cap}; "
            "raise dense_cap explicitly if this size is intended")
    n, C = grid.n, params.scale(grid.h)
    op = toeplitz_operator(grid.ndim, n, params.s)
    # flat index into t of offset j - i is key[j] - key[i] + key of offset 0
    strides = (2 * n - 1) ** np.arange(grid.ndim - 1, -1, -1)
    key = np.argwhere(grid.mask) @ strides
    center = (n - 1) * int(strides.sum())
    coef = -C * op.t.ravel()
    mat = np.empty((m, m))
    for r0 in range(0, m, _GATHER_ROWS):
        rows = key[r0: r0 + _GATHER_ROWS, None]
        np.take(coef, key - rows + center, out=mat[r0: r0 + len(rows)])
    mat[np.diag_indices(m)] = C * op.d[grid.mask]
    return OperatorMatrix(grid, params, mat)
