"""Pointwise fractional Laplacian and its restriction to Omega.

The quadrature module writes the operator on the grid box as one
Toeplitz kernel plus a diagonal,

  (A u)_i = C h^(-2s) (d_i u_i - sum_{j != i} t(j - i) u_j),

with d and t built from nonnegative weights once per (ndim, n, s) at
unit spacing, scaled by h^(-2s) (FractionalParams.scale).  Every FFT
product with t takes its transform from kernel_transform: for a box of
extent b per axis, t cut to the offsets |k| <= b - 1 and transformed at
next_fast_len(2b - 1), built on first use per extent and kept with the
kernel.  apply_fractional_laplacian evaluates the operator at every box
node with one such convolution on the grid box.  assemble_operator_matrix
returns the operator restricted to Omega (OperatorMatrix): every product
with it is apply(), the same convolution on Omega's bounding box, and
solve() runs conjugate gradients on apply() with the circulant of that
box's transform as preconditioner, so it never builds the grid-box
transform.  Its dense matrix is gathered from d and t onto Omega pairs
only when first read, by `spectrum`, the one symmetric eigendecomposition
of A that the time steppers use for every step size, and by the dense
cross-checks.  Since t(kappa) = t(-kappa) exactly, the restricted matrix
is exactly symmetric with the M-matrix sign pattern: positive diagonal,
nonpositive off-diagonal, and a strictly positive action on the
all-ones vector.  That structure carries the discrete maximum principle
used by the solvers and semigroup tests.

The FFTs are numpy.fft's real transforms, on one thread, at 5-smooth
lengths (next_fast_len).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import MemoryBudgetError, SingularOperatorError
from .gridfn import Grid, GridFunction
from .quadrature import sweep_1d, sweep_2d

DEFAULT_DENSE_CAP = 4500  # max Omega nodes for a dense matrix
RESIDUAL_REL_TOL = 1e-10  # solve(): max-norm residual relative to the rhs
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


Toeplitz = namedtuple("Toeplitz", "t d near transforms")
Window = namedtuple("Window", "mask t_hat shape d inverse_symbol")


@lru_cache(maxsize=16)
def toeplitz_operator(ndim, n, s):
    """Kernel t (offsets |k| <= n - 1 per axis) and diagonal d, at unit spacing.

    The one kernel cache: every grid with this (ndim, n, s) shares the
    entry, whatever its box, and FractionalParams.scale(h) supplies the
    normalization and the spacing.  t and d include the near-field
    stencil, whose weight per unit offset is `near`.  No transform is
    built here: kernel_transform fills `transforms` on first use.
    """
    kernel = (sweep_1d if ndim == 1 else sweep_2d)(n, s)
    t, d = kernel.far, kernel.diag + 2 * ndim * kernel.near
    for axis in range(ndim):
        for step in (-1, 1):
            unit = [n - 1] * ndim
            unit[axis] += step
            t[tuple(unit)] += kernel.near
    for part in (t, d):
        part.setflags(write=False)
    return Toeplitz(t, d, kernel.near, {})


def next_fast_len(n):
    """Smallest 2^a 3^b 5^c >= n: a length that the real FFT handles fast."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def kernel_transform(op, extents):
    """(t_hat, shape): the real FFT of op's kernel for products on a box of these extents.

    A product on a box of extent b per axis reads t only at offsets
    |k| <= b - 1.  That cut goes to index k mod shape, with shape
    next_fast_len(2b - 1) per axis, so the circulant product holds the
    linear convolution without wrap-around.  Built on first use per
    extent tuple and kept with the kernel in op.transforms.
    """
    if extents not in op.transforms:
        n = (op.t.shape[0] + 1) // 2
        shape = tuple(next_fast_len(2 * b - 1) for b in extents)
        wrapped = np.zeros(shape)
        wrapped[np.ix_(*[np.arange(1 - b, b) % L for b, L in zip(extents, shape)])] = \
            op.t[tuple(slice(n - b, n - 1 + b) for b in extents)]
        t_hat = np.fft.rfftn(wrapped, axes=range(len(shape)))
        t_hat.setflags(write=False)
        op.transforms[extents] = (t_hat, shape)
    return op.transforms[extents]


def _circulant(values, symbol, shape):
    """Product with the circulant of this symbol on values padded to `shape`, cut back."""
    axes = range(len(shape))
    full = np.fft.irfftn(np.fft.rfftn(values, shape, axes) * symbol, shape, axes)
    return full[tuple(slice(0, n) for n in values.shape)]


def convolve(op, values):
    """sum_j t(j - i) values_j at every node i of the box that values fill, for op's kernel t."""
    return _circulant(values, *kernel_transform(op, values.shape))


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
    """The operator restricted to Omega nodes (mask order).

    The kernel comes from toeplitz_operator when the operator is made.
    apply() and solve() work from its transform on Omega's bounding box
    alone (`window`); the dense matrix is gathered from the kernel only on
    first access to `matrix` or `spectrum`, which raise MemoryBudgetError
    above DEFAULT_DENSE_CAP Omega nodes.
    """

    grid: Grid
    params: FractionalParams
    kernel: Toeplitz = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.grid
        object.__setattr__(self, "kernel", toeplitz_operator(grid.ndim, grid.n, self.params.s))

    @cached_property
    def matrix(self):
        """Dense m x m matrix, gathered from the kernel on first access.

        The entries are the kernel and diagonal of apply(), so the two
        agree to rounding.
        """
        grid, op = self.grid, self.kernel
        m = grid.n_omega
        if m > DEFAULT_DENSE_CAP:
            raise MemoryBudgetError(
                f"{m} Omega nodes exceed the dense cap of {DEFAULT_DENSE_CAP}")
        n, C = grid.n, self.params.scale(grid.h)
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
        mat.setflags(write=False)
        return mat

    @cached_property
    def window(self):
        """The kernel transform on Omega's bounding box, built on first use.

        Holds the box's Omega mask, kernel_transform's t_hat and shape for
        that box's extents, d on Omega, and the inverse of the windowed
        circulant preconditioner symbol C (max d - t_hat).  That symbol
        is positive when max d exceeds the window's kernel sum, its
        largest t_hat; SingularOperatorError reports its minimum if not.
        """
        grid = self.grid
        nodes = np.argwhere(grid.mask)
        mask = grid.mask[tuple(slice(lo, hi + 1)
                               for lo, hi in zip(nodes.min(axis=0), nodes.max(axis=0)))]
        t_hat, shape = kernel_transform(self.kernel, mask.shape)
        d = self.kernel.d[grid.mask]
        symbol = self.params.scale(grid.h) * (d.max() - t_hat.real)
        if not symbol.min() > 0.0:
            raise SingularOperatorError(
                f"windowed circulant preconditioner symbol has minimum {symbol.min():.3e} <= 0")
        inverse_symbol = 1.0 / symbol
        for part in (d, inverse_symbol):
            part.setflags(write=False)
        return Window(mask, t_hat, shape, d, inverse_symbol)

    def _circulant(self, vec, symbol):
        """Circulant product of an Omega vector on Omega's bounding box, restricted to Omega."""
        win = self.window
        box = np.zeros(win.mask.shape)
        box[win.mask] = vec
        return _circulant(box, symbol, win.shape)[win.mask]

    def apply(self, vec):
        """A vec for an Omega vector, by one windowed FFT convolution; no dense matrix is read."""
        win = self.window
        C = self.params.scale(self.grid.h)
        return C * (win.d * vec - self._circulant(vec, win.t_hat))

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues lam and orthonormal eigenvectors Q: A = Q diag(lam) Q^T.

        Read-only, computed on first access and shared by every function of A
        the time steppers take, such as (I + c A)^(-1) for any c.
        """
        try:
            lam, vecs = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(f"operator eigendecomposition failed: {exc}") from exc
        vecs = np.asfortranarray(vecs)  # column-major, as LAPACK writes it: BLAS rounds by layout
        lam.setflags(write=False)
        vecs.setflags(write=False)
        return lam, vecs

    def solve(self, rhs):
        """Solution x of A x = rhs by preconditioned conjugate gradients.

        A is applied by apply(); the preconditioner is the inverse of the
        windowed circulant C (max d - t) on Omega's bounding box, max d
        taken over Omega and t cut to the box's offsets, applied by FFT and
        restricted to Omega (T. Chan 1988; Chan & Ng 1996).  It is
        symmetric positive definite: d_i weighs node i against all of R^N,
        box and closed-form tail, so it exceeds the kernel's sum over the
        window, the largest value of t_hat (checked when `window` is
        built).  Iterates until the true residual is at most RESIDUAL_REL_TOL
        ||rhs||_inf; CG ends within m steps in exact arithmetic, so after m
        steps SingularOperatorError reports the residual reached.  No dense
        matrix is gathered.
        """
        apply, inverse_symbol = self.apply, self.window.inverse_symbol
        m = self.grid.n_omega
        rhs = np.asarray(rhs, float)
        scale = max(np.abs(rhs).max(initial=0.0), 1e-300)
        sol = np.zeros(m)
        res = rhs.copy()
        direction, rz = None, 0.0
        for step in range(m + 1):
            if np.abs(res).max(initial=0.0) <= RESIDUAL_REL_TOL * scale:
                res = rhs - apply(sol)
                if np.abs(res).max(initial=0.0) <= RESIDUAL_REL_TOL * scale:
                    return sol
                direction = None  # restart from the true residual
            if step == m:
                break
            z = self._circulant(res, inverse_symbol)
            rz_next = float(res @ z)
            direction = z if direction is None else z + (rz_next / rz) * direction
            rz = rz_next
            image = apply(direction)
            alpha = rz / float(direction @ image)
            sol += alpha * direction
            res -= alpha * image
        reached = np.abs(rhs - apply(sol)).max(initial=0.0) / scale
        raise SingularOperatorError(
            f"relative residual {reached:.3e} after {m} conjugate-gradient iterations "
            f"exceeds {RESIDUAL_REL_TOL:g}")


def assemble_operator_matrix(grid, params):
    """The operator A with A (u|Omega) = apply(extend_by_zero(u))|Omega.

    Builds the kernel now; the dense matrix waits for its first use, and
    raises MemoryBudgetError there above DEFAULT_DENSE_CAP Omega nodes.
    """
    return OperatorMatrix(grid, params)
