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
cross-checks.  A spectrum is computed once per (kernel, Omega mask, h) in
a process and kept with the kernel, as transforms are, so a second
operator on an equal grid with equal s reads it without gathering its
matrix; at worst that keeps one m x m Q plus lam per key for as long as
the toeplitz_operator entry lives.  Since t(kappa) = t(-kappa) exactly,
the restricted matrix is exactly symmetric with the M-matrix sign
pattern: positive diagonal, nonpositive off-diagonal, and a strictly
positive action on the all-ones vector.  That structure carries the
discrete maximum principle used by the solvers and semigroup tests.

`spectrum` uses Omega's mirror symmetry.  A reflection of the grid box
about its centre along an axis whose mask, d and t equal their flips bit
for bit commutes with A.  A centred interval has one such axis, a
centred disc or box has both (four products of reflections), a 2D box
centred in x alone has one.  In the basis of signed sums over each
node's orbit under these reflections A is block diagonal, with one block
per character of the group G they generate, and each block, of about
m/|G| rows, takes its own eigh.  An Omega with no mirror axis, such as an
off-centre interval, has G trivial: one block, the whole matrix, and one
eigh of it.

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
_GATHER_ROWS = 64  # rows gathered per step: of the dense matrix, of Q


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


Toeplitz = namedtuple("Toeplitz", "t d near transforms spectra")
Window = namedtuple("Window", "mask t_hat shape d inverse_symbol")


@lru_cache(maxsize=16)
def toeplitz_operator(ndim, n, s):
    """Kernel t (offsets |k| <= n - 1 per axis) and diagonal d, at unit spacing.

    The one kernel cache: every grid with this (ndim, n, s) shares the
    entry, whatever its box, and FractionalParams.scale(h) supplies the
    normalization and the spacing.  t and d include the near-field
    stencil, whose weight per unit offset is `near`.  No transform or
    spectrum is built here: kernel_transform fills `transforms` and
    OperatorMatrix.spectrum fills `spectra` on first use.
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
    return Toeplitz(t, d, kernel.near, {}, {})


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
    first access to `matrix`, or to a `spectrum` that the kernel does not
    keep yet, which raise MemoryBudgetError above DEFAULT_DENSE_CAP Omega
    nodes.
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

        Read-only, and shared by every function of A the time steppers
        take, such as (I + c A)^(-1) for any c.  Q is column-major.  A is a
        function of the kernel, the Omega mask and the scale C h^(-2s)
        alone, so the pair is computed once per (class, mask, scale) and
        kept with the kernel in kernel.spectra, as kernel_transform keeps
        transforms: every operator of an equal grid and s reads it without
        gathering `matrix`, and a subclass that defines its own `matrix`
        keeps its own.  Each key holds one m x m Q and lam for as long as
        the toeplitz_operator entry lives.  A is decomposed in parity blocks
        under the reflections of Omega's mirror axes (_mirror_axes,
        _parity_eigh), one eigh each, and the eigenvalues merged in
        ascending order.  With no mirror axis the one block is a copy of
        the whole matrix, so lam and Q equal a plain eigh of it bit for
        bit.  A failed eigh of any block raises SingularOperatorError and
        keeps nothing.
        """
        grid, spectra = self.grid, self.kernel.spectra
        key = (type(self), grid.mask.tobytes(), self.params.scale(grid.h))
        if key not in spectra:
            try:
                lam, vecs = _parity_eigh(self.matrix, grid.mask, _mirror_axes(grid, self.kernel))
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(
                    f"operator eigendecomposition failed: {exc}") from exc
            lam.setflags(write=False)
            vecs.setflags(write=False)
            spectra[key] = (lam, vecs)
        return spectra[key]

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


def _mirror_axes(grid, op):
    """Axes whose reflection about the box centre maps A to itself exactly.

    Reflecting axis a sends node x to R x, with x_a -> n - 1 - x_a, and
    A[R x, R y] = A[x, y] for all Omega nodes when the mask, d and t (the
    last as a function of the offset y - x) equal their flips in axis a.
    """
    return tuple(axis for axis in range(grid.ndim)
                 if all(np.array_equal(part, np.flip(part, axis))
                        for part in (grid.mask, op.d, op.t)))


def _parity_eigh(mat, mask, axes):
    """eigh of A in parity blocks: one block per character of the group of the axes' reflections.

    The group G holds the 2^len(axes) products of the reflections
    (bitmask g), its characters are chi_c(g) = (-1)^popcount(c & g), and
    A commutes with G.  For the node orbits O (representative: the
    orbit's first node in mask order) on which chi_c is 1 on the
    stabiliser, the vectors sum_{y in O} chi_c(y) e_y / sqrt|O| are
    orthonormal and span the chi_c-block, where A reads
    B[a, b] = sum_g chi_c(g) A[rep_a, g rep_b] / sqrt(|Stab_a| |Stab_b|)
    (Fassler & Stiefel 1992; for one reflection the even/odd split of
    Cantoni & Butler 1976).  The blocks' sizes add up to m.  Each eigh
    of a block gives the columns Q[x, j] = chi_c(x) W[orbit(x), j] / sqrt|O_x|,
    and a stable sort merges the eigenvalues.  Returns (lam, Q) with Q
    column-major.
    """
    n, order = mask.shape[0], 1 << len(axes)
    nodes = np.argwhere(mask)
    m = len(nodes)
    index = np.zeros(mask.shape, np.intp)
    index[mask] = np.arange(m)
    images = np.empty((order, m), np.intp)  # images[g, x]: node x reflected by g
    for g in range(order):
        image = nodes.copy()
        for bit, axis in enumerate(axes):
            if g >> bit & 1:
                image[:, axis] = n - 1 - image[:, axis]
        images[g] = index[tuple(image.T)]
    first = images.min(axis=0)
    reps = np.flatnonzero(first == np.arange(m))
    orbit = np.searchsorted(reps, first)
    coords, bits = nodes[:, list(axes)], 1 << np.arange(len(axes))
    fixed = (2 * coords[reps] == n - 1) @ bits  # per orbit: the reflections that fix it
    moved = (coords != coords[reps][orbit]) @ bits  # per node: the reflections from its rep
    popcount = np.array([bin(g).count("1") for g in range(order)])
    odd, stab = popcount & 1, 2.0 ** popcount[fixed]  # stab: the stabiliser's size per orbit
    blocks = [mat[np.ix_(reps, images[g, reps])] for g in range(order)]
    span = 1
    while span < order:  # Walsh-Hadamard butterflies: blocks[c] = sum_g chi_c(g) A[reps, g reps]
        for lo in range(order):
            if not lo & span:
                blocks[lo], blocks[lo | span] = (blocks[lo] + blocks[lo | span],
                                                 blocks[lo] - blocks[lo | span])
        span *= 2
    lams, columns = [], []
    for c in range(order):
        keep = (fixed & c) == 0
        block = blocks[c] if keep.all() else blocks[c][np.ix_(keep, keep)]
        blocks[c] = None
        scale = 1.0 / np.sqrt(stab[keep])
        on_mirror = scale != 1.0
        block[on_mirror] *= scale[on_mirror, None]
        block[:, on_mirror] *= scale[on_mirror]
        lam, vecs = np.linalg.eigh(block)
        # a node of an orbit outside this block takes coefficient 0 (its row is clipped below)
        coef = np.where(keep[orbit], 1.0 - 2.0 * odd[c & moved], 0.0) * np.sqrt(stab[orbit] / order)
        lams.append(lam)
        columns.append((np.ascontiguousarray(vecs.T), coef, (np.cumsum(keep) - 1)[orbit]))
    del block, vecs  # the last block and its eigenvectors, before Q is allocated
    lam = np.concatenate(lams)
    ascending = np.argsort(lam, kind="stable")
    place = np.empty(m, np.intp)
    place[ascending] = np.arange(m)
    Q = np.empty((m, m), order="F")
    buffer = np.empty((_GATHER_ROWS, m))
    start = 0
    for vectors, coef, row in columns:  # one eigenvector of the block per row
        for lo in range(0, len(vectors), _GATHER_ROWS):
            chunk = vectors[lo: lo + _GATHER_ROWS]
            part = np.take(chunk, row, axis=1, out=buffer[:len(chunk)], mode="clip")
            part *= coef
            Q.T[place[start: start + len(part)]] = part  # rows of Q.T are Q's columns
            start += len(part)
    return lam[ascending], Q


def assemble_operator_matrix(grid, params):
    """The operator A with A (u|Omega) = apply(extend_by_zero(u))|Omega.

    Builds the kernel now; the dense matrix waits for its first use, and
    raises MemoryBudgetError there above DEFAULT_DENSE_CAP Omega nodes.
    """
    return OperatorMatrix(grid, params)
