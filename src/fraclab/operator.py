"""Pointwise fractional Laplacian and its restriction to Omega.

The quadrature module writes the operator on the grid box as one
Toeplitz kernel plus a diagonal,

  (A u)_i = C h^(-2s) (d_i u_i - sum_{j != i} t(j - i) u_j),

with d and t built from nonnegative weights once per (ndim, n, s) at
unit spacing, scaled by h^(-2s) (FractionalParams.scale).  Every FFT
product with t takes its transform from kernel_transform: for a box of
extent b per axis, t cut to the offsets |k| <= b - 1 and transformed at
next_fast_len(2b - 1), built on first use per extent and kept with the
kernel.  Every image, on the box or on Omega, is C h^(-2s) times
_image, d v - t * v given the convolution t * v.
apply_fractional_laplacian evaluates it at every box node with one
convolution on the grid box, after the operand checks of _kernel_for,
which remainder_Is shares.  assemble_operator_matrix returns the
operator restricted to Omega (OperatorMatrix): every product with it is
apply(), the same convolution on Omega's bounding box, and solve() runs
conjugate gradients on apply() with the circulant of that box's
transform as preconditioner, so it never builds the grid-box transform.
Its entries are gathered from d and t onto Omega pairs by one private
gather, read by `matrix`, the dense m x m matrix that only the dense
cross-checks read, and by `spectrum`, the one symmetric
eigendecomposition of A that the time steppers use for every step size,
kept with the kernel per (Omega mask, h), as transforms are, for as long
as the toeplitz_operator entry lives.  Since t(kappa) = t(-kappa)
exactly, the restricted matrix is exactly symmetric with the M-matrix
sign pattern: positive diagonal, nonpositive off-diagonal, and a
strictly positive action on the all-ones vector.  That structure
carries the discrete maximum principle used by the solvers and
semigroup tests.

`spectrum` uses Omega's mirror symmetry: a reflection of the grid box
about its centre along an axis whose mask, d and t equal their flips bit
for bit commutes with A (a centred interval has one such axis, a
centred disc both, an off-centre interval none).  A is block diagonal in
the signed orbit sums under the group G these reflections generate, one
block of about m/|G| rows per character, and each block takes its own
eigh (_parity_eigh).  The basis stays in those blocks (Eigenbasis): Q is
never formed, and a product with Q or Q^T costs about m^2 / |G| per row.

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

DEFAULT_DENSE_CAP = 4500  # max Omega nodes for eigh and the dense cross-checks
RESIDUAL_REL_TOL = 1e-10  # solve(): max-norm residual relative to the rhs
_GATHER_ROWS = 64  # rows of A's entries gathered, or of a butterfly formed, per step


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


def _image(d, values, conv):
    """d values - conv: the operator at unit spacing on values, given conv = t * values."""
    return d * values - conv


def _kernel_for(u, params):
    """The toeplitz_operator entry for an operand u: an exterior-zero GridFunction whose
    grid has params' dimension (TypeError, ValueError otherwise)."""
    if not isinstance(u, GridFunction):
        raise TypeError("u must be a GridFunction")
    if not u.dirichlet:
        raise ValueError("u must be exterior-zero (Dirichlet-extended)")
    return _grid_kernel(u.grid, params)


def _grid_kernel(grid, params):
    """The toeplitz_operator entry for params on grid (ValueError if their dimensions differ)."""
    if params.ndim != grid.ndim:
        raise ValueError("params dimension does not match the grid")
    return toeplitz_operator(grid.ndim, grid.n, params.s)


def apply_fractional_laplacian(u, params):
    """Evaluate the operator at every grid node of an exterior-zero function.

    Splits the principal value at radius h: the near field uses the
    second-difference Taylor correction with moment h^(2-2s)/(2-2s), the
    far field integrates the weighted second difference cell-exactly, and
    the part beyond the box is evaluated in closed form against the zero
    extension.
    """
    op, grid = _kernel_for(u, params), u.grid
    return GridFunction(grid, params.scale(grid.h) * _image(op.d, u.values, convolve(op, u.values)))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """The operator restricted to Omega nodes (mask order).

    The kernel comes from toeplitz_operator when the operator is made.
    apply() and solve() work from its transform on Omega's bounding box
    alone (`window`).  A's entries are gathered from the kernel (_entries)
    only on first access to `matrix`, the dense matrix, or to a `spectrum`
    that the kernel does not keep yet, which gathers its parity blocks;
    both raise MemoryBudgetError above DEFAULT_DENSE_CAP Omega nodes.
    """

    grid: Grid
    params: FractionalParams
    kernel: Toeplitz = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _grid_kernel(self.grid, self.params))

    def _check_dense_cap(self):
        m = self.grid.n_omega
        if m > DEFAULT_DENSE_CAP:
            raise MemoryBudgetError(
                f"{m} Omega nodes exceed the dense cap of {DEFAULT_DENSE_CAP}")

    def _entries(self, rows, cols):
        """A[rows][:, cols] for arrays of Omega indices, cols without repeats.

        The one gather of A's entries, which `matrix` and `spectrum` read:
        -C t(x_j - x_i) off the diagonal and C d(x_i) on it, the kernel and
        diagonal of apply(), so the two agree to rounding.
        """
        grid, op = self.grid, self.kernel
        n, C = grid.n, self.params.scale(grid.h)
        # flat index into t of offset j - i is key[j] - key[i] + key of offset 0
        strides = (2 * n - 1) ** np.arange(grid.ndim - 1, -1, -1)
        key = np.argwhere(grid.mask) @ strides
        col_key = key[cols] + (n - 1) * int(strides.sum())
        coef = -C * op.t.ravel()
        out = np.empty((len(rows), len(cols)))
        for r0 in range(0, len(rows), _GATHER_ROWS):
            chunk = key[rows[r0: r0 + _GATHER_ROWS], None]
            np.take(coef, col_key - chunk, out=out[r0: r0 + len(chunk)])
        column = np.full(len(key), -1)
        column[cols] = np.arange(len(cols))
        on_diagonal = np.flatnonzero(column[rows] >= 0)
        out[on_diagonal, column[rows[on_diagonal]]] = C * op.d[grid.mask][rows[on_diagonal]]
        return out

    @cached_property
    def matrix(self):
        """Dense m x m matrix, gathered from the kernel on first access; the dense cross-checks
        read it, the time steppers never do."""
        self._check_dense_cap()
        everything = np.arange(self.grid.n_omega)
        mat = self._entries(everything, everything)
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
        return C * _image(win.d, vec, self._circulant(vec, win.t_hat))

    @cached_property
    def spectrum(self):
        """The Eigenbasis of A = Q diag(lam) Q^T, kept in its parity blocks.

        Read-only, and shared by every function of A the time steppers
        take, such as (I + c A)^(-1) for any c.  A is a function of the
        kernel, the Omega mask and the scale C h^(-2s) alone, so the basis
        is computed once per (class, mask, scale) and kept with the kernel
        in kernel.spectra, as kernel_transform keeps transforms: every
        operator of an equal grid and s reads it without a gather, and a
        subclass that defines its own `_entries` keeps its own.  A is
        decomposed in parity blocks under the reflections of Omega's mirror
        axes (_mirror_axes, _parity_eigh), each block gathered from the
        kernel by `_entries` and decomposed by one eigh; `matrix` is never
        read.  With no mirror axis the one block is the whole matrix, so
        lam and its one block of eigenvectors equal a plain eigh of
        `matrix` bit for bit.  A failed eigh of any block raises
        SingularOperatorError and keeps nothing.
        """
        grid, spectra = self.grid, self.kernel.spectra
        key = (type(self), grid.mask.tobytes(), self.params.scale(grid.h))
        if key not in spectra:
            self._check_dense_cap()
            try:
                basis = _parity_eigh(self._entries, grid.mask, _mirror_axes(grid, self.kernel))
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(
                    f"operator eigendecomposition failed: {exc}") from exc
            spectra[key] = basis
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


def _walsh_hadamard(parts):
    """[sum_g chi_c(g) parts[g] for c]: Walsh-Hadamard butterflies over the characters
    chi_c(g) = (-1)^popcount(c & g) of a group of 2^k reflections, which are their own inverse
    up to the factor 2^k.  Each butterfly overwrites its pair (a, b) with (a + b, a - b),
    _GATHER_ROWS rows at a time, so beside the parts only one chunk of a - b is held."""
    parts, span = list(parts), 1
    while span < len(parts):
        for lo in range(len(parts)):
            if not lo & span:
                a, b = parts[lo], parts[lo | span]
                for r0 in range(0, len(a), _GATHER_ROWS):
                    chunk = slice(r0, r0 + _GATHER_ROWS)
                    diff = a[chunk] - b[chunk]
                    a[chunk] += b[chunk]
                    b[chunk] = diff
        span *= 2
    return parts


@dataclass(frozen=True, eq=False)
class Eigenbasis:
    """A = Q diag(lam) Q^T, with Q kept in its parity blocks (_parity_eigh).

    lam holds the eigenvalues block after block, ascending within each
    block.  Block c spans the signed orbit sums of the orbits `orbits[c]`,
    and its eigenvectors are the columns of `vectors[c]`; `gather[g, a]`
    is the Omega index of the orbit representative a moved by reflection
    g, and `size` holds each orbit's node count.  Column j of block c is
    Q[x, j] = chi_c(g) vectors[c][a, j] / sqrt(size[a]) at x = gather[g, a].
    Rows are Omega values or mode coefficients along the last axis; every
    array is read-only.
    """

    lam: np.ndarray
    vectors: tuple
    orbits: tuple
    gather: np.ndarray
    size: np.ndarray

    def to_modes(self, rows):
        """rows Q: the mode coefficients of Omega rows.

        Folds each row onto the orbits once per reflection image, signs
        them per character by butterflies, and takes one GEMM per block.
        """
        folded = _walsh_hadamard(np.take(rows, image, axis=-1) for image in self.gather)
        weight = np.sqrt(self.size) / len(self.gather)  # sqrt|O| / |G| = 1 / (|Stab| sqrt|O|)
        out = np.empty(np.shape(rows))
        lo = 0
        for c, (vectors, orbits) in enumerate(zip(self.vectors, self.orbits)):
            part = folded[c] if len(orbits) == len(weight) else folded[c][..., orbits]
            folded[c] = None
            part *= weight[orbits]
            out[..., lo: lo + len(orbits)] = part @ vectors
            lo += len(orbits)
        return out

    def from_modes(self, coefs):
        """coefs Q^T: the Omega rows of rows of mode coefficients, by to_modes' steps backwards."""
        parts, lo = [], 0
        for vectors, orbits in zip(self.vectors, self.orbits):
            part = np.zeros(np.shape(coefs)[:-1] + self.size.shape)
            part[..., orbits] = (coefs[..., lo: lo + len(orbits)] @ vectors.T) \
                / np.sqrt(self.size[orbits])
            parts.append(part)
            lo += len(orbits)
        out = np.empty(np.shape(coefs))
        for image, values in zip(self.gather, _walsh_hadamard(parts)):
            out[..., image] = values  # a node fixed by some reflections takes equal values
        return out


def _parity_eigh(entries, mask, axes):
    """eigh of A in parity blocks: one block per character of the group of the axes' reflections.

    entries(rows, cols) gathers A[rows][:, cols].  The group G holds the
    2^len(axes) products of the reflections (bitmask g), its characters
    are chi_c(g) = (-1)^popcount(c & g), and A commutes with G.  For the
    node orbits O (representative: the orbit's first node in mask order)
    on which chi_c is 1 on the stabiliser, the vectors
    sum_{y in O} chi_c(y) e_y / sqrt|O| are orthonormal and span the
    chi_c-block, where A reads
    B[a, b] = sum_g chi_c(g) A[rep_a, g rep_b] / sqrt(|Stab_a| |Stab_b|)
    (Fassler & Stiefel 1992; for one reflection the even/odd split of
    Cantoni & Butler 1976).  The blocks' sizes add up to m, and they are
    gathered as |G| (orbits x orbits) slices of A, never as the whole
    matrix.  Returns the Eigenbasis of the blocks' eigh.
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
    reps = np.flatnonzero(images.min(axis=0) == np.arange(m))
    gather = images[:, reps]
    # per orbit: the reflections that fix it, and its stabiliser's size
    fixed = (2 * nodes[np.ix_(reps, axes)] == n - 1) @ (1 << np.arange(len(axes)))
    stab = 2.0 ** np.array([bin(g).count("1") for g in range(order)])[fixed]
    blocks = _walsh_hadamard(entries(reps, cols) for cols in gather)
    lams, vectors, orbits = [], [], []
    for c in range(order):
        keep = np.flatnonzero((fixed & c) == 0)
        block = blocks[c] if len(keep) == len(reps) else blocks[c][np.ix_(keep, keep)]
        blocks[c] = None
        scale = 1.0 / np.sqrt(stab[keep])
        on_mirror = scale != 1.0
        block[on_mirror] *= scale[on_mirror, None]
        block[:, on_mirror] *= scale[on_mirror]
        lam, vecs = np.linalg.eigh(block)
        del block
        lams.append(lam)
        vectors.append(vecs)
        orbits.append(keep)
    basis = Eigenbasis(np.concatenate(lams), tuple(vectors), tuple(orbits), gather,
                       order / stab)
    for part in (basis.lam, basis.gather, basis.size, *basis.vectors, *basis.orbits):
        part.setflags(write=False)
    return basis


def assemble_operator_matrix(grid, params):
    """The operator A with A (u|Omega) = apply(extend_by_zero(u))|Omega.

    Builds the kernel now; the dense matrix waits for its first use, and
    raises MemoryBudgetError there above DEFAULT_DENSE_CAP Omega nodes.
    """
    return OperatorMatrix(grid, params)
