"""Quadrature of the singular kernel |z|^(-N-2s) as a Toeplitz kernel plus a diagonal.

The operator integrates symmetrized second differences
phi(z) = 2g(x) - g(x+z) - g(x-z), written so that psi(z) = phi(z)/|z|^2
is smooth through the origin.  The principal value then becomes a
weighted sum of lattice values of phi:

  1D: int_0^inf phi(z) z^(-1-2s) dz
      = m0 * psi(h) + sum_cells int psi_lin(z) z^(1-2s) dz + exact tail,

  2D: (1/2) int_R2 phi(z) |z|^(-2-2s) dz with a square near region
      [-h,h]^2 (Taylor corrected), bilinear psi on far lattice cells, and
      an exact complement-of-rectangle tail.

Near-cell weights integrate z^(1-2s) exactly; the shifted exponent keeps
every formula regular for all s in (0,1), including s = 1/2.  Far tails
beyond the grid box are evaluated in closed form (in 2D, quadrant
integrals as short power series in the corner angle), so the
exterior-zero extension contributes no truncation error.

On the grid, the weight that the value at node x + kappa h receives in
the sum for node x depends on the offset kappa alone whenever that node
lies at least one cell inside the box, as every Omega node does
(gridfn.MIN_COLLAR_CELLS).  Only the weight of the value at x itself
depends on x, because the far sum stops at the box edge and the tail
takes over beyond it.  sweep_1d and sweep_2d therefore build a Kernel
of three parts:

  far   off-diagonal far-field weights t(kappa) over the offset window
        (2n-1)^N, zero at kappa = 0, with t(kappa) = t(-kappa) exactly;
  near  the near-field weight of each of the 2N unit offsets;
  diag  the far-field and tail weight of x itself, at every box node.

The kernel |z|^(-N-2s) is homogeneous of degree -N-2s, so every weight
(far, near, diag and tail) on a lattice of spacing h is h^(-2s) times
its value on the unit lattice.  No builder here takes h: the kernel is
built once per (ndim, n, s) at unit spacing, scaled by h^(-2s).  The
1/2 of the 2D form is folded in, so with the normalization C the
operator at node x is C h^(-2s) ((diag + 2N near) u(x)
- sum_kappa t'(kappa) u(x + kappa h)), where t' adds `near` to `far` at
the unit offsets.

The 2D kernel |z|^(-2s), the Gauss-order schedule and the square box are
invariant under z1 -> -z1, z2 -> -z2 and z1 <-> z2, so every 2D table
lives on the first quadrant, and the reflections are applied once where
a table is read.  cell_corner_weights runs its Gauss sums on the octant
cells [ka,ka+1]x[kb,kb+1] with 0 <= kb <= ka, one (cells, g^2) by
(g^2, 4) product per Gauss order g, and transposes them into the
quadrant; a transposition swaps (ka, kb) and (da, db).  far(kappa) is
formed on the quadrant and reflected into the offset window.  Per axis,
both box images B+ and B- seen from node i fold onto [0, lo) and [0, hi)
of the quadrant, lo = min(i, n-1-i) and hi = n-1-lo, so one fold of a
quadrant table sums over B+ union B- (_fold): the far part of the
diagonal and the corner integrals of the tail are both read that way.

The 2D build runs no linear algebra beyond the corner table's products.
Its Gauss-Legendre rules come from a Newton iteration on the Legendre
recurrence (_leggauss), not from numpy's leggauss, whose companion-matrix
eigenvalues load LAPACK.  sweep_2d forms the quadrant of far straight in
the offset window and the per-cell totals and their summed-area table in
place; the tail's corner-integral table is filled, and every fold taken,
in row blocks of about _BLOCK_CELLS cells.  Each of these steps is
elementwise or a cumsum along one axis, so the blocks bound the
temporaries and change no bit of the result.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

Kernel = namedtuple("Kernel", "far near diag")


# ---------------------------------------------------------------------------
# 1D weights


def interior_weights_1d(n, s):
    """Per-offset weights w[k-1] (k = 1..n) plus the left-endpoint parts.

    w[k-1] multiplies phi(k)/k^2 contributions already folded in: the
    returned weights multiply the raw lattice values phi(k).  A[k-1] is
    the share of w[k-1] contributed by cell [k, k+1]; rows truncated at K
    drop A[K-1] because that cell lies beyond their range.
    """
    lo = np.arange(1, n + 1, dtype=float)
    hi = lo + 1.0
    p1 = (hi ** (2 - 2 * s) - lo ** (2 - 2 * s)) / (2 - 2 * s)
    p2 = (hi ** (3 - 2 * s) - lo ** (3 - 2 * s)) / (3 - 2 * s)
    A = (hi * p1 - p2) / lo ** 2
    B = (p2 - lo * p1) / hi ** 2
    w = A.copy()
    w[1:] += B[:-1]
    return w, A


def first_cell_moment(s):
    """int_0^1 z^(1-2s) dz; multiplies the near-field psi estimate."""
    return 1.0 / (2 - 2 * s)


def tail_coefficient_1d(radius, s):
    """int_radius^inf z^(-1-2s) dz."""
    return radius ** (-2 * s) / (2 * s)


def sweep_1d(n, s):
    """Kernel of the 1D operator on n nodes of unit spacing.

    far[k + n-1] = w[|k|-1].  The sum for node i reaches K = max(i, n-1-i)
    cells, so its diagonal is twice the weights up to K, less the share
    A[K-1] of the cell beyond K, plus twice the tail from K on.
    """
    w, A = interior_weights_1d(n, s)
    far = np.concatenate([w[n - 2::-1], [0.0], w[:n - 1]])
    i = np.arange(n)
    K = np.maximum(i, n - 1 - i)
    diag = 2.0 * (np.cumsum(w)[K - 1] - A[K - 1]) + 2.0 * tail_coefficient_1d(K, s)
    return Kernel(far, first_cell_moment(s), diag)


# ---------------------------------------------------------------------------
# 2D near-square moment and tail integrals


def _legendre(g, x):
    """P_g(x) and P_g'(x) by the three-term recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, g):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, g * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _leggauss(g):
    """Gauss-Legendre nodes and weights of order g on [-1, 1], read-only.

    Newton's iteration on P_g, evaluated by its three-term recurrence,
    from Tricomi's guesses cos(pi (k - 1/4) / (g + 1/2)), converges
    quadratically to every node at once (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013).  The nodes are made symmetric, x = -x reversed,
    and the recurrence is odd or even in x exactly, so the weights
    2 / ((1 - x^2) P_g'(x)^2) are symmetric too; they are scaled to sum
    to 2.  No linear algebra runs: numpy's leggauss takes the
    eigenvalues of a companion matrix, which loads LAPACK into a process
    that needs it for nothing else.  The rule integrates x^d, d <= 2g - 1,
    to rounding.
    """
    x = np.cos(np.pi * (np.arange(g, 0, -1) - 0.25) / (g + 0.5))
    for _ in range(100):  # a few steps reach rounding; the bound stops a cycle within it
        p, dp = _legendre(g, x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= np.finfo(float).eps:
            break
    x = (x - x[::-1]) / 2.0
    dp = _legendre(g, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w *= 2.0 / w.sum()
    for part in (x, w):
        part.setflags(write=False)
    return x, w


def near_square_moment(s):
    """int over [-1,1]^2 of z1^2 |z|^(-2-2s) dz."""
    t, wt = _leggauss(64)
    theta = (t + 1.0) * (np.pi / 8.0)
    return float(4.0 / (2 - 2 * s) * (np.pi / 8.0) * np.sum(wt * np.cos(theta) ** (2 * s - 2)))


def _beta_full(s):
    # B(s + 1/2, 1/2)
    return math.exp(math.lgamma(s + 0.5) + math.lgamma(0.5) - math.lgamma(s + 1.0))


def halfplane_integral(d, s):
    """int over a half-plane at distance d of |z|^(-2-2s) dz."""
    return _beta_full(s) * d ** (-2 * s) / (2 * s)


# Series terms in theta^2 <= (pi/4)^2.  (sin t / t)^(2s) is analytic for
# |t| < pi and cos^(2s) t for |t| < pi/2, so the terms shrink by 1/16 and
# 1/4 each, and these counts end them below 1e-18 of the first.
_SIN_TERMS, _COS_TERMS = 16, 30


def _power_series(coef, alpha):
    """Coefficients of f(x)^alpha for f(x) = sum_k coef[k] x^k with coef[0] = 1.

    J.C.P. Miller's recurrence: k b_k = sum_{j=1..k} ((alpha + 1) j - k) coef[j] b_{k-j}.
    """
    b = [1.0]
    for k in range(1, len(coef)):
        b.append(sum(((alpha + 1) * j - k) * coef[j] * b[k - j] for j in range(1, k + 1)) / k)
    return b


@lru_cache(maxsize=32)
def _angular_series(s):
    """Power series in x = theta^2 of the two angular integrals of corner_integral.

    The coefficients of int_0^theta sin^(2s) / theta^(2s+1) and of
    int_0^theta cos^(2s) / theta, highest power first, as np.polyval
    reads them.  sin^(2s) t = t^(2s) (sin t / t)^(2s); both powers are
    even series in t, integrated term by term.
    """
    sinc = _power_series([(-1) ** k / math.factorial(2 * k + 1) for k in range(_SIN_TERMS)], 2 * s)
    cos = _power_series([(-1) ** k / math.factorial(2 * k) for k in range(_COS_TERMS)], 2 * s)
    return ([b / (2 * s + 2 * k + 1) for k, b in enumerate(sinc)][::-1],
            [b / (2 * k + 1) for k, b in enumerate(cos)][::-1])


def corner_integral(p, q, s):
    """int over the quadrant {z1 > p, z2 > q} of |z|^(-2-2s) dz, p,q > 0.

    The integral is symmetric in p and q.  With lo = min(p, q) and
    hi = max(p, q), take the edges z1 = hi and z2 = lo: the corner (hi, lo)
    sits at the polar angle theta = atan(lo/hi) <= pi/4.  A ray at angle
    t < theta enters the quadrant at radius lo/sin t, one at t > theta at
    radius hi/cos t, and the radial integral from there is radius^(-2s)/(2s):

      (lo^(-2s) int_0^theta sin^(2s) + hi^(-2s) (B(s+1/2, 1/2)/2 - int_0^theta cos^(2s))) / (2s),

    with both integrals power series in theta^2, summed by Horner's rule.
    Array arguments broadcast, and every operation is elementwise.
    """
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    theta = np.arctan2(lo, hi)
    x = theta * theta
    sin_coef, cos_coef = _angular_series(s)
    part_sin = (theta / lo) ** (2 * s) * theta * np.polyval(sin_coef, x)
    part_cos = hi ** (-2 * s) * (0.5 * _beta_full(s) - theta * np.polyval(cos_coef, x))
    return (part_sin + part_cos) / (2 * s)


def rect_complement_integral(p1, q1, p2, q2, s):
    """int over R^2 minus the rectangle [-p1,q1]x[-p2,q2] of |z|^(-2-2s) dz.

    The origin must be interior (all distances positive).  Array
    arguments broadcast.
    """
    total = sum(halfplane_integral(d, s) for d in (p1, q1, p2, q2))
    for dx in (p1, q1):
        for dy in (p2, q2):
            total -= corner_integral(dx, dy, s)
    return total


# ---------------------------------------------------------------------------
# 2D cell weights

_GAUSS_SCHEDULE = ((1, 16), (2, 12), (4, 8), (8, 6))
_GAUSS_FAR = 4
# Octant cells per pass of cell_corner_weights' kernel evaluation, at least this many
# unless an order has fewer in all: BLAS may sum a product of few rows in another order
_CORNER_CELLS = 1 << 16
# Table cells per row block of the tail's corner-integral table and of the folds:
# every step there is elementwise, so blocks only bound the temporaries, and at
# n <= 129 each table is one block
_BLOCK_CELLS = 1 << 15


def _gauss_order(dist_cells):
    for bound, order in _GAUSS_SCHEDULE:
        if dist_cells <= bound:
            return order
    return _GAUSS_FAR


@lru_cache(maxsize=8)
def cell_corner_weights(n, s):
    """Corner weights int_cell N_corner(z) |z|^(-2s) dz on the first-quadrant unit cells.

    Returns cw with shape (2, 2, n-1, n-1): cw[da, db, ka, kb] is the weight
    of corner (ka+da, kb+db) of cell [ka,ka+1]x[kb,kb+1], 0 <= ka, kb <= n-2.
    The reflection ka -> -1-ka, which swaps da = 0 and 1, gives the cells
    of the other quadrants.  Tensor Gauss order grows toward the
    singularity; the near cell (0, 0) gets zero weight here.  Each order's
    kernel values are formed in passes over its cells, so the peak stays a
    few times the table at any n.  The cached table is read-only.
    """
    # Octant cells 0 <= kb <= ka <= n-2; a cell's Gauss order depends on ka alone there
    ka, kb = np.tril_indices(n - 1)
    bounds, schedule = zip(*_GAUSS_SCHEDULE)
    order = np.array(schedule + (_GAUSS_FAR,))[np.searchsorted(bounds, ka)]
    vals = np.zeros((len(ka), 4))
    for g in np.unique(order):
        cells = np.flatnonzero((order == g) & (ka > 0))  # ka = 0: the near cell (0, 0)
        t, wt = _leggauss(g)
        xi = (t + 1.0) / 2.0
        # rule[g i + j, 2 da + db]: the weight of node (xi_i, xi_j) times the shape
        # function of corner (da, db), with N_0 = 1 - xi and N_1 = xi per axis
        shape = np.stack([(1.0 - xi) * wt / 2.0, xi * wt / 2.0], axis=1)
        rule = (shape[:, None, :, None] * shape[None, :, None, :]).reshape(g * g, 4)
        for sel in np.array_split(cells, max(1, len(cells) // _CORNER_CELLS)):
            z1 = ka[sel, None, None] + xi[None, :, None]
            z2 = kb[sel, None, None] + xi[None, None, :]
            ker = z1 * z1 + z2 * z2
            np.power(ker, -s, out=ker)
            vals[sel] = ker.reshape(len(sel), g * g) @ rule
    # The transposition fixes the cells ka = kb: their corners (0, 1) and (1, 0)
    # agree up to the summation order, and are made equal
    vals[ka == kb, 2] = vals[ka == kb, 1]
    # A transposition swaps (ka, kb) and (da, db)
    vals = vals.T.reshape(2, 2, -1)
    cw = np.empty((2, 2, n - 1, n - 1))
    cw[:, :, ka, kb] = vals
    cw.transpose(1, 0, 3, 2)[:, :, ka, kb] = vals
    cw.setflags(write=False)
    return cw


def far_weight_field(n, s, out):
    """Corner weights of every far cell summed per lattice offset (a, b) >= 0, shape (n, n).

    Index (a, b) holds the weight of offset (a, b) when all four cells
    around it take part in the sum, as they do for every node at least one
    cell inside the box.  The two cells across an axis are the reflections
    of the two on it and carry the same weights, so the axis row and
    column are doubled.  Written into the (n, n) array `out`, which is
    returned.
    """
    cw = cell_corner_weights(n, s)
    out.fill(0.0)
    for da in (0, 1):
        for db in (0, 1):
            out[da: da + n - 1, db: db + n - 1] += cw[da, db]
    out[0] *= 2.0
    out[:, 0] *= 2.0
    return out


def _row_blocks(rows, width):
    """Slices of at most _BLOCK_CELLS // width rows (one at least) covering range(rows)."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _fold(table, lo, hi):
    """Sum over B+ union B- of an even function, read from its first-quadrant table.

    table[a, b] is the sum over [0, a) x [0, b), and lo, hi the near and far
    extent of the box images per axis, one entry per node.  Per axis, B+
    and B- each fold onto [0, lo) and [0, hi), and they overlap in
    [-lo, lo), which folds onto [0, lo) twice.  So B+ + B- - (B+ cap B-)
    counts 2 (H x H + L x H + H x L) - 2 L x L, with L = [0, lo), H = [0, hi).
    Yields (rows, sums) in row blocks of the (len(lo), len(lo)) result.
    """
    for rows in _row_blocks(len(lo), len(lo)):
        l, h = lo[rows], hi[rows]
        yield rows, 2.0 * ((table[np.ix_(h, hi)] - table[np.ix_(l, lo)])
                           + (table[np.ix_(l, hi)] + table[np.ix_(h, lo)]))


def _extents(n):
    """lo = min(i, n-1-i) and hi = n-1-lo at the nodes i of one axis."""
    lo = np.minimum(np.arange(n), np.arange(n - 1, -1, -1))
    return lo, n - 1 - lo


def tail_integral_2d(n, s):
    """int of the kernel over R^2 minus (B+ union B-) at every box node, shape (n, n).

    B+ = box - x and B- = x - box are the two box images seen from node x;
    the kernel is even, so both complements carry the same integral.
    Zero on the box edge, where the tail always meets a vanishing factor.
    With R the integral over a rectangle's complement, the tail is
    2 R(B+) - R(B+ cap B-); the half-plane terms at the near extents lo
    cancel, which leaves 2 (hp(hi_i) + hp(hi_j)) less the fold of the
    corner integrals.  Every corner sits at an integer pair in [1, n-2]^2,
    so corner_integral runs once per pair 1 <= p <= q <= n-2, in row
    blocks of p, into one symmetric table.
    """
    table = np.zeros((n - 1, n - 1))
    for rows in _row_blocks(n - 2, n - 2):
        p0, p1 = rows.start + 1, rows.stop + 1
        vals = corner_integral(np.arange(p0, p1, dtype=float)[:, None],
                               np.arange(p0, n - 1, dtype=float), s)
        table[p0:p1, p0:] = vals
        table[p0:, p0:p1] = vals.T
    lo, hi = (e[1:-1] for e in _extents(n))
    hp = halfplane_integral(hi.astype(float), s)
    out = np.zeros((n, n))
    inner = out[1:-1, 1:-1]
    np.add(hp[:, None], hp[None, :], out=inner)
    inner *= 2.0
    for rows, part in _fold(table, lo, hi):
        inner[rows] -= part
    return out


def sweep_2d(n, s):
    """Kernel of the 2D operator on an n x n grid of unit spacing.

    far(kappa) = W(kappa) / |kappa|^2 with W the far weight field, formed
    on the first quadrant of the offset window and reflected from there,
    so that far(kappa) = far(-kappa) holds by construction.  The far part
    of the diagonal at node x sums, over the far cells in B+ union B-,
    each cell's corner weights over |corner|^2: the fold of a
    first-quadrant summed-area table of those per-cell totals, built in
    place.  Besides the window and the diagonal, no temporary is larger
    than the quadrant.
    """
    cw = cell_corner_weights(n, s)  # built, on a cold cache, before the window is allocated
    k = np.arange(n, dtype=float) ** 2
    d2 = k[:, None] + k[None, :]
    d2[0, 0] = 1.0
    far = np.empty((2 * n - 1, 2 * n - 1))
    quadrant = far_weight_field(n, s, out=far[n - 1:, n - 1:])
    quadrant /= d2
    far[:n - 1, n - 1:] = far[:n - 1:-1, n - 1:]
    far[:, :n - 1] = far[:, :n - 1:-1]
    sat = np.zeros((n, n))
    per_cell, part = sat[1:, 1:], np.empty((n - 1, n - 1))
    np.divide(cw[0, 0], d2[:-1, :-1], out=per_cell)
    for da, db in ((0, 1), (1, 0), (1, 1)):
        np.divide(cw[da, db], d2[da: da + n - 1, db: db + n - 1], out=part)
        per_cell += part
    del d2, part  # freed before the tail builds its tables
    np.cumsum(per_cell, axis=0, out=per_cell)
    np.cumsum(per_cell, axis=1, out=per_cell)
    diag = np.empty((n, n))
    for rows, part in _fold(sat, *_extents(n)):
        diag[rows] = part
    del sat, per_cell
    diag += tail_integral_2d(n, s)
    return Kernel(far, 0.5 * near_square_moment(s), diag)
