"""Estimators for Lp, Gagliardo, Besov, and potential-space (semi)norms.

All estimators are midpoint Riemann sums on the grid: node values carry
cell weight h^N, and a double sum over node pairs evaluates the kernel at
the pair distance (the midpoint of the product cell), the diagonal
excluded.  On a lattice that distance depends only on the offset k
between the nodes, so the double sums are taken in the shift domain:
the sigma-free sums over nodes of |u(x+k) - u(x)|^p (Gagliardo) or the
per-shift L^p norms of first and second differences (Besov) are formed
once, and every exponent of a sweep is then one weighted sum over
offsets.  `reference` keeps the pairwise forms as the slow oracle.

The shift sums cost O(support), not O(box).  Let B be the bounding box
of the nonzero values of u and P = |u|^p on B, and let R(.) be a sum of
P over a sub-box of B, read from one summed-area table (a maximum, for
p = inf, from a sparse table).  A near shift (|k_i| below B's width on
every axis) keeps the direct difference sum over B, in O(N) memory one
block of shifts at a time; the terms where x lies off B and x +- k on
it are |u(x +- k)|^p, rectangle sums of P.  A far shift moves B off
itself, and each per-shift sum has a closed form that keeps the
zero-beyond-the-box truncation:

  first differences   R(B) + R(B n (box + k))
  second differences  2^p R(B) + R(B n (box + k)) + R(B n (box - k))
  Gagliardo, R = box  R(B n (box - k)) + R(B n (box + k))

(max|u| and 2 max|u| for p = inf).  A function whose support fills the
box has no far shifts and takes the same path.  Divergent memberships
are detected elsewhere by refinement, not by any single-grid value.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gridfn import GridFunction
from .operator import apply_fractional_laplacian


def _region_selector(u, region):
    grid = u.grid
    if region is None or region == "box":
        return np.ones(grid.shape, dtype=bool)
    if region == "omega":
        return grid.mask.copy()
    return region.contains(grid.nodes()).reshape(grid.shape)


def lp_norm(u, p, region=None):
    """Riemann-sum L^p norm over the region's nodes (max for p = inf)."""
    grid = u.grid
    sel = _region_selector(u, region)
    vals = np.abs(u.values[sel])
    if vals.size == 0:
        return 0.0
    if np.isinf(p):
        return float(vals.max())
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((vals ** p).sum() * grid.h ** grid.ndim) ** (1.0 / p)


# Elements of one shifted-window block: bounds the temporaries of a shift sum.
_BLOCK = 1 << 16


def _shift_sums(fields, reduce, half=False, inner=False):
    """Per-shift reductions over the lattice, one block of shifts at a time.

    fields has shape (C, m0, m1) and is continued by zero beyond the
    lattice.  For every lattice shift k != 0 (with half, one of each pair
    k, -k), reduce(f(x + k), f(x), f(x - k)) maps field stacks whose
    shapes broadcast to (C, rows, B, cols), a block of B shifts along the
    last axis, to one value per shift.  x runs over the lattice; with
    inner, the rows and columns of x are cut to those where some shift of
    the block keeps x + k on the lattice, which drops no term of a
    reduction that vanishes beyond it (this makes a 2D n = 65 Gagliardo
    sweep about 2.3 times faster).  Returns the shifts as a (K, 2)
    integer array and the K values.
    """
    _, m0, m1 = fields.shape
    pad = np.pad(fields, ((0, 0), (m0 - 1, m0 - 1), (m1 - 1, m1 - 1)))

    def window(kx):
        # window(kx)[:, i, w, j] = f(i + kx, j + w - (m1 - 1))
        return sliding_window_view(pad[:, m0 - 1 + kx: 2 * m0 - 1 + kx], m1, axis=2)

    every = slice(None)
    step = max(1, _BLOCK // (m0 * m1))
    shifts, values = [np.zeros((0, 2), int)], [np.zeros(0)]  # a one-node lattice has no pair
    for kx in range(0 if half else 1 - m0, m0):
        plus, minus = window(kx), window(-kx)[:, :, ::-1]
        rows = slice(max(0, -kx), min(m0, m0 - kx)) if inner else every
        for w0 in range(m1 if half and kx == 0 else 0, 2 * m1 - 1, step):
            w1 = min(w0 + step, 2 * m1 - 1)
            ky = np.arange(w0, w1) - (m1 - 1)
            cols = slice(max(0, -ky[-1]), min(m1, m1 - ky[0])) if inner else every
            blk = (every, rows, slice(w0, w1), cols)
            values.append(reduce(plus[blk], fields[:, rows, None, cols], minus[blk]))
            shifts.append(np.column_stack([np.full(ky.size, kx), ky]))
    shifts, values = np.concatenate(shifts), np.concatenate(values)
    keep = shifts.any(axis=1)
    return shifts[keep], values[keep]


def _sweep_of(sigma):
    """sigma as a 1-D array of exponents, and whether it was one number."""
    sig = np.asarray(sigma, float)
    return np.atleast_1d(sig), sig.ndim == 0


def _result(values, scalar):
    return float(values[0]) if scalar else values


def _as_lattice(values):
    """Node values as an (m0, m1) array: a 1D grid is one row."""
    return values.reshape(1, -1) if values.ndim == 1 else values


def _bounding_box(values):
    """Slices of the smallest box holding the nonzero values (one node if none)."""
    idx = np.nonzero(values)
    if idx[0].size == 0:
        return tuple(slice(0, 1) for _ in idx)
    return tuple(slice(i.min(), i.max() + 1) for i in idx)


def _lattice_shifts(shape, half):
    """Every nonzero shift of an (m0, m1) lattice (with half, one of each pair k, -k)."""
    ks = np.stack(np.meshgrid(*(np.arange(1 - m, m) for m in shape), indexing="ij"),
                  axis=-1).reshape(-1, 2)
    keep = (ks[:, 0] > 0) | ((ks[:, 0] == 0) & (ks[:, 1] > 0)) if half else ks.any(axis=1)
    return ks[keep]


def _rectangle_reducer(P, maximum):
    """R(lo, hi): the sums (maxima) of P over the rectangles [lo, hi), O(1) each.

    lo and hi are (K, 2) corners in [0, P.shape]; an empty rectangle gives
    0.  Sums come from a summed-area table; maxima from a sparse table of
    the maxima over every rectangle with power-of-two sides, four of
    which cover any rectangle.
    """
    m = np.array(P.shape)
    if not maximum:
        sat = np.zeros(tuple(m + 1))
        sat[1:, 1:] = P.cumsum(axis=0).cumsum(axis=1)

        def reduce(lo, hi):
            (r0, c0), (r1, c1) = lo.T, np.maximum(hi, lo).T
            return sat[r1, c1] - sat[r0, c1] - sat[r1, c0] + sat[r0, c0]
        return reduce

    # table[j0, j1, i, l] = max of P over [i, i + 2^j0) x [l, l + 2^j1)
    table = np.zeros((*(int(x).bit_length() for x in m), *m))
    table[0, 0] = P
    for j in range(1, table.shape[1]):
        w = 1 << (j - 1)
        table[0, j, :, :-w] = np.maximum(table[0, j - 1, :, :-w], table[0, j - 1, :, w:])
    for j in range(1, table.shape[0]):
        w = 1 << (j - 1)
        table[j, :, :-w] = np.maximum(table[j - 1, :, :-w], table[j - 1, :, w:])

    def reduce(lo, hi):
        size = hi - lo
        j = np.frexp(np.maximum(size, 1))[1] - 1  # floor(log2(size))
        ends = (np.minimum(lo, m - 1), np.clip(hi - (1 << j), 0, m - 1))
        out = np.maximum.reduce([table[j[:, 0], j[:, 1], r[:, 0], c[:, 1]]
                                 for r in ends for c in ends])
        return np.where((size > 0).all(axis=1), out, 0.0)
    return reduce


def _off_support(shifts, box, shape, rect):
    """R over the y of B with y - k off B but on the lattice, per shift k.

    In B's own coordinates T = B n (lattice + k) and I = B n (B + k) are
    boxes with I inside T, and T minus I is the disjoint union of
    (T0 - I0) x T1 and I0 x (T1 - I1): two rectangle reductions, whose
    values are returned.
    """
    a = np.array([s.start for s in box])
    m = np.array([s.stop for s in box]) - a
    t_lo, t_hi = (np.clip(v, 0, m) for v in (shifts - a, shifts + np.array(shape) - a))
    i_lo, i_hi = (np.clip(v, 0, m) for v in (shifts, shifts + m))
    # T_i minus I_i is one interval: I_i sits at T_i's upper end when k_i >= 0
    up = shifts >= 0
    d_lo = np.where(up, t_lo, np.maximum(i_hi, t_lo))
    d_hi = np.where(up, np.minimum(i_lo, t_hi), t_hi)
    return (rect(np.column_stack([d_lo[:, 0], t_lo[:, 1]]),
                 np.column_stack([d_hi[:, 0], t_hi[:, 1]])),
            rect(np.column_stack([i_lo[:, 0], d_lo[:, 1]]),
                 np.column_stack([i_hi[:, 0], d_hi[:, 1]])))


def _support_shift_sums(fields, box, shape, reduce, p, half, inner=False):
    """Per-shift reductions over a lattice of this shape, of fields that vanish off `box`.

    fields holds u, then any other fields, on the sub-box B = `box`, and
    reduce is as in `_shift_sums`; where a term of it has one node on B it
    must be |u|^p there (|u| for p = inf, where reductions are maxima).
    Shifts shorter than B on every axis are reduced directly over B.  A
    longer shift moves B off itself and gets the one value reduce takes
    when the shifted fields vanish on B.  Each shift then gains the terms
    of the x off B with x + k on B (with half, for a reduction even in k,
    also those with x - k on B): rectangle reductions of |u|^p.  Returns
    the shifts and their values.
    """
    near, values = _shift_sums(fields, reduce, half, inner)
    base = fields[:, :, None]
    apart = reduce(np.zeros_like(base), base, np.zeros_like(base))
    every = _lattice_shifts(shape, half)
    far = every[(np.abs(every) >= fields.shape[1:]).any(axis=1)]
    shifts = np.concatenate([near, far])
    values = np.concatenate([values, np.full(len(far), apart[0])])
    maximum = np.isinf(p)
    rect = _rectangle_reducer(np.abs(fields[0]) if maximum else np.abs(fields[0]) ** p, maximum)
    combine = np.maximum if maximum else np.add
    for side in ((1, -1) if half else (1,)):
        for part in _off_support(side * shifts, box, shape, rect):
            values = combine(values, part)
    return shifts, values


def _pair_sums(values, sel, p):
    """S_p(k) = sum_x 1_R(x) 1_R(x+k) |u(x+k) - u(x)|^p over the region R (sel).

    Computed over the bounding box of R, for one of each pair of offsets
    k, -k, since S_p is even.  Where R fills its bounding box, only the
    support of u in it is summed directly (`_support_shift_sums`).
    Returns the offset lengths in cells and S_p.
    """
    if sel.sum() < 2:
        return np.zeros(0), np.zeros(0)
    crop = _bounding_box(sel)
    vals, inside = _as_lattice(values[crop]), _as_lattice(sel[crop])
    # pairs with a node off u's support are rectangle sums only if R fills its crop
    box = _bounding_box(vals if inside.all() else inside)
    stack = np.stack([vals[box], inside[box] * 1.0])

    def reduce(plus, base, _minus):
        # the differences are a fresh block: work in place, to spare allocations
        d = plus[0] - base[0]
        np.abs(d, out=d)
        d **= p
        d *= plus[1]
        d *= base[1]
        return d.sum(axis=(0, 2))

    shifts, sums = _support_shift_sums(stack, box, vals.shape, reduce, p, half=True, inner=True)
    return np.sqrt((shifts ** 2).sum(axis=1)), sums


def gagliardo_seminorm(u, sigma, p, region=None):
    """Double Riemann sum of |u(x)-u(y)|^p / |x-y|^(N+p sigma) over the region.

    Pairs at distance h use the same midpoint rule as every other pair;
    the diagonal (the singular cell) is excluded.  The sum is regrouped by
    lattice offset k: the sigma-free sums S_p(k) are formed once, and each
    sigma is then one weighted sum (2 h^(2N) sum_k S_p(k) |k h|^(-N-p sigma))^(1/p).
    Over the whole box (region None), S_p(k) is summed directly only for
    shifts shorter than the bounding box B of u's support; the pairs with
    one node off B add rectangle sums of |u|^p, and a far shift has the
    closed form S_p(k) = R(B n (box - k)) + R(B n (box + k)), pairs that
    leave the box dropped.  A region is summed over its own bounding box.
    sigma is one exponent in (0, 1), giving a float, or a sequence of them
    (a sweep), giving an array.
    """
    sig, scalar = _sweep_of(sigma)
    if not np.all((sig > 0) & (sig < 1)):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    grid = u.grid
    cells, sums = _pair_sums(u.values, _region_selector(u, region), p)
    kernel = (cells * grid.h) ** (-(grid.ndim + p * sig[:, None]))
    total = 2.0 * grid.h ** (2 * grid.ndim) * (kernel * sums).sum(axis=1)
    return _result(total ** (1.0 / p), scalar)


def _gradient_components(u):
    """Central differences per axis (one-sided at the box edge)."""
    grid = u.grid
    return [GridFunction(grid, np.gradient(u.values, grid.h, axis=ax))
            for ax in range(grid.ndim)]


def sobolev_seminorm(u, sigma, p, region=None):
    """Order-sigma seminorm for sigma in (0, 2), one exponent or a sweep.

    (0,1): Gagliardo double sum.  sigma = 1: L^p norm of the gradient.
    (1,2): first differences composed with the fractional seminorm of
    each derivative component.  Over a sweep, the Gagliardo sums of u,
    and those of each gradient component, are formed once.
    """
    sig, scalar = _sweep_of(sigma)
    if not np.all((sig > 0) & (sig < 2)):
        raise ValueError(f"sigma must lie in (0, 2), got {sigma}")
    out = np.empty(sig.size)
    lo, one, hi = sig < 1.0, sig == 1.0, sig > 1.0
    comps = _gradient_components(u) if (one | hi).any() else []
    if lo.any():
        out[lo] = gagliardo_seminorm(u, sig[lo], p, region)
    if one.any():
        out[one] = float(sum(lp_norm(g, p, region) ** p for g in comps)) ** (1.0 / p)
    if hi.any():
        out[hi] = sum(gagliardo_seminorm(g, sig[hi] - 1.0, p, region) ** p
                      for g in comps) ** (1.0 / p)
    return _result(out, scalar)


def _difference_norms(u, p, second):
    """Per-shift L^p norms over the box of the first or second differences.

    First: u(x+k) - u(x) for every shift k; second: u(x+k) - 2u(x) + u(x-k),
    even in k, for one of each pair k, -k.  u is zero beyond the box, and
    the sums run over the support of u (`_support_shift_sums`).  Returns
    the shift lengths in cells and the norms.
    """
    hN = u.grid.h ** u.grid.ndim
    maximum = np.isinf(p)

    def total(d):
        # d is a fresh block: work in place, to spare the allocations
        np.abs(d, out=d)
        if maximum:
            return d.max(axis=(0, 2))
        d **= p
        return d.sum(axis=(0, 2))

    if second:
        def reduce(plus, base, minus):
            d = plus[0] - 2.0 * base[0]
            d += minus[0]
            return total(d)
    else:
        def reduce(plus, base, _minus):
            return total(plus[0] - base[0])

    vals = _as_lattice(u.values)
    box = _bounding_box(vals)
    shifts, totals = _support_shift_sums(vals[box][None], box, vals.shape, reduce, p, half=second)
    norms = totals if maximum else (totals * hN) ** (1.0 / p)
    return np.sqrt((shifts ** 2).sum(axis=1)), norms


def besov_seminorm(u, sigma, p, q):
    """Shift-lattice Besov seminorm of an exterior-zero function.

    First differences for sigma in (0,1), symmetric second differences for
    sigma in (1,2).  The outer integral over shifts is a lattice sum plus
    the exact power-law tail where the shifted supports are disjoint.
    sigma is one exponent or a sweep of them; the per-shift L^p norms are
    free of sigma and formed once per kind of difference for the sweep.
    Only shifts shorter than the bounding box B of u's support are summed
    over B directly.  A longer shift moves B off itself, and its p-th
    power norm is h^N times R(B) + R(B n (box + k)) for first differences
    and 2^p R(B) + R(B n (box + k)) + R(B n (box - k)) for second ones,
    R a sum of |u|^p; it is max|u| and 2 max|u| for p = inf.  Terms
    beyond the box are dropped, so 2^(1/p) ||u||_p, the lattice tail's
    level, holds only while B - k stays in the box.
    """
    if not u.dirichlet:
        raise ValueError("besov_seminorm needs an exterior-zero function")
    sig, scalar = _sweep_of(sigma)
    if not np.all((sig > 0) & (sig < 2) & (sig != 1)):
        raise ValueError(f"sigma must lie in (0,1) or (1,2), got {sigma}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    grid = u.grid
    n, h, ndim = grid.n, grid.h, grid.ndim
    up_norm = lp_norm(u, p)
    tail_radius = (n - 1) * h * np.sqrt(ndim)
    surface = 2.0 if ndim == 1 else 2.0 * np.pi
    out = np.empty(sig.size)
    for second in (False, True):
        pick = (sig > 1.0) == second
        if not pick.any():
            continue
        cells, norms = _difference_norms(u, p, second)
        ynorm = cells * h
        if not second:
            level = 2.0 ** (1.0 / p) * up_norm
        elif np.isinf(p):
            level = 2.0 * up_norm   # the p -> inf limit of (2 + 2^p)^(1/p)
        else:
            level = (2.0 + 2.0 ** p) ** (1.0 / p) * up_norm
        sg = sig[pick][:, None]
        if np.isinf(q):
            out[pick] = np.maximum((norms / ynorm ** sg).max(axis=1),
                                   level / tail_radius ** sg[:, 0])
            continue
        # the second-difference norms stand for both k and -k
        acc = (2.0 if second else 1.0) * h ** ndim * (
            norms ** q * ynorm ** (-(ndim + q * sg))).sum(axis=1)
        acc += level ** q * surface * tail_radius ** (-q * sg[:, 0]) / (q * sg[:, 0])
        out[pick] = acc ** (1.0 / q)
    return _result(out, scalar)


def potential_norm(u, params, p):
    """L^p norm of the function plus L^p norm of its fractional Laplacian.

    Both integrals run over the full box; the operator image is global,
    so its exterior part is included.
    """
    image = apply_fractional_laplacian(u, params)
    return lp_norm(u, p) + lp_norm(image, p)
