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

At p = 2 the Gagliardo sums and the first-difference Besov sums are
combinations of three autocorrelations, which real FFTs give for every
shift at once, in O(M log M) for the M nodes of the lattice summed over
(`_correlation_sums`).  The sum at shift k sits at k mod the padded size
of the inverse transform, so the shifts with |k_i| < m_i fill its four
corner blocks: the sums are sliced off them in shift order, and the
lengths |k| off a block of the same shape, with no shift or index array
formed.  A field is transformed when a term first needs it and dropped
after its last term, and the terms accumulate in one complex buffer, so
besides the transform's own work arrays a sweep holds at most three
half-spectra at a time, each about one real grid of the padded size;
each exponent of a sweep is then weighted on its own, with no
(exponents x shifts) array.  At 2D n = 257 (padded grid 540^2, 2.3 MB)
a first-difference Besov sweep peaks at 10.5 MB traced, and the cut-off
Sobolev sweep sigma = 0.1, ..., 1.9 at 9.7 MB.  A Gagliardo region R
is centred first, at the value of its first node, so u constant on R
gives exactly 0.  The rounding error of a shift sum is about eps times
the sum of u^2, while the sum at a short shift k is about
|k h|^2 |grad u|^2: the relative error grows like eps / (|k| h)^2
(4e-14 at k = 1 on a smooth bump at 1D n = 513, 8e-13 at n = 2049).
On a smooth cut-off bump, the probe's target, a sweep
sigma = 0.1, ..., 1.9 agrees with the direct sums to 1.1e-14 in 2D up
to n = 257, 9e-15 in 1D at n = 513, 4e-13 at n = 2049 and 1.2e-11 at
n = 8193.  Second differences keep the direct sums: their short-shift
sums are about |k h|^4 |D^2 u|^2, so the same rounding grows like
eps / (|k| h)^4 (per shift at k = 1 on that bump, 3.5e-11 at 1D
n = 513 and 1.3e-8 at n = 2049).

Every other p, and second differences, take direct shift sums, which
cost O(support), not O(box).  Let B be the bounding box
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
from .operator import apply_fractional_laplacian, next_fast_len


def _region_selector(u, region):
    grid = u.grid
    if region is None or region == "box":
        return np.ones(grid.shape, dtype=bool)
    if region == "omega":
        return grid.mask.copy()
    return region.contains(grid.nodes()).reshape(grid.shape)


def lp_norm(u, p, region=None):
    """Riemann-sum L^p norm over the region's nodes (max for p = inf): lp_norms of one row."""
    grid = u.grid
    vals = u.values[_region_selector(u, region)]
    return float(lp_norms(vals[None], p, grid.h ** grid.ndim)[0])


def lp_norms(rows, p, cell):
    """Riemann-sum L^p norm of each row of a (k, m) array of node values (max for p = inf).

    cell is the volume per node, h^N.  This is the one L^p formula: each
    row's sum of |values|^p times cell is taken to the power 1/p by
    Python's float power, entry by entry, because numpy's array power
    rounds some of those roots differently.  An empty row has norm 0.
    """
    if not p >= 1:  # also rejects nan
        raise ValueError(f"p must be >= 1 (inf allowed), got {p}")
    vals = np.abs(rows)
    if np.isinf(p):
        return vals.max(axis=1, initial=0.0)
    return np.array([total ** (1.0 / p) for total in ((vals ** p).sum(axis=1) * cell).tolist()])


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


def _correlation_sums(fields, terms, half, constant=0.0):
    """constant + sum of c corr(fields[i], fields[j])(k) over terms (c, i, j), per lattice shift k.

    corr(a, b)(k) = sum_x a(x) b(x + k), the (m0, m1) fields continued
    by zero beyond the lattice, is read off one inverse real FFT of the
    sum of c conj(a^) b^, each axis padded to next_fast_len(2 m - 1) so
    that no shift wraps around.  Cost O(M log M) for M lattice nodes.
    A field is transformed when a term first needs it and dropped after
    its last term; the terms accumulate, in order, in one complex
    buffer, and a term is written over the transform a^ when no later
    term reads it, so at most three half-spectra are held at a time.
    The inverse transform holds the sum at shift k at k mod the padded
    size: its four corner blocks are sliced into one block of the shifts
    with |k_i| < m_i, in shift order, and the sums at nonzero shifts are
    read off it, the lengths |k| off a block of the same shape.  Returns
    the lengths in cells and the sums of every nonzero lattice shift
    (with half, one of each pair k, -k), in `_lattice_shifts` order; the
    sums are clipped at 0, as the sums this serves are sums of squares,
    and their rounding may leave them slightly negative.
    """
    shape = fields[0].shape
    size = tuple(next_fast_len(2 * m - 1) for m in shape)
    last = {}
    for t, (_, i, j) in enumerate(terms):
        last[i] = last[j] = t
    hats, total = {}, None
    for t, (c, i, j) in enumerate(terms):
        for f in (i, j):
            if f not in hats:
                hats[f] = np.fft.rfftn(fields[f], size, axes=(0, 1))
        # c conj(a^) b^, written over a^ when no later term reads it
        term = np.conjugate(hats[i], out=hats[i] if last[i] == t and i != j else None)
        np.multiply(c, term, out=term)
        np.multiply(term, hats[j], out=term)
        for f in {i, j}:
            if last[f] == t:
                del hats[f]
        if total is None:
            total = term
        else:
            total += term
        del term
    full = np.fft.irfftn(total, size, axes=(0, 1))
    del total
    (m0, m1), (s0, s1) = shape, size
    rows = (slice(0, m0),) if half else (slice(s0 - m0 + 1, s0), slice(0, m0))
    cols = (slice(s1 - m1 + 1, s1), slice(0, m1))
    block = np.block([[full[r, c] for c in cols] for r in rows])
    del full
    # block[a, b] is the sum at shift (k0[a], k1[b]): drop k = 0 and, with half, the k before it
    k0 = np.arange(0 if half else 1 - m0, m0, dtype=float)
    k1 = np.arange(1 - m1, m1, dtype=float)
    centre = (k0.size - m0) * k1.size + m1 - 1

    def pick(b):
        return b.ravel()[centre + 1:] if half else np.delete(b, centre)

    sums = pick(block)
    sums += constant
    np.maximum(sums, 0.0, out=sums)
    lengths = pick(k0[:, None] ** 2 + k1 ** 2)  # exact integers
    return np.sqrt(lengths, out=lengths), sums


def _pair_sums(values, sel, p):
    """S_p(k) = sum_x 1_R(x) 1_R(x+k) |u(x+k) - u(x)|^p over the region R (sel).

    Computed over the bounding box of R, for one of each pair of offsets
    k, -k, since S_p is even.  For p = 2, with v = u - u(x0) at the first
    node x0 of R, S_2(k) = corr(1_R, 1_R v^2)(k) + corr(1_R v^2, 1_R)(k)
    - 2 corr(1_R v, 1_R v)(k) (`_correlation_sums`); the centring leaves
    a u constant on R at exactly 0.  For other p, where R fills its
    bounding box, only the support of u in it is summed directly
    (`_support_shift_sums`).  Returns the offset lengths in cells and S_p.
    """
    if sel.sum() < 2:
        return np.zeros(0), np.zeros(0)
    crop = _bounding_box(sel)
    vals, inside = _as_lattice(values[crop]), _as_lattice(sel[crop])
    if p == 2:
        v = np.where(inside, vals - vals[inside][0], 0.0)
        return _correlation_sums((inside * 1.0, v * v, v),
                                 ((1.0, 0, 1), (1.0, 1, 0), (-2.0, 2, 2)), half=True)
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
    At p = 2, S_2 comes from three FFT correlations over the bounding box
    of the region, in O(M log M) for its M nodes, after u is centred at
    the region's first node; the relative error of S_2(k) grows like
    eps / (|k| h)^2, and a smooth bump's sweep agrees with the direct sums
    to 1.1e-14 in 2D up to n = 257 and 1.2e-11 in 1D at n = 8193 (see the
    module docstring).  For other p, over the whole box (region None),
    S_p(k) is summed directly only for
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
    dist = cells * grid.h
    weighted = np.array([(dist ** -(grid.ndim + p * sg) * sums).sum() for sg in sig])
    total = 2.0 * grid.h ** (2 * grid.ndim) * weighted
    return _result(total ** (1.0 / p), scalar)


def _gradient_components(u):
    """Central differences per axis (one-sided at the box edge)."""
    grid = u.grid
    return [GridFunction(grid, np.gradient(u.values, grid.h, axis=ax))
            for ax in range(grid.ndim)]


def sobolev_seminorm(u, sigma, p, region=None):
    """Order-sigma seminorm for sigma in (0, 2) and p in (1, inf), one exponent or a sweep.

    (0,1): Gagliardo double sum.  sigma = 1: L^p norm of the gradient.
    (1,2): first differences composed with the fractional seminorm of
    each derivative component.  Over a sweep, the Gagliardo sums of u,
    and those of each gradient component, are formed once.
    """
    sig, scalar = _sweep_of(sigma)
    if not np.all((sig > 0) & (sig < 2)):
        raise ValueError(f"sigma must lie in (0, 2), got {sigma}")
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
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


def _direct_difference_sums(vals, p, second):
    """Per-shift sums of |differences|^p (maxima of |differences|, p = inf) over the support of u.

    vals is u on its (m0, m1) lattice; see `_difference_norms`.
    """
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

    box = _bounding_box(vals)
    return _support_shift_sums(vals[box][None], box, vals.shape, reduce, p, half=second)


def _difference_norms(u, p, second):
    """Per-shift L^p norms over the box of the first or second differences.

    First: u(x+k) - u(x) for every shift k; second: u(x+k) - 2u(x) + u(x-k),
    even in k, for one of each pair k, -k.  u is zero beyond the box.
    First differences at p = 2 are R(box) + corr(1_box, u^2)(k)
    - 2 corr(u, u)(k), R(box) the sum of u^2 (`_correlation_sums`); every
    other case runs over the support of u (`_support_shift_sums`).
    Returns the shift lengths in cells and the norms.
    """
    vals = _as_lattice(u.values)
    if p == 2 and not second:
        squares = vals * vals
        cells, totals = _correlation_sums((np.ones_like(vals), squares, vals),
                                          ((1.0, 0, 1), (-2.0, 2, 2)), half=False,
                                          constant=squares.sum())
    else:
        shifts, totals = _direct_difference_sums(vals, p, second)
        cells = np.sqrt((shifts ** 2).sum(axis=1))
    norms = totals if np.isinf(p) else (totals * u.grid.h ** u.grid.ndim) ** (1.0 / p)
    return cells, norms


def besov_seminorm(u, sigma, p, q):
    """Shift-lattice Besov seminorm of an exterior-zero function.

    First differences for sigma in (0,1), symmetric second differences for
    sigma in (1,2).  The outer integral over shifts is a lattice sum plus
    the exact power-law tail where the shifted supports are disjoint.
    sigma is one exponent or a sweep of them; the per-shift L^p norms are
    free of sigma and formed once per kind of difference for the sweep.
    First differences at p = 2 come from FFT correlations over the box,
    in O(M log M) for its M nodes, with a relative error that grows like
    eps / (|k| h)^2 at short shifts (a smooth bump's sweep agrees with the
    direct sums to 1.1e-14 in 2D up to n = 257, 1.2e-11 in 1D at
    n = 8193).  Second differences stay direct at every p: the same
    rounding would grow like eps / (|k| h)^4 for them.  On the direct
    path, only shifts shorter than the bounding box B of u's support are
    summed over B directly.  A longer shift moves B off itself, and its p-th
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
    if not p >= 1:  # also rejects nan
        raise ValueError(f"p must be >= 1 (inf allowed), got {p}")
    if not q > 0:
        raise ValueError(f"q must be > 0 (inf allowed), got {q}")
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
        sg = sig[pick]
        # one exponent at a time, with no (exponents x shifts) array; numpy
        # takes the correctly rounded square root for the exponent 0.5
        if np.isinf(q):
            out[pick] = np.maximum([(norms / ynorm ** e).max() for e in sg],
                                   level / tail_radius ** sg)
            continue
        powered = norms ** q
        # the second-difference norms stand for both k and -k
        acc = (2.0 if second else 1.0) * h ** ndim * np.array(
            [(powered * ynorm ** -(ndim + q * e)).sum() for e in sg])
        acc += level ** q * surface * tail_radius ** (-q * sg) / (q * sg)
        out[pick] = acc ** (1.0 / q)
    return _result(out, scalar)


def potential_norm(u, params, p):
    """L^p norm of the function plus L^p norm of its fractional Laplacian.

    Both integrals run over the full box; the operator image is global,
    so its exterior part is included.
    """
    image = apply_fractional_laplacian(u, params)
    return lp_norm(u, p) + lp_norm(image, p)
