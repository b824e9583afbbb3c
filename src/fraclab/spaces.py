"""Estimators for Lp, Gagliardo, Besov, and potential-space (semi)norms.

All estimators are midpoint Riemann sums on the grid: node values carry
cell weight h^N, and a double sum over node pairs evaluates the kernel at
the pair distance (the midpoint of the product cell), the diagonal
excluded.  On a lattice that distance depends only on the offset k
between the nodes, so the double sums are taken in the shift domain:
the sigma-free sums over nodes of |u(x+k) - u(x)|^p (Gagliardo) or the
per-shift L^p norms of first and second differences (Besov) are formed
once, by direct differences over one block of shifts at a time in O(N)
memory, and every exponent of a sweep is then one weighted sum over
offsets.  `reference` keeps the pairwise forms as the slow oracle.
Divergent memberships are detected elsewhere by refinement, not by any
single-grid value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gridfn import GridFunction
from .operator import apply_fractional_laplacian


@dataclass(frozen=True)
class NormReport:
    region: str
    sigma: float
    p: float
    q: float
    h: float
    seminorm: float
    norm: float

    CSV_HEADER = ("region", "sigma", "p", "q", "h", "seminorm", "norm")

    def csv_row(self):
        return (self.region, f"{self.sigma:.17g}", f"{self.p:.17g}", f"{self.q:.17g}",
                f"{self.h:.17g}", f"{self.seminorm:.17g}", f"{self.norm:.17g}")


def write_norm_reports(path, reports):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(NormReport.CSV_HEADER)
        for r in reports:
            wr.writerow(r.csv_row())


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
    shifts, values = [], []
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


def _pair_sums(values, sel, p):
    """S_p(k) = sum_x 1_R(x) 1_R(x+k) |u(x+k) - u(x)|^p over the region R (sel).

    Computed over the bounding box of R, for one of each pair of offsets
    k, -k, since S_p is even.  Returns the offset lengths in cells and S_p.
    """
    if sel.sum() < 2:
        return np.zeros(0), np.zeros(0)
    crop = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(sel))
    stack = np.stack([_as_lattice(values[crop]), _as_lattice(sel[crop] * 1.0)])

    def reduce(plus, base, _minus):
        # the differences are a fresh block: work in place, to spare allocations
        d = plus[0] - base[0]
        np.abs(d, out=d)
        d **= p
        d *= plus[1]
        d *= base[1]
        return d.sum(axis=(0, 2))

    shifts, sums = _shift_sums(stack, reduce, half=True, inner=True)
    return np.sqrt((shifts ** 2).sum(axis=1)), sums


def gagliardo_seminorm(u, sigma, p, region=None):
    """Double Riemann sum of |u(x)-u(y)|^p / |x-y|^(N+p sigma) over the region.

    Pairs at distance h use the same midpoint rule as every other pair;
    the diagonal (the singular cell) is excluded.  The sum is regrouped by
    lattice offset k: the sigma-free sums S_p(k) are formed once, and each
    sigma is then one weighted sum (2 h^(2N) sum_k S_p(k) |k h|^(-N-p sigma))^(1/p).
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
    even in k, for one of each pair k, -k.  u is zero beyond the box.
    Returns the shift lengths in cells and the norms.
    """
    hN = u.grid.h ** u.grid.ndim

    def norm(d):
        # d is a fresh block: work in place, to spare the allocations
        np.abs(d, out=d)
        if np.isinf(p):
            return d.max(axis=(0, 2))
        d **= p
        return (d.sum(axis=(0, 2)) * hN) ** (1.0 / p)

    if second:
        def reduce(plus, base, minus):
            d = plus[0] - 2.0 * base[0]
            d += minus[0]
            return norm(d)
    else:
        def reduce(plus, base, _minus):
            return norm(plus[0] - base[0])

    shifts, norms = _shift_sums(_as_lattice(u.values)[None], reduce, half=second)
    return np.sqrt((shifts ** 2).sum(axis=1)), norms


def besov_seminorm(u, sigma, p, q):
    """Shift-lattice Besov seminorm of an exterior-zero function.

    First differences for sigma in (0,1), symmetric second differences for
    sigma in (1,2).  The outer integral over shifts is a lattice sum plus
    the exact power-law tail where the shifted supports are disjoint.
    sigma is one exponent or a sweep of them; the per-shift L^p norms are
    free of sigma and formed once per kind of difference for the sweep.
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
        if second:
            level = (2.0 + 2.0 ** p) ** (1.0 / p) * up_norm
        else:
            level = 2.0 ** (1.0 / p) * up_norm
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
