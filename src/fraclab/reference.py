"""Deliberately naive re-evaluation of the operator and the seminorms.

This is the slow cross-check path.  The operator is recomputed by plain
Python loops over node pairs and cells, every weight from the defining
formulas with scalar arithmetic.  The seminorms are recomputed the
direct way: the Gagliardo double sum over dense node-pair arrays, and
the Besov lattice sum as one shifted copy and one L^p norm per shift.
None of this shares array bookkeeping with the fast paths; it exists so
the matrix/apply implementations and the shift-domain estimators can be
verified against an independent traversal on small grids.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .gridfn import GridFunction
from .quadrature import _gauss_order, rect_complement_integral
from .spaces import _region_selector, lp_norm


def naive_apply_omega(u, params):
    """Operator values at Omega nodes by scalar double loops."""
    grid = u.grid
    if grid.ndim == 1:
        return _naive_1d(grid, u.values, params.s, params.cns)
    return _naive_2d(grid, u.values, params.s, params.cns)


def _uval_1d(vals, j):
    return vals[j] if 0 <= j < len(vals) else 0.0


def _naive_1d(grid, vals, s, C):
    n, h = grid.n, grid.h
    out = []
    for i in np.flatnonzero(grid.mask):
        K = max(i, n - 1 - i)
        total = 0.0
        # near cell [0, h]: psi approximated by its value at h
        psi1 = (2.0 * vals[i] - _uval_1d(vals, i + 1) - _uval_1d(vals, i - 1)) / h**2
        total += h ** (2 - 2 * s) / (2 - 2 * s) * psi1
        # far cells [kh, (k+1)h], psi linear between lattice values
        for k in range(1, K):
            lo, hi = k * h, (k + 1) * h
            p1 = (hi ** (2 - 2 * s) - lo ** (2 - 2 * s)) / (2 - 2 * s)
            p2 = (hi ** (3 - 2 * s) - lo ** (3 - 2 * s)) / (3 - 2 * s)
            a = (hi * p1 - p2) / h
            b = (p2 - lo * p1) / h
            psi_lo = (2.0 * vals[i] - _uval_1d(vals, i + k) - _uval_1d(vals, i - k)) / lo**2
            psi_hi = (2.0 * vals[i] - _uval_1d(vals, i + k + 1) - _uval_1d(vals, i - k - 1)) / hi**2
            total += a * psi_lo + b * psi_hi
        # tail beyond the box: phi is constant 2 u_i
        total += 2.0 * vals[i] * (K * h) ** (-2 * s) / (2 * s)
        out.append(C * total)
    return np.array(out)


def _naive_2d(grid, vals, s, C):
    n, h = grid.n, grid.h
    out = []

    def uval(jx, jy):
        if 0 <= jx < n and 0 <= jy < n:
            return vals[jx, jy]
        return 0.0

    # near-square moment by fine polar quadrature of the defining integral
    t, wt = leggauss(96)
    theta = (t + 1.0) * (math.pi / 8.0)
    qhat = 4.0 / (2 - 2 * s) * (math.pi / 8.0) * float(
        np.sum(wt * np.cos(theta) ** (2 * s - 2)))
    q = qhat * h ** (2 - 2 * s)

    # Gauss rules per order, with the bilinear shape values (1 - xi, xi)
    rules = {}
    for g in set(map(_gauss_order, range(n))):
        tg, wg = leggauss(g)
        xi = (tg + 1.0) / 2.0
        rules[g] = (xi, wg / 2.0, [(1.0 - x, x) for x in xi])

    for flat in np.flatnonzero(grid.mask.ravel()):
        ix, iy = divmod(flat, n)

        def phi(a, b):
            return (2.0 * vals[ix, iy] - uval(ix + a, iy + b) - uval(ix - a, iy - b))

        near = (phi(1, 0) + phi(0, 1)) / h**2
        total = q * near
        for ka in range(-(n - 1), n - 1):
            for kb in range(-(n - 1), n - 1):
                if -1 <= ka <= 0 and -1 <= kb <= 0:
                    continue
                in_plus = (-ix <= ka <= n - 2 - ix) and (-iy <= kb <= n - 2 - iy)
                in_minus = (-(n - 1 - ix) <= ka <= ix - 1) and (-(n - 1 - iy) <= kb <= iy - 1)
                if not (in_plus or in_minus):
                    continue
                dc = max(min(abs(ka), abs(ka + 1)), min(abs(kb), abs(kb + 1)))
                g = _gauss_order(dc)
                xi, wq, shape = rules[g]
                # phi and |corner|^2 at the four cell corners
                corners = [(da, db, phi(ka + da, kb + db), ((ka + da) * h) ** 2 + ((kb + db) * h) ** 2)
                           for da in (0, 1) for db in (0, 1)]
                cell = 0.0
                for aq in range(g):
                    for bq in range(g):
                        z1, z2 = (ka + xi[aq]) * h, (kb + xi[bq]) * h
                        ker = (z1 * z1 + z2 * z2) ** (-s)
                        psi = 0.0
                        for da, db, ph, d2 in corners:
                            psi += shape[aq][da] * shape[bq][db] * ph / d2
                        cell += wq[aq] * wq[bq] * ker * psi
                total += cell * h * h
        px, qx = ix * h, (n - 1 - ix) * h
        py, qy = iy * h, (n - 1 - iy) * h
        tail = (rect_complement_integral(px, qx, py, qy, s)
                + rect_complement_integral(qx, px, qy, py, s)
                - rect_complement_integral(min(px, qx), min(px, qx), min(py, qy), min(py, qy), s))
        total += 2.0 * vals[ix, iy] * tail
        out.append(C / 2.0 * total)
    return np.array(out)


def pairwise_gagliardo(u, sigma, p, region=None):
    """Gagliardo double sum over dense (N, N) node-pair arrays.

    sum over x != y in the region of |u(x)-u(y)|^p / |x-y|^(N+p sigma),
    times h^(2N), to the power 1/p.  O(N^2) memory: small grids only.
    """
    grid = u.grid
    sel = _region_selector(u, region)
    pts = grid.nodes()[sel.ravel()]
    vals = u.values[sel]
    if vals.size < 2:
        return 0.0
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, 1.0)
    ker = dist ** (-(grid.ndim + p * sigma))
    np.fill_diagonal(ker, 0.0)
    total = float((diff ** p * ker).sum()) * grid.h ** (2 * grid.ndim)
    return total ** (1.0 / p)


def _shifted(values, n, ndim, shift):
    """u(x + shift) on the box lattice, zero beyond the box."""
    if ndim == 1:
        k = shift
        out = np.zeros(n)
        if k >= 0:
            out[: n - k] = values[k:]
        else:
            out[-k:] = values[: n + k]
        return out
    kx, ky = shift
    out = np.zeros((n, n))
    sx = slice(max(0, -kx), min(n, n - kx))
    sy = slice(max(0, -ky), min(n, n - ky))
    out[sx, sy] = values[sx.start + kx: sx.stop + kx, sy.start + ky: sy.stop + ky]
    return out


def shift_loop_besov(u, sigma, p, q):
    """Besov lattice sum with one shifted copy and one lp_norm call per shift."""
    grid = u.grid
    n, h, ndim = grid.n, grid.h, grid.ndim
    second = sigma > 1.0
    vals = u.values

    if ndim == 1:
        shifts = [(k,) for k in range(-(n - 1), n) if k != 0]
    else:
        shifts = [(kx, ky) for kx in range(-(n - 1), n) for ky in range(-(n - 1), n)
                  if (kx, ky) != (0, 0)]

    up_norm = lp_norm(u, p)
    width = (n - 1) * h
    tail_radius = width * np.sqrt(ndim)
    surface = 2.0 if ndim == 1 else 2.0 * np.pi
    if not second:
        disjoint_level = 2.0 ** (1.0 / p) * up_norm
    elif np.isinf(p):
        disjoint_level = 2.0 * up_norm   # the p -> inf limit of (2 + 2^p)^(1/p)
    else:
        disjoint_level = (2.0 + 2.0 ** p) ** (1.0 / p) * up_norm

    q_inf = np.isinf(q)
    acc = 0.0
    sup = 0.0
    for sh in shifts:
        y = np.asarray(sh, float) * h
        ynorm = float(np.sqrt((y ** 2).sum()))
        shift = sh[0] if ndim == 1 else sh
        if second:
            neg = -shift if ndim == 1 else (-shift[0], -shift[1])
            d = _shifted(vals, n, ndim, shift) - 2.0 * vals + _shifted(vals, n, ndim, neg)
        else:
            d = _shifted(vals, n, ndim, shift) - vals
        dn = lp_norm(GridFunction(grid, d), p)
        if q_inf:
            sup = max(sup, dn / ynorm ** sigma)
        else:
            acc += h ** ndim * dn ** q / ynorm ** (ndim + q * sigma)
    if q_inf:
        return max(sup, disjoint_level / tail_radius ** sigma)
    acc += disjoint_level ** q * surface * tail_radius ** (-q * sigma) / (q * sigma)
    return float(acc) ** (1.0 / q)
