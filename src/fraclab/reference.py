"""Deliberately naive scalar re-evaluation of the operator quadrature.

This is the slow cross-check path: plain Python loops over node pairs and
cells, recomputing every weight from the defining formulas with scalar
arithmetic.  It shares no array bookkeeping with the fast path and exists
so the matrix/apply implementations can be verified against an
independent traversal on small grids.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .quadrature import _gauss_order, rect_complement_integral


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
