import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fraclab import quadrature
from fraclab.gridfn import GridFunction, build_grid, extend_by_zero
from fraclab.operator import (
    FractionalParams,
    apply_fractional_laplacian,
    assemble_operator_matrix,
    toeplitz_operator,
)
from fraclab.quadrature import cell_corner_weights, rect_complement_integral, tail_integral_2d
from fraclab.reference import naive_apply_omega
from fraclab.regions import Ball

from conftest import traced_peak


def _grid2d(n=33, radius=1.0):
    return build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), n, Ball((0.0, 0.0), radius))


def _getoor2d(grid, s):
    pts = grid.nodes()
    r2 = (pts ** 2).sum(axis=1).reshape(grid.shape)
    vals = np.where(grid.mask, np.clip(1.0 - r2, 0.0, None) ** s, 0.0)
    return GridFunction(grid, vals, dirichlet=True), r2


def test_apply_getoor_2d():
    # (-Delta)^s (1-|x|^2)^s_+ is the constant 4^s Gamma(1+s)^2 on the unit disk
    for s in (0.5, 0.75):
        grid = _grid2d(33)
        u, r2 = _getoor2d(grid, s)
        lam = 2.0 ** (2 * s) * math.gamma(1 + s) * math.gamma(1 + s)
        out = apply_fractional_laplacian(u, FractionalParams(2, s))
        inner = r2 <= 0.25
        rel = np.abs(out.values[inner] - lam) / lam
        assert rel.max() < 0.01, f"s={s}: {rel.max()}"


def test_matrix_2d_structure():
    grid = _grid2d(17)
    A = assemble_operator_matrix(grid, FractionalParams(2, 0.6)).matrix
    assert np.abs(A - A.T).max() == 0.0
    assert (A - np.diag(np.diag(A))).max() <= 0.0
    assert np.diag(A).min() > 0.0
    assert (A @ np.ones(len(A))).min() > 0.0


def test_matrix_2d_matches_apply():
    grid = _grid2d(17)
    params = FractionalParams(2, 0.5)
    A = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(5)
    for _ in range(3):
        vec = rng.standard_normal(grid.n_omega)
        u = extend_by_zero(vec, grid)
        via_matrix = A.matrix @ vec
        via_apply = apply_fractional_laplacian(u, params).values[grid.mask]
        scale = max(1.0, np.abs(via_apply).max())
        assert np.abs(via_matrix - via_apply).max() <= 1e-12 * scale


def test_matrix_2d_matches_naive_double_loop():
    grid = build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 9, Ball((0.0, 0.0), 0.6))
    params = FractionalParams(2, 0.7)
    A = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(17)
    for _ in range(3):
        vec = rng.standard_normal(grid.n_omega)
        fast = A.matrix @ vec
        slow = naive_apply_omega(extend_by_zero(vec, grid), params)
        assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())


def test_rect_complement_integral_against_polar_quadrature():
    # independent oracle: 1/(2s) * int_0^2pi R(theta)^(-2s) dtheta with R the
    # distance from the origin to the rectangle boundary along theta.  R is
    # smooth between the four corner angles, so each of those arcs gets its
    # own Gauss rule.
    def oracle(p1, q1, p2, q2, s):
        corners = np.sort(np.arctan2([q2, q2, -p2, -p2], [q1, -p1, -p1, q1]) % (2 * math.pi))
        ends = np.append(corners, corners[0] + 2 * math.pi)
        t, w = leggauss(48)
        total = 0.0
        for a, b in zip(ends[:-1], ends[1:]):
            theta = a + (t + 1.0) * (b - a) / 2
            weight = w * (b - a) / 2
            cos, sin = np.cos(theta), np.sin(theta)
            R = np.full_like(theta, np.inf)
            with np.errstate(divide="ignore"):
                for d, trig in ((q1, cos), (p1, -cos), (q2, sin), (p2, -sin)):
                    cand = np.where(trig > 0, d / np.where(trig > 0, trig, 1.0), np.inf)
                    R = np.minimum(R, cand)
            total += float((weight * R ** (-2 * s)).sum())
        return total / (2 * s)

    for (p1, q1, p2, q2, s) in ((1.0, 1.0, 1.0, 1.0, 0.5),
                                (0.5, 2.0, 1.0, 3.0, 0.3),
                                (2.0, 0.25, 0.75, 1.5, 0.8)):
        exact = rect_complement_integral(p1, q1, p2, q2, s)
        approx = oracle(p1, q1, p2, q2, s)
        assert exact == pytest.approx(approx, rel=1e-6)


def _tail_mpmath(n, i, j, s):
    """tail_integral_2d at node (i, j) to 30 digits.

    The cancelling rectangle formula 2 R(B+) - R(B+ cap B-), each R the
    four half-planes less the four quadrants, with the quadrant integrals
    in incomplete-beta form:
    B(s+1/2, 1/2)/(4s) (lo^(-2s) I_x(s+1/2, 1/2) + hi^(-2s) I_(1-x)(s+1/2, 1/2)),
    x = lo^2/(lo^2 + hi^2).
    """
    with mp.workdps(30):
        s = mp.mpf(s)
        beta = mp.beta(s + 0.5, 0.5)

        def corner(p, q):
            lo, hi = mp.mpf(min(p, q)), mp.mpf(max(p, q))
            x = lo * lo / (lo * lo + hi * hi)
            return beta / (4 * s) * (lo ** (-2 * s) * mp.betainc(s + 0.5, 0.5, 0, x, regularized=True)
                                     + hi ** (-2 * s) * mp.betainc(s + 0.5, 0.5, 0, 1 - x, regularized=True))

        def rect(p1, q1, p2, q2):
            halfplanes = sum(beta * mp.mpf(d) ** (-2 * s) / (2 * s) for d in (p1, q1, p2, q2))
            return halfplanes - sum(corner(a, b) for a in (p1, q1) for b in (p2, q2))

        pi, qi, pj, qj = i, n - 1 - i, j, n - 1 - j
        mi, mj = min(pi, qi), min(pj, qj)
        return 2 * rect(pi, qi, pj, qj) - rect(mi, mi, mj, mj)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_tail_integral_2d_against_mpmath(s):
    # edge, near-edge and centre nodes, where the tail is small against its O(1) terms
    n = 257
    tail = tail_integral_2d(n, s)
    for i, j in ((1, 1), (1, 25), (1, 128), (2, 7), (128, 1), (64, 3), (128, 128)):
        exact = _tail_mpmath(n, i, j, s)
        assert abs(tail[i, j] / float(exact) - 1.0) <= 1e-14, (i, j)


def test_2d_kernel_build_memory():
    # the build holds the first-quadrant tables and one (2n-1)^2 offset window
    toeplitz_operator.cache_clear()
    cell_corner_weights.cache_clear()
    tracemalloc.start()
    try:
        toeplitz_operator(2, 257, 0.75)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("g", [4, 6, 8, 12, 16, 20, 64])
def test_newton_gauss_rule(g):
    # every order the quadrature uses: exact on x^d up to d = 2g - 1, symmetric bit for bit,
    # within rounding of numpy's eigenvalue rule, and shared read-only through the cache
    x, w = quadrature._leggauss(g)
    for d in range(2 * g):
        assert abs(w @ x ** d - (1 + (-1) ** d) / (d + 1)) <= 1e-15, d
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.abs(x - leggauss(g)[0]).max() <= 2e-16
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n", [17, 65, 129, 513])
def test_kernel_in_row_blocks_equals_one_block(n, monkeypatch):
    # the tail table, the folds and the summed-area table are elementwise or per-axis cumsums,
    # so row blocks of any height give the one-block kernel bit for bit
    s = 0.75
    builds = []
    for cells in (quadrature._BLOCK_CELLS, 1, 1 << 40):  # default, one row per block, one block
        monkeypatch.setattr(quadrature, "_BLOCK_CELLS", cells)
        builds.append(toeplitz_operator.__wrapped__(2, n, s))
    for op in builds[:2]:
        assert np.array_equal(op.t, builds[2].t) and np.array_equal(op.d, builds[2].d)
        assert op.near == builds[2].near


def test_2d_tail_and_sweep_peaks_in_row_blocks():
    # at n = 513 one pass peaked at 15.7 MB (tail) and 32.5 MB (sweep) for 2.1 MB and
    # 8.4 + 2.1 MB kept; the corner table is cached before, as a refinement ladder has it
    n, s = 513, 0.75
    cell_corner_weights(n, s)
    _, tail_peak = traced_peak(tail_integral_2d, n, s)
    _, sweep_peak = traced_peak(quadrature.sweep_2d, n, s)
    assert tail_peak <= 6e6
    assert sweep_peak <= 24e6


@pytest.mark.parametrize("s", [0.25, 0.75])
@pytest.mark.parametrize("n", [17, 129, 1025])
def test_corner_weight_table_in_cell_passes_equals_one_pass(n, s, monkeypatch):
    # at n = 1025 the lowest Gauss order covers 524k octant cells, evaluated in several passes
    tracemalloc.start()
    try:
        table = cell_corner_weights.__wrapped__(n, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if n == 1025:
        assert peak < 100e6  # 169 MB in one pass, for a 34 MB table
    monkeypatch.setattr(quadrature, "_CORNER_CELLS", 1 << 40)
    assert np.array_equal(table, cell_corner_weights.__wrapped__(n, s))
