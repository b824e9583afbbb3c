"""Property tests: every fast path against a slow one on small grids.

Random s, n, box half-width and Omega (ball, box, disjoint union, scaled
with the box) in 1D and 2D, so the spacing h varies apart from n and
the unit-spacing kernel's h^(-2s) scaling is checked.  The FFT
apply, on the box and restricted to Omega (OperatorMatrix.apply), is
checked against the gathered dense matrix and the naive scalar oracle; the dense matrix for its structure; the FFT remainder against a
per-node pairwise sum that rebuilds each node's truncated weights.  The
shift-domain seminorm sweeps are checked against the pairwise Gagliardo
sum and the per-shift Besov loop, over random p, q, sigma and regions.
Data supported on a random sub-box of the lattice (touching its edge, or
one node) drive the seminorms through their rectangle-sum terms for the
nodes off the support and their closed forms for the far shifts.
At p = 2 the Gagliardo and first-difference Besov sums are FFT
correlations, whose rounding hurts most on smooth data at short shifts;
a smooth cut-off bump checks them there.  p = 1.5 and 3 keep the direct
shift sums covered.
The conjugate-gradient Dirichlet solve meets the residual contract and
agrees with a Cholesky solve of the gathered dense matrix.  Its windowed
circulant preconditioner has a positive symbol, and the restricted apply
and the solve hold on an off-centre rectangle, whose window axes differ,
and on an interval two cells from the box edge, whose window is nearly
the whole box.
The 2D corner-weight table, evaluated on one lattice octant and
transposed into the first quadrant, matches a full-lattice evaluation
and holds the transposition exactly; the tail table matches a
full-lattice evaluation and holds the eight symmetries of the square
exactly, and the kernel is exactly even, t(kappa) = t(-kappa).  The
quadrant integral's power series in the corner angle matches the
incomplete-beta closed form.
The eigenvectors of the operator's spectrum are orthonormal, and the
spectral (I + c A)^(-1) b agrees with a Cholesky solve.  The spectrum,
kept in parity blocks when Omega is mirror-symmetric about the box
centre, matches a plain eigh of the dense matrix and rebuilds it, for
reflection groups of 1, 2 and 4 elements, and its transforms into and
out of the basis invert each other; with no mirror axis it is that
plain eigh, bit for bit.
The implicit-Euler semigroup keeps nonnegative data nonnegative and
contracts the L^1, L^2 and L^inf norms on Omega, and a batch of data
gives each datum its one-datum image, in order.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.special import betainc, betaincc, gammaln
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from fraclab.elliptic import residual_check, solve_dirichlet
from fraclab.gridfn import CutoffSpec, Grid, GridFunction, build_cutoff, build_grid, extend_by_zero
from fraclab.localization import remainder_Is
from fraclab.operator import (
    FractionalParams,
    _mirror_axes,
    apply_fractional_laplacian,
    assemble_operator_matrix,
    kernel_transform,
    toeplitz_operator,
)
from fraclab.parabolic import semigroup_apply
from fraclab.quadrature import (
    _GAUSS_FAR,
    _GAUSS_SCHEDULE,
    cell_corner_weights,
    corner_integral,
    first_cell_moment,
    interior_weights_1d,
    near_square_moment,
    rect_complement_integral,
    sweep_2d,
    tail_coefficient_1d,
    tail_integral_2d,
)
from fraclab.reference import naive_apply_omega, pairwise_gagliardo, shift_loop_besov
from fraclab.regions import Ball, Box, DisjointUnion
from fraclab.spaces import (
    _gradient_components,
    _rectangle_reducer,
    besov_seminorm,
    gagliardo_seminorm,
    lp_norm,
    sobolev_seminorm,
)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _omega(kind, ndim, size, half):
    """Omega inside [-half/2, half/2]^ndim that holds a node of every odd n >= 9."""
    r = 0.5 * half
    zero, one = (0.0,) * ndim, (r,) * ndim
    if kind == "ball":
        return Ball(zero, size * r)
    if kind == "box":
        return Box(tuple(-size * o for o in one), tuple(0.8 * size * o for o in one))
    return DisjointUnion((Box(tuple(-o for o in one), tuple(-0.1 * o for o in one)),
                          Ball(tuple(0.6 * o for o in one), 0.4 * r)))


@st.composite
def problems(draw, ndim, n_max):
    n = 2 * draw(st.integers(4, (n_max - 1) // 2)) + 1
    half = draw(st.floats(0.1, 10.0))
    omega = _omega(draw(st.sampled_from(["ball", "box", "union"])), ndim,
                   draw(st.floats(0.5, 1.0)), half)
    grid = build_grid(ndim, ((-half, half),) * ndim, n, omega)
    s = draw(st.floats(0.05, 0.95))
    return grid, FractionalParams(ndim, s), np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def _rel_gap(fast, slow):
    return float(np.abs(fast - slow).max()) / max(1e-300, float(np.abs(slow).max()))


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_fft_apply_matches_dense_matrix(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, rng = problem
        vec = rng.standard_normal(grid.n_omega)
        fast = apply_fractional_laplacian(extend_by_zero(vec, grid), params).values[grid.mask]
        assert _rel_gap(fast, assemble_operator_matrix(grid, params).matrix @ vec) <= 1e-12

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_restricted_apply_matches_dense_matrix(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, rng = problem
        matrix = assemble_operator_matrix(grid, params)
        vec = rng.standard_normal(grid.n_omega)
        assert _rel_gap(matrix.apply(vec), matrix.matrix @ vec) <= 1e-12

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_windowed_preconditioner_symbol_positive(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, _ = problem
        win = assemble_operator_matrix(grid, params).window
        assert (params.scale(grid.h) * (win.d.max() - win.t_hat.real)).min() > 0.0
        # the zero-frequency entry is the sum of t over the window's offsets
        assert win.d.max() > win.t_hat[(0,) * grid.ndim].real

    check()


# Off-centre rectangle: the two axes of the window differ.  Interval two
# cells from the box edge (Grid skips build_grid's 25% collar): the window
# is nearly the whole box.
OFF_CENTRE = Box((-1.5, -0.3), (0.2, 1.1))
WINDOW_CASES = [
    (build_grid(2, ((-2.0, 2.0),) * 2, 33, OFF_CENTRE), 0.3),
    (build_grid(2, ((-2.0, 2.0),) * 2, 65, OFF_CENTRE), 0.7),
] + [(Grid(1, (-2.0,), (2.0,), 33, Box((-1.8,), (1.8,))), s) for s in (0.05, 0.5, 0.95)]


@pytest.mark.parametrize("grid, s", WINDOW_CASES,
                         ids=["box-2d-33", "box-2d-65", "collar-1d-0.05", "collar-1d-0.5",
                              "collar-1d-0.95"])
def test_window_off_centre_and_near_box(grid, s):
    params = FractionalParams(grid.ndim, s)
    matrix = assemble_operator_matrix(grid, params)
    win = matrix.window
    if grid.ndim == 2:
        assert win.mask.shape[0] != win.mask.shape[1] and win.shape[0] != win.shape[1]
    else:
        assert np.argwhere(grid.mask).min() == 2 and win.mask.shape == (grid.n - 4,)
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(grid.n_omega)
    assert _rel_gap(matrix.apply(vec), matrix.matrix @ vec) <= 1e-12
    f = rng.standard_normal(grid.n_omega)
    pcg = solve_dirichlet(f, params, grid, matrix=matrix).values[grid.mask]
    dense = scipy.linalg.cho_solve(scipy.linalg.cho_factor(matrix.matrix), f)
    assert _rel_gap(pcg, dense) <= 1e-8


def test_window_transform_smaller_than_box_transform():
    grid = build_grid(2, ((-2.0, 2.0),) * 2, 129, Ball((0.0, 0.0), 1.0))
    window = assemble_operator_matrix(grid, FractionalParams(2, 0.5)).window
    _, box_shape = kernel_transform(toeplitz_operator(2, 129, 0.5), grid.shape)
    assert all(side < box for side, box in zip(window.shape, box_shape))


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 11)])
def test_fft_apply_matches_naive_oracle(ndim, n_max):
    @settings(PROPERTY, max_examples=8 if ndim == 2 else 20)
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, rng = problem
        u = extend_by_zero(rng.standard_normal(grid.n_omega), grid)
        fast = apply_fractional_laplacian(u, params).values[grid.mask]
        assert _rel_gap(fast, naive_apply_omega(u, params)) <= 1e-12

    check()


def _full_lattice_corner_weights(n, s):
    """cell_corner_weights evaluated on every cell of the lattice, with no symmetry used."""
    ncell = 2 * n - 2
    base = np.arange(ncell) - (n - 1)
    cw = np.zeros((2, 2, ncell, ncell))
    ka = base[:, None] * np.ones((1, ncell), dtype=int)
    kb = base[None, :] * np.ones((ncell, 1), dtype=int)
    corner_dist = np.minimum(np.abs(ka), np.abs(ka + 1))
    corner_dist = np.maximum(corner_dist, np.minimum(np.abs(kb), np.abs(kb + 1)))
    near = (ka >= -1) & (ka <= 0) & (kb >= -1) & (kb <= 0)
    bounds, schedule = zip(*_GAUSS_SCHEDULE)
    order = np.array(schedule + (_GAUSS_FAR,))[np.searchsorted(bounds, corner_dist)]
    for g in np.unique(order):
        sel = (~near) & (order == g)
        if not sel.any():
            continue
        t, wt = leggauss(g)
        xi = (t + 1.0) / 2.0
        wq = wt / 2.0
        XI, UP = np.meshgrid(xi, xi, indexing="ij")
        WQ = np.outer(wq, wq)
        Z1 = ka[sel][:, None, None] + XI[None]
        Z2 = kb[sel][:, None, None] + UP[None]
        ker = (Z1 * Z1 + Z2 * Z2) ** (-s)
        for da, Nx in ((0, 1.0 - XI), (1, XI)):
            for db, Ny in ((0, 1.0 - UP), (1, UP)):
                cw[da, db][sel] = (WQ[None] * Nx[None] * Ny[None] * ker).sum(axis=(1, 2))
    return cw


def _full_lattice_tail(n, s):
    """tail_integral_2d evaluated at every box node, with no symmetry used."""
    p = np.arange(1, n - 1, dtype=float)
    q = (n - 1) - p
    m = np.minimum(p, q)
    r_plus = rect_complement_integral(p[:, None], q[:, None], p[None, :], q[None, :], s)
    r_cap = rect_complement_integral(m[:, None], m[:, None], m[None, :], m[None, :], s)
    tail = np.zeros((n, n))
    tail[1:-1, 1:-1] = 2.0 * r_plus - r_cap
    return tail


def _corner_integral_betainc(p, q, s):
    """corner_integral by the incomplete-beta closed form.

    B(s+1/2, 1/2)/(4s) (lo^(-2s) I_x(s+1/2, 1/2) + hi^(-2s) I_(1-x)(s+1/2, 1/2)),
    x = lo^2/(lo^2 + hi^2) <= 1/2.  The second term goes through betaincc at x,
    not betainc at 1 - x: the rounding of 1 - x near 1 costs up to 1e-13
    relative at lo/hi ~ 1/4000.
    """
    lo, hi = min(p, q), max(p, q)
    x = lo * lo / (lo * lo + hi * hi)
    beta = np.exp(gammaln(s + 0.5) + gammaln(0.5) - gammaln(s + 1.0))
    return beta / (4 * s) * (lo ** (-2 * s) * betainc(s + 0.5, 0.5, x)
                             + hi ** (-2 * s) * betaincc(0.5, s + 0.5, x))


@settings(PROPERTY, max_examples=200)
@given(st.floats(1.0, 4096.0), st.floats(1.0, 4096.0), st.floats(0.01, 0.99))
@example(1.0, 4096.0, 0.01)
@example(4096.0, 1.0, 0.99)
@example(7.0, 7.0, 0.5)
def test_corner_integral_matches_incomplete_beta(p, q, s):
    exact = _corner_integral_betainc(p, q, s)
    assert abs(corner_integral(p, q, s) / exact - 1.0) <= 1e-14
    assert corner_integral(p, q, s) == corner_integral(q, p, s)


@PROPERTY
@given(st.integers(2, 33), st.floats(0.05, 0.95))
@example(17, 0.5)
@example(32, 0.5)
def test_octant_tables_match_full_lattice(n, s):
    cw, tail = cell_corner_weights(n, s), tail_integral_2d(n, s)
    assert cw.shape == (2, 2, n - 1, n - 1) and not cw.flags.writeable
    assert _rel_gap(cw, _full_lattice_corner_weights(n, s)[:, :, n - 1:, n - 1:]) <= 1e-14
    assert _rel_gap(tail, _full_lattice_tail(n, s)) <= 1e-13
    # the quadrant holds the transposition exactly; the tail both reflections too
    assert np.array_equal(cw, cw.transpose(1, 0, 3, 2))
    assert np.array_equal(tail, tail[::-1]) and np.array_equal(tail, tail.T)
    # the kernel is even by construction, in each axis alone as well
    far = sweep_2d(n, s).far
    assert np.array_equal(far, far[::-1, ::-1]) and np.array_equal(far, far[::-1])


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_matrix_symmetric_m_matrix(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, _ = problem
        A = assemble_operator_matrix(grid, params).matrix
        assert np.array_equal(A, A.T)
        assert (A - np.diag(np.diag(A))).max() <= 0.0
        assert np.diag(A).min() > 0.0
        assert (A @ np.ones(len(A))).min() > 0.0

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_pcg_solve_matches_cholesky(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, rng = problem
        matrix = assemble_operator_matrix(grid, params)
        f = rng.standard_normal(grid.n_omega)
        pcg = solve_dirichlet(f, params, grid, matrix=matrix)
        cho = scipy.linalg.cho_factor(matrix.matrix)
        dense = extend_by_zero(scipy.linalg.cho_solve(cho, f), grid)
        for u in (pcg, dense):
            assert residual_check(u, f, params) <= 1e-10 * np.abs(f).max()
        assert _rel_gap(pcg.values, dense.values) <= 1e-8

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_semigroup_positive_and_contractive(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max), st.floats(0.01, 2.0), st.integers(1, 8), st.integers(1, 5))
    def check(problem, t, nt, k):
        grid, params, rng = problem
        matrix = assemble_operator_matrix(grid, params)
        data = [extend_by_zero(np.abs(rng.standard_normal(grid.n_omega)), grid)
                for _ in range(k)]
        images = semigroup_apply(data, t, nt, params, grid, matrix=matrix)
        assert images.shape == (k, grid.n_omega)
        for phi, row in zip(data, images):
            alone = semigroup_apply(phi, t, nt, params, grid, matrix=matrix)
            assert _rel_gap(row, alone.values[grid.mask]) <= 1e-13
            assert row.min() >= -1e-12
            out = extend_by_zero(row, grid)
            for p in (1.0, 2.0, np.inf):
                before = lp_norm(phi, p, "omega")
                assert lp_norm(out, p, "omega") <= before * (1.0 + 1e-12)

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_spectral_solve_matches_cholesky(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max), st.floats(-4.0, 0.0))
    def check(problem, log_c):
        grid, params, rng = problem
        matrix = assemble_operator_matrix(grid, params)
        basis = matrix.spectrum
        assert matrix.spectrum is basis
        m = grid.n_omega
        Q = basis.from_modes(np.eye(m)).T
        assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-12
        c = 10.0 ** log_c
        b = rng.standard_normal(m)
        # one implicit-Euler step of length c is (I + c A)^(-1) b
        spectral = semigroup_apply(b, c, 1, params, grid, matrix=matrix).values[grid.mask]
        cho = scipy.linalg.cho_factor(np.eye(m) + c * matrix.matrix)
        assert _rel_gap(spectral, scipy.linalg.cho_solve(cho, b)) <= 1e-12

    check()


def _check_spectrum(matrix):
    """spectrum against a plain eigh of the dense matrix: the same one when Omega has no mirror.

    Q is formed from the basis as from_modes(I)^T, and to_modes(I) is Q as well.
    """
    basis = matrix.spectrum
    A = matrix.matrix
    plain_lam, plain_vecs = np.linalg.eigh(A)
    for part in (basis.lam, basis.gather, basis.size, *basis.vectors, *basis.orbits):
        assert not part.flags.writeable
    sizes = [len(orbits) for orbits in basis.orbits]
    assert sum(sizes) == len(A)
    for block in np.split(basis.lam, np.cumsum(sizes)[:-1]):
        assert np.all(np.diff(block) >= 0)
    lam = basis.lam
    assert np.abs(np.sort(lam) - plain_lam).max() <= 1e-12 * np.abs(plain_lam).max()
    Q = basis.from_modes(np.eye(len(A))).T
    assert np.abs(basis.to_modes(np.eye(len(A))) - Q).max() <= 1e-14
    assert np.abs(A @ Q - Q * lam).max() <= 1e-12 * np.abs(lam).max()
    assert np.abs((Q * lam) @ Q.T - A).max() <= 1e-12 * np.abs(A).max()
    assert np.abs(Q.T @ Q - np.eye(len(lam))).max() <= 1e-12
    if not _mirror_axes(matrix.grid, matrix.kernel):
        assert np.array_equal(lam, plain_lam) and np.array_equal(basis.vectors[0], plain_vecs)
        assert np.array_equal(Q, plain_vecs)


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_parity_spectrum_matches_plain_eigh(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max))
    def check(problem):
        grid, params, _ = problem
        _check_spectrum(assemble_operator_matrix(grid, params))

    check()


@pytest.mark.parametrize("ndim, n, omega, group", [
    (1, 33, Ball((0.0,), 1.0), 2),
    (1, 32, Ball((0.0,), 1.0), 2),  # even n: no node on the mirror
    (2, 25, Ball((0.0, 0.0), 1.0), 4),
    (2, 24, Ball((0.0, 0.0), 1.0), 4),
    (2, 25, Box((-1.0, -0.5), (1.0, 1.0)), 2),  # mirror-symmetric in x only
    (2, 25, Box((-0.5, -1.0), (1.0, 1.0)), 2),  # in y only
    (1, 33, Box((-0.5,), (1.0,)), 1),
    (2, 25, Box((-0.5, -0.5), (1.0, 1.0)), 1),
], ids=["1d-ball", "1d-ball-even-n", "2d-ball", "2d-ball-even-n", "2d-box-x", "2d-box-y",
        "1d-off-centre", "2d-off-centre"])
def test_parity_spectrum_per_group_size(ndim, n, omega, group):
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, n, omega)
    matrix = assemble_operator_matrix(grid, FractionalParams(ndim, 0.4))
    assert 2 ** len(_mirror_axes(grid, matrix.kernel)) == group
    _check_spectrum(matrix)
    basis = matrix.spectrum
    assert len(basis.vectors) == group
    rows = np.random.default_rng(group).standard_normal((3, grid.n_omega))
    assert _rel_gap(basis.from_modes(basis.to_modes(rows)), rows) <= 1e-14
    assert _rel_gap(basis.to_modes(basis.from_modes(rows)), rows) <= 1e-14


def _pairwise_remainder(u, eta, c, params):
    """Remainder node by node, each with its own truncated far weights.

    u is continued by 0 and eta by c beyond the box.  At node i the far
    field sums V_i(k) (P(k) + P(-k)) over offsets k with
    P(k) = (u_i - u_{i+k}) (eta_i - eta_{i+k}); the near field multiplies
    central first differences; the tail beyond the box meets 2 u_i (eta_i - c).
    The weights are those of the unit lattice, and the sum is scaled by
    C h^(-2s) at the end.
    """
    grid = u.grid
    n, s, ndim = grid.n, params.s, grid.ndim
    up = np.pad(u.values, n - 1)
    ep = np.pad(eta.values, n - 1, constant_values=c)
    out = np.zeros(grid.shape)
    if ndim == 2:
        cw = _full_lattice_corner_weights(n, s)
        kappa = np.arange(2 * n - 1) - (n - 1)
        d2 = kappa[:, None] ** 2 + kappa[None, :] ** 2
        d2[n - 1, n - 1] = 1
    for i in np.ndindex(grid.shape):
        window = tuple(slice(k, k + 2 * n - 1) for k in i)
        P = (u.values[i] - up[window]) * (eta.values[i] - ep[window])
        near = 0.0
        for axis in range(ndim):
            fwd, bwd = [k + n - 1 for k in i], [k + n - 1 for k in i]
            fwd[axis] += 1
            bwd[axis] -= 1
            near += (up[tuple(fwd)] - up[tuple(bwd)]) * (ep[tuple(fwd)] - ep[tuple(bwd)]) / 2
        tail_phi = 2.0 * u.values[i] * (eta.values[i] - c)
        if ndim == 1:
            w, A = interior_weights_1d(n, s)
            K = max(i[0], n - 1 - i[0])
            V = np.zeros(2 * n - 1)
            V[n: n + K] = w[:K]
            V[n + K - 1] -= A[K - 1]
            out[i] = ((V * (P + P[::-1])).sum() + first_cell_moment(s) * near
                      + tail_phi * tail_coefficient_1d(K, s))
            continue
        ix, iy = i
        off = n - 1
        # far cells: inside either box image seen from the node, minus the near cells
        cells = np.zeros((2 * n - 2, 2 * n - 2), dtype=bool)
        cells[off - ix: off + n - 1 - ix, off - iy: off + n - 1 - iy] = True
        cells[ix: n - 1 + ix, iy: n - 1 + iy] = True
        cells[off - 1: off + 1, off - 1: off + 1] = False
        W = np.zeros((2 * n - 1, 2 * n - 1))
        for da in (0, 1):
            for db in (0, 1):
                W[da: da + 2 * n - 2, db: db + 2 * n - 2] += cw[da, db] * cells
        V = W / d2
        tail = 0.0
        if 0 < min(ix, iy) and max(ix, iy) < n - 1:
            px, qx, py, qy = ix, n - 1 - ix, iy, n - 1 - iy
            mx, my = min(px, qx), min(py, qy)
            tail = (rect_complement_integral(px, qx, py, qy, s)
                    + rect_complement_integral(qx, px, qy, py, s)
                    - rect_complement_integral(mx, mx, my, my, s))
        out[i] = ((V * (P + P[::-1, ::-1])).sum() + near_square_moment(s) * near
                  + tail_phi * tail) / 2
    return params.cns * grid.h ** (-2 * s) * out


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_fft_remainder_matches_pairwise_sum(ndim, n_max):
    @settings(PROPERTY, max_examples=10)
    @given(problems(ndim, n_max), st.floats(-1.0, 1.0), st.booleans())
    def check(problem, c, exterior_zero):
        grid, params, rng = problem
        u = extend_by_zero(rng.standard_normal(grid.n_omega), grid)
        if exterior_zero:
            eta, c = extend_by_zero(rng.uniform(0.0, 1.0, grid.n_omega), grid), 0.0
        else:
            vals = np.full(grid.shape, c)
            vals[(slice(1, -1),) * ndim] += rng.standard_normal((grid.n - 2,) * ndim)
            eta = GridFunction(grid, vals)
        slow = _pairwise_remainder(u, eta, c, params)
        assert _rel_gap(remainder_Is(u, eta, params).values, slow) <= 1e-12

    check()


def _region(kind, ndim, half=2.0):
    """Region of a seminorm in [-half, half]^ndim: whole box (None), Omega, ball, box or union."""
    r = 0.5 * half
    one = (r,) * ndim
    return {"box-all": None, "omega": "omega",
            "ball": Ball(tuple(0.3 * o for o in one), 0.9 * r),
            "box": Box(tuple(-1.2 * o for o in one), tuple(0.5 * o for o in one)),
            "union": DisjointUnion((Box(tuple(-1.5 * o for o in one), tuple(-0.6 * o for o in one)),
                                    Ball(tuple(0.5 * o for o in one), 0.6 * r)))}[kind]


def _pairwise_sobolev(u, sigma, p, region):
    """The order-sigma seminorm composed from pairwise Gagliardo sums."""
    if sigma < 1.0:
        return pairwise_gagliardo(u, sigma, p, region)
    comps = _gradient_components(u)
    if sigma == 1.0:
        return sum(lp_norm(g, p, region) ** p for g in comps) ** (1.0 / p)
    return sum(pairwise_gagliardo(g, sigma - 1.0, p, region) ** p for g in comps) ** (1.0 / p)


# 2.0 takes the FFT correlations; 1.5 and 3.0 the direct shift sums
P_VALUES = st.sampled_from([1.5, 2.0, 3.0])
LOW = st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3)
HIGH = st.lists(st.floats(1.05, 1.95), min_size=1, max_size=3)


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_sobolev_sweep_matches_pairwise_sum(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max), P_VALUES, LOW, HIGH,
           st.sampled_from(["box-all", "omega", "ball", "box", "union"]))
    def check(problem, p, low, high, kind):
        grid, _, rng = problem
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        region = _region(kind, ndim, grid.box_hi[0])
        sweep = low + [1.0] + high
        fast = sobolev_seminorm(u, sweep, p, region)
        slow = np.array([_pairwise_sobolev(u, sg, p, region) for sg in sweep])
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_besov_sweep_matches_shift_loop(ndim, n_max):
    @PROPERTY
    @given(problems(ndim, n_max), P_VALUES, st.sampled_from(["2", "p", "inf"]), LOW, HIGH)
    def check(problem, p, q_kind, low, high):
        grid, _, rng = problem
        u = extend_by_zero(rng.standard_normal(grid.n_omega), grid)
        q = {"2": 2.0, "p": p, "inf": np.inf}[q_kind]
        sweep = low + high
        fast = besov_seminorm(u, sweep, p, q)
        slow = np.array([shift_loop_besov(u, sg, p, q) for sg in sweep])
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))

    check()


SMOOTH_SWEEP = (0.1, 0.5, 0.9, 0.99, 1.5)


@pytest.mark.parametrize("ndim, n, region", [
    (1, 513, None),
    (1, 513, Box((-1.5,), (0.2,))),  # crosses the boundary of Omega at -1
    (2, 33, None),
], ids=["1d-box", "1d-region-across-omega", "2d-box"])
def test_p2_sweeps_match_oracles_on_a_smooth_bump(ndim, n, region):
    # the cut-off bump the probe measures: its short-shift sums are the smallest
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, n, Ball((0.0,) * ndim, 1.0))
    origin = (0.0,) * ndim
    u = build_cutoff(grid, CutoffSpec(Ball(origin, 0.4), Ball(origin, 0.7)))
    fast = sobolev_seminorm(u, SMOOTH_SWEEP, 2.0, region)
    slow = np.array([_pairwise_sobolev(u, sg, 2.0, region) for sg in SMOOTH_SWEEP])
    assert np.all(np.abs(fast - slow) <= 1e-12 * slow)
    if region is None:
        fast = besov_seminorm(u, SMOOTH_SWEEP, 2.0, 2.0)
        slow = np.array([shift_loop_besov(u, sg, 2.0, 2.0) for sg in SMOOTH_SWEEP])
        assert np.all(np.abs(fast - slow) <= 1e-12 * slow)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_besov_sup_taken_at_disjoint_tail(p):
    """q = inf: for a plateau and a small sigma the disjoint-support tail
    level / R^sigma exceeds every lattice shift, so it sets the supremum."""
    grid = build_grid(1, ((-2.0, 2.0),), 33, Ball((0.0,), 1.0))
    u = extend_by_zero(np.ones(grid.n_omega), grid)
    sigma = 0.05
    tail = 2.0 ** (1.0 / p) * lp_norm(u, p) / ((grid.n - 1) * grid.h) ** sigma
    fast = besov_seminorm(u, sigma, p, np.inf)
    assert abs(fast - shift_loop_besov(u, sigma, p, np.inf)) <= 1e-12 * tail
    assert abs(fast - tail) <= 1e-12 * tail


@st.composite
def supported(draw, ndim, n_max):
    """u on the box lattice, nonzero exactly on a random sub-box B of it.

    Omega covers the whole box, so u is exterior-zero even where B touches
    the box edge and the zero-beyond-the-box truncation enters the sums.
    One draw in four puts B on a single node.  The values are random, or
    a noisy plateau, 1 + U(0, 0.1): its differences inside B are small, so
    at p = inf the nodes off B, where |u(x +- k)| stands alone, can set
    the per-shift maxima, anywhere along B's edge.
    """
    n = draw(st.integers(9, n_max))
    grid = Grid(ndim, (-2.0,) * ndim, (2.0,) * ndim, n, Box((-3.0,) * ndim, (3.0,) * ndim))
    one_node = draw(st.sampled_from([False, False, False, True]))
    box = []
    for _ in range(ndim):
        lo = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
        hi = lo + 1 if one_node else draw(st.sampled_from([n]) | st.integers(lo + 1, n))
        box.append(slice(lo, hi))
    plateau = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = tuple(b.stop - b.start for b in box)
    values = np.zeros(grid.shape)
    values[tuple(box)] = 1.0 + 0.1 * rng.random(shape) if plateau else rng.standard_normal(shape)
    return GridFunction(grid, values, dirichlet=True)


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_gagliardo_over_support_matches_pairwise_sum(ndim, n_max):
    @PROPERTY
    @given(supported(ndim, n_max), P_VALUES, LOW,
           st.sampled_from(["box-all", "ball", "box", "union"]))
    def check(u, p, sweep, kind):
        region = _region(kind, ndim)
        fast = gagliardo_seminorm(u, sweep, p, region)
        slow = np.array([pairwise_gagliardo(u, sg, p, region) for sg in sweep])
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))

    check()


@pytest.mark.parametrize("ndim, n_max", [(1, 33), (2, 17)])
def test_besov_over_support_matches_shift_loop(ndim, n_max):
    @PROPERTY
    @given(supported(ndim, n_max), st.sampled_from([1.5, 2.0, 3.0, np.inf]),
           st.sampled_from(["2", "p", "inf"]), LOW, HIGH)
    def check(u, p, q_kind, low, high):
        q = {"2": 2.0, "p": p, "inf": np.inf}[q_kind]
        sweep = low + high
        fast = besov_seminorm(u, sweep, p, q)
        slow = np.array([shift_loop_besov(u, sg, p, q) for sg in sweep])
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))

    check()


@PROPERTY
@given(st.integers(1, 17), st.integers(1, 17), st.integers(0, 2 ** 32 - 1))
def test_rectangle_sums_and_maxima_match_slices(m0, m1, seed):
    """The summed-area and sparse tables against slices, empty rectangles included."""
    rng = np.random.default_rng(seed)
    P = rng.random((m0, m1))
    lo = rng.integers(0, [m0 + 1, m1 + 1], size=(64, 2))
    hi = rng.integers(0, [m0 + 1, m1 + 1], size=(64, 2))
    for maximum, slice_reduce in ((False, np.sum), (True, np.max)):
        fast = _rectangle_reducer(P, maximum)(lo, hi)
        for value, (r0, c0), (r1, c1) in zip(fast, lo, hi):
            block = P[r0:r1, c0:c1]
            slow = slice_reduce(block) if block.size else 0.0
            assert abs(value - slow) <= 1e-12 * max(1.0, abs(slow))
