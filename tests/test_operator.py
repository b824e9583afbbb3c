import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from fraclab import operator
from fraclab.errors import MemoryBudgetError, SingularOperatorError
from fraclab.gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid, extend_by_zero
from fraclab.localization import remainder_Is
from fraclab.operator import (
    FractionalParams,
    apply_fractional_laplacian,
    assemble_operator_matrix,
    normalization_constant,
    toeplitz_operator,
)
from fraclab.reference import naive_apply_omega
from fraclab.regions import Ball

from conftest import random_dirichlet, traced_peak


def test_normalization_half_is_inverse_pi():
    assert normalization_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_normalization_2d_value():
    # evaluated independently from the closed form with a Gamma routine
    assert normalization_constant(2, 0.75) == pytest.approx(0.1711671296905524, rel=1e-12)
    assert abs(normalization_constant(2, 0.75) - 0.1712) < 5e-5


def test_next_fast_len_matches_scipy():
    want = [scipy.fft.next_fast_len(n, real=True) for n in range(1, 5000)]
    assert [operator.next_fast_len(n) for n in range(1, 5000)] == want


def test_normalization_scipy_cross_check():
    for ndim in (1, 2):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            via_scipy = (s * 2 ** (2 * s) * float(scipy.special.gamma((2 * s + ndim) / 2))
                         / (math.pi ** (ndim / 2) * float(scipy.special.gamma(1 - s))))
            assert normalization_constant(ndim, s) == pytest.approx(via_scipy, rel=1e-12)


def test_normalization_vanishes_as_s_to_zero():
    assert normalization_constant(1, 1e-6) < 1e-5


def test_normalization_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            normalization_constant(1, bad)
    with pytest.raises(ValueError):
        normalization_constant(0, 0.5)


def test_params_cache_matches_closed_form():
    p = FractionalParams(2, 0.31)
    assert p.cns == pytest.approx(normalization_constant(2, 0.31), rel=1e-12)


@pytest.mark.parametrize("ndim", [1, 2])
def test_kernel_built_once_per_ndim_n_s(ndim):
    """Grids of equal n and s share one unit-spacing kernel, whatever their box.

    Each kernel transform is built once per box extent, on first use: the
    operator on Omega builds only its bounding box's, and every grid-box
    product (apply, the three convolutions of remainder_Is) shares one.
    The operator on a box of half-width 1 is 2^(2s) times the operator on
    the same node values over a box of half-width 2 (homogeneity).
    """
    n, params = 17, FractionalParams(ndim, 0.4321)
    grids = [build_grid(ndim, ((-half, half),) * ndim, n, Ball((0.0,) * ndim, half / 2))
             for half in (2.0, 1.0)]
    u = [extend_by_zero(np.linspace(1.0, 2.0, g.n_omega), g) for g in grids]
    misses = toeplitz_operator.cache_info().misses
    matrix = assemble_operator_matrix(grids[0], params)
    op = matrix.kernel
    assert op.transforms == {}
    matrix.solve(matrix.apply(np.ones(grids[0].n_omega)))
    window, box = matrix.window.mask.shape, grids[0].shape
    assert all(w < b for w, b in zip(window, box))
    assert list(op.transforms) == [window]
    wide, narrow = (apply_fractional_laplacian(v, params).values for v in u)
    box_hat = op.transforms[box][0]
    eta = build_cutoff(grids[0], CutoffSpec(Ball((0.0,) * ndim, 0.4), Ball((0.0,) * ndim, 0.8)))
    remainder_Is(u[0], eta, params)
    apply_fractional_laplacian(u[0], params)
    assert sorted(op.transforms) == sorted([window, box])
    assert op.transforms[box][0] is box_hat
    assert toeplitz_operator.cache_info().misses == misses + 1
    assert np.abs(narrow - 2.0 ** (2 * params.s) * wide).max() <= 1e-13 * np.abs(narrow).max()


def test_apply_zero_function(grid65, params_half):
    zero = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    out = apply_fractional_laplacian(zero, params_half)
    assert out.linf() == 0.0


def test_apply_requires_dirichlet(grid65, params_half):
    u = GridFunction(grid65, np.ones(grid65.shape))
    with pytest.raises(ValueError):
        apply_fractional_laplacian(u, params_half)


def _getoor_profile(grid, s):
    pts = grid.nodes()
    r2 = (pts ** 2).sum(axis=1).reshape(grid.shape)
    vals = np.where(grid.mask, np.clip(1.0 - r2, 0.0, None) ** s, 0.0)
    return GridFunction(grid, vals, dirichlet=True)


def test_apply_getoor_half_sphere_density():
    # (-Delta)^(1/2) sqrt(1-x^2)_+ = 1 on (-1,1); interior error shrinks with h
    errs = []
    for n in (129, 257):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        out = apply_fractional_laplacian(_getoor_profile(grid, 0.5), FractionalParams(1, 0.5))
        sel = np.abs(grid.axes[0]) <= 0.5
        errs.append(np.abs(out.values[sel] - 1.0).max())
    assert errs[0] < 0.01
    assert errs[1] < errs[0] / 1.5


def test_apply_fourier_symbol_windowed_sine():
    k, s = 2.0, 0.5
    grid = build_grid(1, ((-16.0, 16.0),), 513, Ball((0.0,), 10.0))
    x = grid.axes[0]
    window = build_cutoff(grid, CutoffSpec(Ball((0.0,), 4.0), Ball((0.0,), 9.0), order=5))
    u = GridFunction(grid, np.sin(k * x) * window.values, dirichlet=True)
    out = apply_fractional_laplacian(u, FractionalParams(1, s))
    i0 = grid.node_index((math.pi / (2 * k),))
    ref = k ** (2 * s) * math.sin(k * x[i0])
    assert abs(out.values[i0] - ref) / abs(ref) < 0.02


def test_matrix_symmetry_and_sign_pattern(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half).matrix
    assert np.abs(A - A.T).max() == 0.0
    off = A - np.diag(np.diag(A))
    assert off.max() <= 0.0
    assert np.diag(A).min() > 0.0
    assert (A @ np.ones(grid65.n_omega)).min() > 0.0


def test_matrix_matches_matrix_free(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_dirichlet(grid65, rng)
        via_matrix = A.matrix @ u.values[grid65.mask]
        via_apply = apply_fractional_laplacian(u, params_half).values[grid65.mask]
        scale = max(1.0, np.abs(via_apply).max())
        assert np.abs(via_matrix - via_apply).max() <= 1e-12 * scale


def test_matrix_matches_naive_double_loop():
    grid = build_grid(1, ((-2.0, 2.0),), 25, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.4)
    A = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(11)
    for _ in range(5):
        vec = rng.standard_normal(grid.n_omega)
        fast = A.matrix @ vec
        slow = naive_apply_omega(extend_by_zero(vec, grid), params)
        assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())


def test_limit_s_to_one_recovers_second_difference_stencil():
    grid = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    A = assemble_operator_matrix(grid, FractionalParams(1, 0.999)).matrix
    h2 = grid.h ** 2
    r = grid.n_omega // 2
    assert A[r, r] * h2 == pytest.approx(2.0, rel=0.02)
    assert A[r, r + 1] * h2 == pytest.approx(-1.0, rel=0.02)
    assert abs(A[r, r + 2] * h2) < 0.01


def test_bilinear_form_self_adjoint_and_coercive(grid65, params_half):
    A = assemble_operator_matrix(grid65, params_half)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(grid65.n_omega)
        w = rng.standard_normal(grid65.n_omega)
        lhs = np.dot(w, A.matrix @ u)
        rhs = np.dot(u, A.matrix @ w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert np.dot(u, A.matrix @ u) > 0.0


def test_quadrature_order_on_smooth_bump():
    # pointwise error vs a reference refinement should fit order >= 1.7
    for s in (0.3, 0.5, 0.7):
        params = FractionalParams(1, s)
        outs = {}
        for n in (65, 129, 257, 513):
            grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
            u = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8), order=5))
            outs[n] = apply_fractional_laplacian(u, params).values
        ref = outs[513]
        errs = [np.abs(outs[n] - ref[:: (513 - 1) // (n - 1)]).max() for n in (65, 129, 257)]
        order = np.polyfit(np.log2([4.0 / (n - 1) for n in (65, 129, 257)]), np.log2(errs), 1)[0]
        assert order >= 1.7, f"s={s}: fitted order {order}"


def test_memory_budget_cap(grid65, monkeypatch):
    monkeypatch.setattr(operator, "DEFAULT_DENSE_CAP", grid65.n_omega - 1)
    A = assemble_operator_matrix(grid65, FractionalParams(1, 0.4321))  # no spectrum kept yet
    with pytest.raises(MemoryBudgetError):
        A.matrix
    with pytest.raises(MemoryBudgetError):
        A.spectrum
    assert A.kernel.spectra == {}


def test_nonpositive_preconditioner_symbol_raises(grid65, params_half):
    # a diagonal below the window's kernel sum leaves the circulant symbol nonpositive
    A = assemble_operator_matrix(grid65, params_half)
    object.__setattr__(A, "kernel", A.kernel._replace(d=0.5 * A.kernel.d))
    with pytest.raises(SingularOperatorError, match="symbol has minimum -"):
        A.solve(np.ones(grid65.n_omega))


def test_spectrum_blocks_ascend_and_a_failed_eigendecomposition_keeps_nothing(
        grid65, params_half, monkeypatch):
    basis = assemble_operator_matrix(grid65, params_half).spectrum
    sizes = [len(orbits) for orbits in basis.orbits]
    assert sum(sizes) == grid65.n_omega and len(sizes) == 2
    for block in np.split(basis.lam, np.cumsum(sizes)[:-1]):
        assert np.all(np.diff(block) >= 0)

    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    fresh = assemble_operator_matrix(grid65, params_half)
    fresh.kernel.spectra.clear()  # else the kept spectrum is read and eigh never runs
    with pytest.raises(SingularOperatorError, match="eigendecomposition failed"):
        fresh.spectrum
    assert fresh.kernel.spectra == {}  # a failure keeps nothing


def test_spectrum_is_kept_with_the_kernel_per_mask_and_spacing(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = operator._parity_eigh
    monkeypatch.setattr(operator, "_parity_eigh", counted)
    s = 0.4123  # a kernel no other test builds, so its spectra start empty

    def made(n=33, half=2.0, omega=Ball((0.0,), 1.0), s=s):
        return assemble_operator_matrix(build_grid(1, ((-half, half),), n, omega),
                                        FractionalParams(1, s))

    first, second = made(), made()
    assert first.grid is not second.grid
    basis = first.spectrum
    assert second.spectrum is basis
    assert "matrix" not in vars(first) and "matrix" not in vars(second)  # no dense gather
    assert len(calls) == 1
    wider = made(half=2.2)  # the same mask at another spacing
    assert np.array_equal(wider.grid.mask, first.grid.mask) and wider.grid.h != first.grid.h
    others = [made(s=0.4124), made(n=35), wider, made(omega=Ball((0.1,), 1.0))]
    for k, other in enumerate(others, start=2):
        kept = other.spectrum
        assert kept is not basis
        assert len(calls) == k
        Q = kept.from_modes(np.eye(other.grid.n_omega)).T
        assert np.abs(other.matrix @ Q - Q * kept.lam).max() <= 1e-12 * kept.lam.max()


def test_butterflies_in_place_equal_the_sums_and_differences_bit_for_bit():
    rng = np.random.default_rng(41)
    for shape in ((3 * operator._GATHER_ROWS + 5, 7), (2 * operator._GATHER_ROWS + 3,)):
        parts = [rng.standard_normal(shape) for _ in range(4)]
        want = [parts[0] + parts[1], parts[0] - parts[1], parts[2] + parts[3], parts[2] - parts[3]]
        want = [want[0] + want[2], want[1] + want[3], want[0] - want[2], want[1] - want[3]]
        got = operator._walsh_hadamard(part.copy() for part in parts)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("ndim, n, bound", [(1, 1025, 1.8), (2, 65, 1.75)])
def test_parity_spectrum_peaks_below_twice_the_basis_it_keeps(ndim, n, bound):
    # the |G| gathered slices are summed in place: the peak is those slices, a butterfly chunk
    # and the eigh of one block, not the slices and their sums together
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, n, Ball((0.0,) * ndim, 1.0))
    matrix = assemble_operator_matrix(grid, FractionalParams(ndim, 0.5))
    matrix.kernel.spectra.clear()  # else the kept spectrum is read and nothing is gathered
    basis, peak = traced_peak(lambda: matrix.spectrum)
    kept = sum(part.nbytes for part in (basis.lam, basis.gather, basis.size, *basis.vectors,
                                        *basis.orbits))
    assert len(basis.vectors) == 2 ** ndim
    assert peak <= bound * kept


@pytest.mark.parametrize("ndim", [1, 2])
def test_restricted_operator_rejects_params_of_the_other_dimension(ndim, monkeypatch):
    # the 2D params on the 1D unit ball once gave apply(ones) half the 1D value, with no error
    from fraclab.elliptic import solve_dirichlet
    from fraclab.parabolic import semigroup_apply, solve_parabolic

    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, 17, Ball((0.0,) * ndim, 1.0))
    swapped = FractionalParams(3 - ndim, 0.5)
    f = np.ones(grid.n_omega)

    def no_kernel(*args):
        raise AssertionError("a kernel was built before the dimension check")

    monkeypatch.setattr(operator, "toeplitz_operator", no_kernel)
    calls = [lambda: assemble_operator_matrix(grid, swapped),
             lambda: operator.OperatorMatrix(grid, swapped),
             lambda: solve_dirichlet(f, swapped, grid),
             lambda: solve_parabolic(f, 1.0, 4, 1.0, swapped, grid),
             lambda: semigroup_apply([f], 0.5, 3, swapped, grid)]
    for call in calls:
        with pytest.raises(ValueError, match="params dimension does not match the grid"):
            call()
