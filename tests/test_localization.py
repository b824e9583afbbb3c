import numpy as np
import pytest

from fraclab.elliptic import solve_dirichlet
from fraclab import localization, operator
from fraclab.errors import FracLabError, LengthMismatchError, LocalizationError
from fraclab.gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid, extend_by_zero
from fraclab.localization import (
    g_bound_monitor,
    localized_rhs,
    product_rule_residual,
    remainder_Is,
)
from fraclab.operator import (
    FractionalParams,
    apply_fractional_laplacian,
    convolve,
    toeplitz_operator,
)
from fraclab.regions import Ball
from fraclab.spaces import lp_norm

from conftest import random_dirichlet


@pytest.fixture
def eta65(grid65):
    return build_cutoff(grid65, CutoffSpec(Ball((0.0,), 0.45), Ball((0.0,), 0.9), order=3))


def test_remainder_zero_function(grid65, eta65, params_half):
    zero = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    assert remainder_Is(zero, eta65, params_half).linf() == 0.0


def test_remainder_constant_eta_vanishes(grid65, bump65, params_half):
    const = GridFunction(grid65, np.full(grid65.shape, 0.7))
    out = remainder_Is(bump65, const, params_half)
    assert out.linf() == 0.0


def test_remainder_rejects_eta_with_two_end_values(grid65, bump65, params_half):
    # beyond the box eta continues by the one value it takes at both box ends
    vals = np.full(grid65.shape, 0.7)
    vals[-1] = 0.8
    with pytest.raises(ValueError):
        remainder_Is(bump65, GridFunction(grid65, vals), params_half)


def test_remainder_symmetric_in_arguments(grid65, bump65, eta65, params_half):
    a = remainder_Is(bump65, eta65, params_half)
    b = remainder_Is(eta65, bump65, params_half)
    scale = max(1.0, a.linf())
    assert np.abs(a.values - b.values).max() <= 1e-12 * scale


def test_remainder_bilinear(grid65, eta65, params_half):
    rng = np.random.default_rng(31)
    u1 = random_dirichlet(grid65, rng)
    u2 = random_dirichlet(grid65, rng)
    lhs = remainder_Is(u1 + u2, eta65, params_half).values
    rhs = remainder_Is(u1, eta65, params_half).values + remainder_Is(u2, eta65, params_half).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
    scaled = remainder_Is(u1 * 3.0, eta65, params_half).values
    assert np.abs(scaled - 3.0 * remainder_Is(u1, eta65, params_half).values).max() <= 1e-12 * max(
        1.0, np.abs(scaled).max())


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_product_rule_residual_decays(s):
    params = FractionalParams(1, s)
    residuals = []
    for n in (65, 129):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        u = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.25), Ball((0.0,), 0.75), order=5))
        eta = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.45), Ball((0.0,), 0.9), order=3))
        residuals.append(product_rule_residual(u, eta, params))
    assert residuals[0] / residuals[1] >= 2.0


def test_product_rule_residual_rejects_eta_with_edge_value(grid65, bump65, params_half):
    # eta = 0.7 on the box edge is no exterior-zero function: the operator term of eta is
    # undefined
    const = GridFunction(grid65, np.full(grid65.shape, 0.7))
    with pytest.raises(ValueError):
        product_rule_residual(bump65, const, params_half)


def test_product_rule_residual_zero_function(grid65, eta65, params_half):
    zero = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    assert product_rule_residual(zero, eta65, params_half) == 0.0


def test_product_rule_residual_on_solution_decays(params_half):
    residuals = []
    for n in (129, 257):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        u = solve_dirichlet(np.ones(grid.n_omega), params_half, grid)
        eta = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.4), Ball((0.0,), 0.8), order=3))
        residuals.append(product_rule_residual(u, eta, params_half))
    assert residuals[0] / residuals[1] >= 2.0


def test_localized_rhs_degenerate_cutoff(grid129, params_half):
    # eta identically 1 on (a neighborhood of) the support of u: the
    # correction terms cancel exactly wherever eta = 1, so F = f there
    u = build_cutoff(grid129, CutoffSpec(Ball((0.0,), 0.2), Ball((0.0,), 0.4), order=3))
    eta = build_cutoff(grid129, CutoffSpec(Ball((0.0,), 0.5), Ball((0.0,), 0.85), order=3))
    f = apply_fractional_laplacian(u, params_half)
    F = localized_rhs(u, eta, f, params_half)
    scale = max(1.0, f.linf())
    ones_region = eta.values == 1.0
    assert np.abs((F.values - f.values)[ones_region]).max() <= 1e-12 * scale


def test_localized_rhs_zero_state(grid65, eta65, params_half):
    zero = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    F = localized_rhs(zero, eta65, zero, params_half)
    assert F.linf() == 0.0


def test_localized_rhs_consistency_check(params_half):
    grid = build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))
    f = np.ones(grid.n_omega)
    u = solve_dirichlet(f, params_half, grid)
    eta = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.4), Ball((0.0,), 0.8), order=3))
    F = localized_rhs(u, eta, f, params_half)
    assert np.isfinite(F.values).all()
    # u solves 2f, not f: (-Delta)^s(2 eta u) - F = 2 eta f peaks at 2 where 2 eta = 2, past
    # the product-rule residual (2.4e-3) plus the solve gap |(-Delta)^s u - f| = 1
    with pytest.raises(LocalizationError, match="gap 2.000e"):
        localized_rhs(solve_dirichlet(2.0 * f, params_half, grid), eta * 2.0, f, params_half)


def test_localized_rhs_rejects_a_source_nan_or_of_the_wrong_length(grid65, eta65, params_half):
    u = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    f = np.ones(grid65.n_omega)
    f[3] = np.nan
    with pytest.raises(FracLabError, match="1 of"):
        localized_rhs(u, eta65, f, params_half)
    with pytest.raises(LengthMismatchError, match=f"for {grid65.n_omega} Omega nodes"):
        localized_rhs(u, eta65, np.ones(grid65.n_omega + 1), params_half)


def test_localized_rhs_norm_stable_under_refinement(params_half):
    norms = []
    for n in (129, 257):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        u = solve_dirichlet(np.ones(grid.n_omega), params_half, grid)
        eta = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.4), Ball((0.0,), 0.8), order=3))
        F = localized_rhs(u, eta, np.ones(grid.n_omega), params_half)
        norms.append(lp_norm(F, 2.0))
    assert norms[1] / norms[0] == pytest.approx(1.0, abs=0.1)


def test_g_bound_ratio_stable_and_scale_invariant(params_half):
    ratios = []
    for n in (129, 257):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        u = solve_dirichlet(np.ones(grid.n_omega), params_half, grid)
        spec = CutoffSpec(Ball((0.0,), 0.4), Ball((0.0,), 0.6), omega2=Ball((0.0,), 0.8))
        report = g_bound_monitor(u, spec, params_half, 2.0)
        ratios.append(report.ratio)
        doubled = g_bound_monitor(u * 2.0, spec, params_half, 2.0)
        assert doubled.ratio == pytest.approx(report.ratio, rel=1e-12)
    assert abs(ratios[1] - ratios[0]) / ratios[0] <= 0.25


def test_g_bound_zero_solution(grid65, params_half):
    zero = extend_by_zero(np.zeros(grid65.n_omega), grid65)
    spec = CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.5), omega2=Ball((0.0,), 0.8))
    report = g_bound_monitor(zero, spec, params_half, 2.0)
    assert report.ratio == 0.0


def test_remainder_far_field_decay_regression():
    # |I_s| outside a dilation of (supp u) union omega decays like the kernel;
    # the constant was measured once on this configuration and is pinned with
    # a 2x margin
    grid = build_grid(1, ((-4.0, 4.0),), 257, Ball((0.0,), 2.0))
    u = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.2), Ball((0.0,), 0.5), order=3))
    eta = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.7), order=3))
    x = grid.axes[0]
    far = np.abs(x) >= 1.4
    pinned = {0.3: 0.34, 0.5: 0.48, 0.7: 0.49}
    for s, cap in pinned.items():
        vals = remainder_Is(u, eta, FractionalParams(1, s)).values
        weighted = np.abs(vals[far]) * np.abs(x[far]) ** (1 + 2 * s)
        assert weighted.max() <= cap


@pytest.mark.parametrize("ndim", [1, 2])
def test_operator_and_remainder_reject_params_of_the_other_dimension(ndim):
    z = (0.0,) * ndim
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, 17, Ball(z, 1.0))
    u = build_cutoff(grid, CutoffSpec(Ball(z, 0.25), Ball(z, 0.75)))
    eta = build_cutoff(grid, CutoffSpec(Ball(z, 0.45), Ball(z, 0.9)))
    other = FractionalParams(3 - ndim, 0.5)
    with pytest.raises(ValueError, match="dimension"):
        apply_fractional_laplacian(u, other)
    with pytest.raises(ValueError, match="dimension"):
        remainder_Is(u, eta, other)


def _count_convolutions(monkeypatch):
    # every grid-box convolution, whether the operator's apply or localization makes it
    calls = []
    for module in (operator, localization):
        monkeypatch.setattr(module, "convolve",
                            lambda op, values: calls.append(values.shape) or convolve(op, values))
    return calls


def test_localized_rhs_and_g_bound_form_each_image_once(monkeypatch, params_half):
    # u, eta - c and u (eta - c): one convolution each, the consistency check included
    grid = build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))
    f = np.ones(grid.n_omega)
    u = solve_dirichlet(f, params_half, grid)
    spec = CutoffSpec(Ball((0.0,), 0.4), Ball((0.0,), 0.6), omega2=Ball((0.0,), 0.8))
    calls = _count_convolutions(monkeypatch)
    localized_rhs(u, build_cutoff(grid, spec), f, params_half)
    assert len(calls) == 3
    calls.clear()
    g_bound_monitor(u, spec, params_half, 2.0)
    assert len(calls) == 3


def test_localized_rhs_rejects_eta_with_edge_value_before_convolving(
        monkeypatch, grid65, bump65, params_half):
    # eta = 0.7 on the box edge is no exterior-zero function: (-Delta)^s eta is undefined
    const = GridFunction(grid65, np.full(grid65.shape, 0.7))
    calls = _count_convolutions(monkeypatch)
    with pytest.raises(ValueError, match="exterior-zero"):
        localized_rhs(bump65, const, np.ones(grid65.n_omega), params_half)
    assert calls == []


@pytest.mark.parametrize("ndim, n", [(1, 257), (2, 65)])
@pytest.mark.parametrize("s", [0.3, 0.7])
def test_localized_rhs_and_g_bound_equal_the_public_composition_bit_for_bit(ndim, n, s):
    # F = eta f + (u (-Delta)^s eta - I_s) and g = u (-Delta)^s eta - I_s from the public calls
    z = (0.0,) * ndim
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, n, Ball(z, 1.0))
    params = FractionalParams(ndim, s)
    f = np.linspace(0.5, 1.5, grid.n_omega)
    u = solve_dirichlet(f, params, grid)
    spec = CutoffSpec(Ball(z, 0.4), Ball(z, 0.6), omega2=Ball(z, 0.8))
    eta = build_cutoff(grid, spec)
    a_eta = apply_fractional_laplacian(eta, params).values
    g = u.values * a_eta - remainder_Is(u, eta, params).values
    F = eta.values * extend_by_zero(f, grid).values + g
    assert np.array_equal(localized_rhs(u, eta, f, params).values, F)
    assert g_bound_monitor(u, spec, params, 2.0).g_norm == lp_norm(GridFunction(grid, g), 2.0)


@pytest.mark.parametrize("ndim, n", [(1, 65), (1, 129), (1, 257),
                                     (2, 17), (2, 25), (2, 33), (2, 49)])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_remainder_matches_the_expanded_formula(ndim, n, s):
    # the bilinear defect e L(u) + u L(e) - L(u e) against its expansion
    # u e d - u (t * e) - e (t * u) + t * (u e), with the same near-field correction
    z = (0.0,) * ndim
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, n, Ball(z, 1.0))
    params = FractionalParams(ndim, s)
    u = build_cutoff(grid, CutoffSpec(Ball(z, 0.25), Ball(z, 0.75), order=5))
    eta = build_cutoff(grid, CutoffSpec(Ball(z, 0.45), Ball(z, 0.9), order=3))
    op = toeplitz_operator(ndim, n, s)
    uv, ev = u.values, eta.values
    old = (uv * ev * op.d - uv * convolve(op, ev) - ev * convolve(op, uv)
           + convolve(op, uv * ev))
    up, ep = np.pad(uv, 1), np.pad(ev, 1)
    for axis in range(ndim):
        fwd = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(ndim))
        bwd = tuple(slice(None, -2) if a == axis else slice(1, -1) for a in range(ndim))
        old -= 0.5 * op.near * (up[fwd] - 2 * uv + up[bwd]) * (ep[fwd] - 2 * ev + ep[bwd])
    old *= params.scale(grid.h)
    new = remainder_Is(u, eta, params).values
    assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()
