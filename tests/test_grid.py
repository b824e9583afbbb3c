import numpy as np
import pytest

from fraclab.errors import CollarError, GridSizeError, LengthMismatchError, NestingError
from fraclab.gridfn import (
    CutoffSpec,
    GridFunction,
    build_cutoff,
    build_grid,
    extend_by_zero,
    smoothstep,
)
from fraclab.regions import Ball, Box


def test_coarse_grid_mask_is_single_center_node():
    # box [-4,4] with 9 nodes has h=1; only x=0 lies inside (-1,1)
    g = build_grid(1, ((-4.0, 4.0),), 9, Ball((0.0,), 1.0))
    assert g.h == pytest.approx(1.0)
    assert g.n_omega == 1
    assert g.axes[0][g.mask][0] == pytest.approx(0.0)


def test_omega_exceeding_box_is_rejected():
    with pytest.raises(CollarError):
        build_grid(1, ((-4.0, 4.0),), 9, Ball((0.0,), 5.0))


def test_thin_collar_rejected():
    # omega (-3,3) leaves collar 1 < 0.25 * diameter 6
    with pytest.raises(CollarError):
        build_grid(1, ((-4.0, 4.0),), 33, Ball((0.0,), 3.0))


def test_too_few_nodes_rejected():
    with pytest.raises(GridSizeError):
        build_grid(1, ((-2.0, 2.0),), 7, Ball((0.0,), 1.0))


def test_rho_is_distance_to_omega_boundary(grid65):
    x = grid65.axes[0]
    i = grid65.node_index((0.5,))
    assert grid65.rho[i] == pytest.approx(0.5)
    assert np.all(grid65.rho[~grid65.mask] == 0.0)
    assert np.all(grid65.rho >= 0.0)


def test_rho_lipschitz_between_neighbors():
    for region in (Ball((0.1,), 1.0), Box((-0.9,), (1.1,))):
        g = build_grid(1, ((-3.0, 3.0),), 97, region)
        assert np.abs(np.diff(g.rho)).max() <= g.h + 1e-12
    g2 = build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 17, Ball((0.0, 0.0), 1.0))
    for ax in (0, 1):
        assert np.abs(np.diff(g2.rho, axis=ax)).max() <= g2.h + 1e-12


def test_2d_box_must_be_square():
    with pytest.raises(ValueError):
        build_grid(2, ((-2.0, 2.0), (-1.0, 2.0)), 17, Ball((0.0, 0.0), 0.5))


def test_extend_by_zero_and_restrict_identity(grid65):
    ones = np.ones(grid65.n_omega)
    u = extend_by_zero(ones, grid65)
    assert u.dirichlet
    assert np.all(u.values[grid65.mask] == 1.0)
    assert np.all(u.values[~grid65.mask] == 0.0)
    again = extend_by_zero(u.on_omega(), grid65)
    assert np.array_equal(again.values, u.values)


def test_extend_by_zero_length_mismatch(grid65):
    with pytest.raises(LengthMismatchError):
        extend_by_zero(np.ones(3), grid65)
    assert extend_by_zero(np.zeros(grid65.n_omega), grid65).linf() == 0.0


def test_dirichlet_flag_validates_exterior(grid65):
    vals = np.ones(grid65.shape)
    with pytest.raises(ValueError):
        GridFunction(grid65, vals, dirichlet=True)


def test_smoothstep_clamps_and_increases():
    t = np.linspace(-0.5, 1.5, 101)
    for order in (2, 3, 5):
        v = smoothstep(t, order)
        assert v[0] == 0.0 and v[-1] == 1.0
        assert np.all(np.diff(v) >= -1e-15)
        assert smoothstep(np.array([0.5]), order)[0] == pytest.approx(0.5)


def test_cutoff_clauses_hold_nodewise(grid129):
    spec = CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8), order=3)
    eta = build_cutoff(grid129, spec)
    pts = grid129.nodes()
    inner = spec.inner.contains(pts).reshape(grid129.shape)
    outer = spec.outer.contains(pts).reshape(grid129.shape)
    assert np.all(eta.values[inner] == 1.0)
    assert np.all(eta.values[~outer] == 0.0)
    assert np.all((eta.values >= 0.0) & (eta.values <= 1.0))
    assert eta.dirichlet


def test_cutoff_invalid_nesting():
    with pytest.raises(NestingError):
        CutoffSpec(Ball((0.0,), 0.8), Ball((0.0,), 0.8))
    with pytest.raises(NestingError):
        CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.5), omega2=Ball((0.0,), 0.5))
    with pytest.raises(ValueError):
        CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8), order=1)


def test_cutoff_outer_must_nest_in_omega(grid65):
    spec = CutoffSpec(Ball((0.0,), 0.5), Ball((0.0,), 1.5))
    with pytest.raises(NestingError):
        build_cutoff(grid65, spec)


def test_refine_preserves_nodes(grid65):
    fine = grid65.refine()
    assert fine.n == 129
    assert np.allclose(fine.axes[0][::2], grid65.axes[0])
    assert fine.h == pytest.approx(grid65.h / 2)
