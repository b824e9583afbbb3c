import math

import numpy as np
import pytest

from fraclab.gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid, extend_by_zero
from fraclab.operator import FractionalParams, apply_fractional_laplacian
from fraclab.regions import Ball
from fraclab.reference import shift_loop_besov
from fraclab.spaces import (
    _difference_norms,
    besov_seminorm,
    gagliardo_seminorm,
    lp_norm,
    potential_norm,
    sobolev_seminorm,
)

from conftest import random_dirichlet


def test_lp_norm_basics(grid129):
    zero = extend_by_zero(np.zeros(grid129.n_omega), grid129)
    assert lp_norm(zero, 2.0) == 0.0
    ones = extend_by_zero(np.ones(grid129.n_omega), grid129)
    assert lp_norm(ones, 2.0, "omega") == pytest.approx(math.sqrt(2.0), abs=0.05)
    peak = np.zeros(grid129.n_omega)
    peak[3] = 3.0
    assert lp_norm(extend_by_zero(peak, grid129), math.inf) == 3.0


def test_lp_norm_rejects_bad_p(grid129):
    ones = extend_by_zero(np.ones(grid129.n_omega), grid129)
    with pytest.raises(ValueError):
        lp_norm(ones, 0.5)


def test_gagliardo_zero_and_constant(grid129):
    zero = extend_by_zero(np.zeros(grid129.n_omega), grid129)
    assert gagliardo_seminorm(zero, 0.5, 2.0) == 0.0
    # constant over the probed region: differences vanish inside it
    ones = extend_by_zero(np.ones(grid129.n_omega), grid129)
    assert gagliardo_seminorm(ones, 0.5, 2.0, Ball((0.0,), 0.5)) == 0.0


def _jump(grid):
    x = grid.axes[0]
    return GridFunction(grid, np.where((x > 0) & grid.mask, 1.0, 0.0), dirichlet=True)


@pytest.mark.parametrize("ndim", [1, 2])
def test_seminorms_of_zero_are_exactly_zero(ndim):
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, 33, Ball((0.0,) * ndim, 1.0))
    zero = extend_by_zero(np.zeros(grid.n_omega), grid)
    assert gagliardo_seminorm(zero, [0.25, 0.75], 2.0).tolist() == [0.0, 0.0]
    for p in (2.0, math.inf):
        for q in (2.0, math.inf):
            assert besov_seminorm(zero, [0.5, 1.5], p, q).tolist() == [0.0, 0.0]


def test_gagliardo_jump_divergence_threshold():
    # sigma p >= 1: the indicator's seminorm grows without bound under
    # refinement; sigma p < 1: it stabilizes
    g1 = build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))
    g2 = g1.refine()
    div = [gagliardo_seminorm(_jump(g), 0.9, 2.0, g.omega) for g in (g1, g2)]
    assert div[1] / div[0] >= 1.2
    stable = [gagliardo_seminorm(_jump(g), 0.4, 2.0, g.omega) for g in (g1, g2)]
    assert 0.8 <= stable[1] / stable[0] <= 1.2


def test_gagliardo_region_monotonicity(grid129, params_half):
    rng = np.random.default_rng(2)
    u = random_dirichlet(grid129, rng)
    small = gagliardo_seminorm(u, 0.5, 2.0, Ball((0.0,), 0.5))
    big = gagliardo_seminorm(u, 0.5, 2.0, Ball((0.0,), 0.9))
    assert small <= big


def test_estimators_absolutely_homogeneous(grid65, bump65, params_half):
    for fn in (lambda v: lp_norm(v, 3.0),
               lambda v: gagliardo_seminorm(v, 0.6, 2.0),
               lambda v: besov_seminorm(v, 0.6, 2.0, 2.0),
               lambda v: potential_norm(v, params_half, 2.0)):
        base = fn(bump65)
        assert fn(bump65 * -2.5) == pytest.approx(2.5 * base, rel=1e-12)


def test_triangle_inequality_numerically(grid65):
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_dirichlet(grid65, rng)
        w = random_dirichlet(grid65, rng)
        for fn in (lambda v: lp_norm(v, 2.0),
                   lambda v: gagliardo_seminorm(v, 0.4, 2.0)):
            assert fn(u + w) <= fn(u) + fn(w) + 1e-10


def test_gagliardo_validity_ranges(grid65, bump65):
    for bad_sigma in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            gagliardo_seminorm(bump65, bad_sigma, 2.0)
    with pytest.raises(ValueError):
        gagliardo_seminorm(bump65, 0.5, 1.0)


def test_besov_zero_and_smooth_stability():
    vals = {}
    for n in (97, 193):
        g = build_grid(1, ((-3.0, 3.0),), n, Ball((0.0,), 1.0))
        zero = extend_by_zero(np.zeros(g.n_omega), g)
        assert besov_seminorm(zero, 0.5, 2.0, 2.0) == 0.0
        u = build_cutoff(g, CutoffSpec(Ball((0.0,), 0.25), Ball((0.0,), 0.6), order=4))
        vals[n] = (besov_seminorm(u, 0.6, 2.0, 2.0), besov_seminorm(u, 1.3, 2.0, 2.0))
    for i in (0, 1):
        ratio = vals[193][i] / vals[97][i]
        assert 0.8 <= ratio <= 1.2


def test_besov_matches_gagliardo_when_p_equals_q():
    # B^s_{p,p} = W^{s,p}: the discrete estimators agree within 5% once the
    # kernel decays fast enough that beyond-box pairs are negligible
    g = build_grid(1, ((-3.0, 3.0),), 193, Ball((0.0,), 1.0))
    u = build_cutoff(g, CutoffSpec(Ball((0.0,), 0.25), Ball((0.0,), 0.6), order=4))
    for sigma, p in ((0.5, 2.0), (0.6, 2.0), (0.5, 3.0)):
        bes = besov_seminorm(u, sigma, p, p)
        gag = gagliardo_seminorm(u, sigma, p)
        assert abs(bes - gag) / gag < 0.05, (sigma, p)


def test_besov_sup_variant(grid65, bump65):
    v = besov_seminorm(bump65, 0.5, 2.0, math.inf)
    assert v > 0.0
    assert np.isfinite(v)


def test_besov_rejects_sigma_one(bump65):
    with pytest.raises(ValueError):
        besov_seminorm(bump65, 1.0, 2.0, 2.0)


def test_sobolev_seminorm_composed_range(grid65, bump65):
    lo = sobolev_seminorm(bump65, 0.9, 2.0)
    mid = sobolev_seminorm(bump65, 1.0, 2.0)
    hi = sobolev_seminorm(bump65, 1.4, 2.0)
    assert all(np.isfinite(v) and v > 0 for v in (lo, mid, hi))
    with pytest.raises(ValueError):
        sobolev_seminorm(bump65, 2.0, 2.0)


def test_potential_norm_zero_and_getoor():
    errs = []
    for n in (129, 257):
        g = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        params = FractionalParams(1, 0.5)
        zero = extend_by_zero(np.zeros(g.n_omega), g)
        assert potential_norm(zero, params, 2.0) == 0.0
        x = g.axes[0]
        u = GridFunction(g, np.where(g.mask, np.clip(1 - x * x, 0, None) ** 0.5, 0.0),
                         dirichlet=True)
        # the operator image is 1 inside Omega, so the Omega part of the
        # image norm approaches sqrt(2); the exterior part stays finite
        image = apply_fractional_laplacian(u, params)
        errs.append(abs(lp_norm(image, 2.0, g.omega) - math.sqrt(2.0)))
        assert np.isfinite(potential_norm(u, params, 2.0))
    assert errs[1] < errs[0]
    assert errs[1] < 0.08


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("besov", [besov_seminorm, shift_loop_besov], ids=["fast", "reference"])
def test_besov_tail_level_is_the_far_shift_norm(p, besov):
    # u = (1, 2, 3, 2, 1) on nodes 30..34 of 65: at the shift k = 10, B +- k
    # stays in the box and the supports of u(x - k), u(x), u(x + k) are
    # disjoint, so the second-difference norm there is the level of the
    # lattice tail beyond the box
    grid = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    vals = np.zeros(grid.n)
    vals[30:35] = (1.0, 2.0, 3.0, 2.0, 1.0)
    u = GridFunction(grid, vals, dirichlet=True)
    cells, norms = _difference_norms(u, p, second=True)
    level = norms[cells == 10][0]
    sigma, q, h = 1.5, 2.0, grid.h
    lattice = 2.0 * h * (norms ** q * (cells * h) ** (-(1 + q * sigma))).sum()
    tail = level ** q * 2.0 * ((grid.n - 1) * h) ** (-q * sigma) / (q * sigma)
    assert besov(u, sigma, p, q) == pytest.approx((lattice + tail) ** (1 / q), rel=1e-12)
