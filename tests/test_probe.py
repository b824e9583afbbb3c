import numpy as np
import pytest

from fraclab.elliptic import solve_dirichlet
from fraclab.errors import InconclusiveVerdictError
from fraclab.gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid
from fraclab.operator import FractionalParams, assemble_operator_matrix
from fraclab.parabolic import solve_parabolic
from fraclab.probe import (
    DivergenceProtocol,
    _clean_verdicts,
    estimate_local_exponent,
    parabolic_regularity_report,
)
from fraclab.regions import Ball, Box


def test_protocol_growth_rate():
    proto = DivergenceProtocol(rate_threshold=0.15)
    assert proto.is_divergent([1.0, 2.0, 4.0])
    assert not proto.is_divergent([1.0, 1.05, 1.02])
    assert proto.growth_rate([1.0, 0.0, 1.0]) == -np.inf


def test_clean_verdicts_tolerates_one_flip():
    sweep = (0.1, 0.2, 0.3, 0.4, 0.5)
    assert _clean_verdicts([False, True, False, True, True], sweep) == [
        False, True, True, True, True]
    assert _clean_verdicts([False, True, False, False, False], sweep) == [
        False, False, False, False, False]
    with pytest.raises(InconclusiveVerdictError):
        _clean_verdicts([True, False, True, False, True], sweep)


def _bump_resolver():
    def resolve(grid):
        return build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.7), order=5))
    return resolve


def test_smooth_bump_reaches_top_of_sweep():
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    est = estimate_local_exponent(_bump_resolver(), base, 2.0, Box((-0.45,), (0.45,)),
                                  sweep=(0.3, 0.6, 0.9, 1.2), levels=3)
    assert est.sigma_star == 1.2
    assert est.mode == "cutoff"
    assert not any(est.verdicts)


def _cusp_resolver(s):
    def resolve(grid):
        x = grid.axes[0]
        vals = np.where(grid.mask, np.clip(1 - x * x, 0, None) ** s, 0.0)
        return GridFunction(grid, vals, dirichlet=True)
    return resolve


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_boundary_cusp_exponent_near_s_plus_half(s):
    # the rho^s profile limits regularity near the boundary at s + 1/2
    base = build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))
    est = estimate_local_exponent(_cusp_resolver(s), base, 2.0, Box((0.5,), (1.5,)),
                                  levels=3)
    assert est.mode == "region"
    assert abs(est.sigma_star - (s + 0.5)) <= 0.1


def test_interior_jump_source_gain():
    s = 0.3
    params = FractionalParams(1, s)

    def resolve(grid):
        f = np.where(grid.omega_nodes()[:, 0] > 0, 1.0, 0.0)
        return solve_dirichlet(f, params, grid)

    base = build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))
    est = estimate_local_exponent(resolve, base, 2.0, Box((-0.4,), (0.4,)), levels=3)
    assert est.sigma_star >= 2 * s - 0.1


def test_probe_scale_invariant():
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    inner = Box((0.5,), (1.5,))
    one = estimate_local_exponent(_cusp_resolver(0.5), base, 2.0, inner, levels=3)

    def scaled(grid):
        return _cusp_resolver(0.5)(grid) * 10.0

    ten = estimate_local_exponent(scaled, base, 2.0, inner, levels=3)
    assert one.verdicts == ten.verdicts
    assert one.sigma_star == ten.sigma_star


def test_estimate_json_round_trip():
    import json

    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    est = estimate_local_exponent(_bump_resolver(), base, 2.0, Box((-0.45,), (0.45,)),
                                  sweep=(0.5, 1.5), levels=3)
    payload = json.loads(est.to_json())
    assert set(payload) == {"region", "p", "method", "sweep", "levels", "mode",
                            "values", "rates", "verdicts", "sigma_star", "flipped"}
    assert len(payload["values"]) == 3
    assert len(payload["values"][0]) == 2
    assert payload["flipped"] == []


def test_estimate_records_flipped_verdict():
    import json

    # out of order, 0.7 comes after the divergent 1.5: its convergent
    # verdict is the one out-of-place entry, flipped to divergent
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    est = estimate_local_exponent(_cusp_resolver(0.5), base, 2.0, Box((0.5,), (1.5,)),
                                  sweep=(0.5, 1.5, 0.7, 1.7, 1.9), levels=3)
    assert est.rates[2] < est.rates[1]
    assert est.verdicts == [False, True, True, True, True]
    assert est.flipped == [0.7]
    assert json.loads(est.to_json())["flipped"] == [0.7]


def test_probe_validates_inputs():
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    with pytest.raises(ValueError):
        estimate_local_exponent(_bump_resolver(), base, 2.0, Box((-0.4,), (0.4,)),
                                levels=2)
    with pytest.raises(ValueError):
        estimate_local_exponent(_bump_resolver(), base, 2.0, Box((-0.4,), (0.4,)),
                                sweep=(0.5, 2.5), levels=3)


@pytest.fixture(scope="module")
def parabolic_setup():
    grid = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    return grid, params, matrix


def test_parabolic_report_zero_source(parabolic_setup):
    grid, params, matrix = parabolic_setup
    traj = solve_parabolic(np.zeros(grid.n_omega), 1.0, 8, 1.0, params, grid, matrix=matrix)
    report = parabolic_regularity_report(traj, np.zeros(grid.n_omega), 2.0,
                                         Box((-0.4,), (0.4,)), params)
    assert report.ut_time_norm == 0.0
    assert report.seminorm_time_norm == 0.0
    assert all(r.local_seminorm == 0.0 for r in report.records)


def test_parabolic_report_time_derivative_stable(parabolic_setup):
    grid, params, matrix = parabolic_setup
    f = np.ones(grid.n_omega)
    norms = []
    for nt in (32, 64):
        traj = solve_parabolic(f, 1.0, nt, 1.0, params, grid, matrix=matrix)
        rep = parabolic_regularity_report(traj, f, 2.0, Box((-0.4,), (0.4,)), params)
        norms.append(rep.ut_time_norm)
    assert norms[1] / norms[0] == pytest.approx(1.0, abs=0.1)


def test_parabolic_report_estimator_selection(parabolic_setup):
    grid, params, matrix = parabolic_setup
    f = np.ones(grid.n_omega)
    traj = solve_parabolic(f, 0.5, 4, 1.0, params, grid, matrix=matrix)
    inner = Box((-0.4,), (0.4,))
    rep = parabolic_regularity_report(traj, f, 2.0, inner, params)
    assert rep.estimator == "sobolev"
    rep_low = parabolic_regularity_report(traj, f, 1.5, inner, params)
    assert rep_low.estimator == "w1p"   # s = 1/2 with p < 2
    params_b = FractionalParams(1, 0.3)
    matrix_b = assemble_operator_matrix(grid, params_b)
    traj_b = solve_parabolic(f, 0.5, 4, 1.0, params_b, grid, matrix=matrix_b)
    rep_b = parabolic_regularity_report(traj_b, f, 1.5, inner, params_b)
    assert rep_b.estimator == "besov"
    assert all(np.isfinite(r.local_seminorm) for r in rep_b.records)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_interior_boundary_dichotomy_constant_source(s):
    # f = 1: the solution is interior-smooth but rho^s-limited at the boundary
    params = FractionalParams(1, s)

    def resolve(grid):
        return solve_dirichlet(np.ones(grid.n_omega), params, grid)

    base = build_grid(1, ((-2.0, 2.0),), 97, Ball((0.0,), 1.0))
    sweep = tuple(round(0.2 * k, 1) for k in range(1, 10))
    deep = estimate_local_exponent(resolve, base, 2.0, Box((-0.4,), (0.4,)),
                                   sweep=sweep, levels=3)
    shell = estimate_local_exponent(resolve, base, 2.0, Box((0.5,), (1.5,)),
                                    sweep=sweep, levels=3)
    assert deep.sigma_star > shell.sigma_star


def test_parabolic_jump_source_slice_seminorms_stable():
    # space-jump source, s = 0.3, p = 2: the sigma = 2s slice seminorm of
    # the localized solution converges under spatial refinement
    params = FractionalParams(1, 0.3)
    finals = []
    for n in (65, 129):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        f = np.where(grid.omega_nodes()[:, 0] > 0, 1.0, 0.0)
        traj = solve_parabolic(f, 1.0, 8, 1.0, params, grid)
        rep = parabolic_regularity_report(traj, f, 2.0, Box((-0.4,), (0.4,)), params)
        assert all(np.isfinite(r.local_seminorm) for r in rep.records)
        finals.append(rep.records[-1].local_seminorm)
    assert finals[1] / finals[0] == pytest.approx(1.0, abs=0.2)
