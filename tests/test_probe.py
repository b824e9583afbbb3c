import itertools
import math

import numpy as np
import pytest

from fraclab.elliptic import solve_dirichlet
from fraclab.errors import InconclusiveVerdictError
from fraclab.gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid
from fraclab.operator import FractionalParams
from fraclab.probe import (
    DEFAULT_RATE_THRESHOLD,
    DEFAULT_SWEEP,
    _clean_verdicts,
    estimate_local_exponent,
    estimator_problem,
    growth_rate,
)
from fraclab.regions import Ball, Box, DisjointUnion


def test_protocol_growth_rate():
    assert growth_rate([1.0, 2.0, 4.0]) == 1.0
    assert growth_rate([1.0, 1.05, 1.02]) < DEFAULT_RATE_THRESHOLD
    assert growth_rate([1.0, 0.0, 1.0]) == -np.inf
    # the probe's verdicts follow its rate_threshold
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    shell = Box((0.5,), (1.5,))
    est = estimate_local_exponent(_cusp_resolver(0.5), base, 2.0, shell, sweep=(0.5, 1.5))
    assert est.verdicts == [False, True]
    est = estimate_local_exponent(_cusp_resolver(0.5), base, 2.0, shell, sweep=(0.5, 1.5),
                                  rate_threshold=math.inf)
    assert est.verdicts == [False, False]


def test_clean_verdicts_tolerates_one_flip():
    sweep = (0.1, 0.2, 0.3, 0.4, 0.5)
    assert _clean_verdicts([False, True, False, True, True], sweep) == [
        False, True, True, True, True]
    assert _clean_verdicts([False, True, False, False, False], sweep) == [
        False, False, False, False, False]
    with pytest.raises(InconclusiveVerdictError):
        _clean_verdicts([True, False, True, False, True], sweep)


def _two_cases(verdicts):
    """The clean-up by its two cases, with sorted() as the monotone test; None if inconclusive."""
    v = list(verdicts)
    if v == sorted(v):
        return v
    first = v.index(True)
    late = [i for i in range(first, len(v)) if not v[i]]
    if len(late) == 1:
        v[late[0]] = True
        return v
    v[first] = False
    return v if v == sorted(v) else None


@pytest.mark.parametrize("length", range(9))
def test_clean_verdicts_is_its_two_cases(length):
    # every verdict vector of this length, against the two cases stated above
    sweep = tuple(0.1 * (k + 1) for k in range(length))
    for bits in itertools.product((False, True), repeat=length):
        verdicts = list(bits)
        expected = _two_cases(verdicts)
        if expected is None:
            with pytest.raises(InconclusiveVerdictError):
                _clean_verdicts(verdicts, sweep)
        else:
            assert _clean_verdicts(verdicts, sweep) == expected, bits
        assert verdicts == list(bits)


@pytest.mark.parametrize("method, p, sweep, region_mode, key", [
    ("besvo", 2.0, DEFAULT_SWEEP, False, "method"),
    ("gagliardo", 2.0, DEFAULT_SWEEP, False, None),
    ("gagliardo", 1.0, DEFAULT_SWEEP, False, "p"),
    ("gagliardo", math.inf, DEFAULT_SWEEP, False, "p"),
    ("gagliardo", 2.0, (1.0,), False, None),
    ("besov", 1.0, DEFAULT_SWEEP, False, None),
    ("besov", math.inf, DEFAULT_SWEEP, False, None),
    ("besov", 0.5, DEFAULT_SWEEP, False, "p"),
    ("besov", 2.0, (1.0,), False, "sweep"),
    ("besov", 2.0, (1.0, 1.0), False, "sweep"),
    ("gagliardo", 2.0, DEFAULT_SWEEP, True, None),
    ("gagliardo", math.inf, DEFAULT_SWEEP, True, "p"),
    ("besov", 2.0, DEFAULT_SWEEP, True, "method"),
    ("besov", 2.0, (1.0,), True, "method"),
    ("besov", math.inf, DEFAULT_SWEEP, True, "p"),
    ("besov", 1.0, DEFAULT_SWEEP, True, "p"),
])
def test_estimator_problem_names_the_key(method, p, sweep, region_mode, key):
    # region mode runs gagliardo whatever the method; besov skips sigma = 1
    problem = estimator_problem(method, p, sweep, region_mode)
    assert (problem and problem[0]) == key


def test_probe_rejects_besov_sweep_of_sigma_1_only_before_solving():
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    resolve, calls = _counting(_bump_resolver())
    with pytest.raises(ValueError, match="sigma = 1"):
        estimate_local_exponent(resolve, base, 2.0, Box((-0.4,), (0.4,)), method="besov",
                                sweep=(1.0,))
    assert calls == []


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


def test_estimate_json_keeps_the_field_by_field_bytes():
    import json

    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    est = estimate_local_exponent(_cusp_resolver(0.5), base, 2.0, Box((0.5,), (1.5,)),
                                  sweep=(0.5, 1.5, 0.7, 1.7, 1.9), levels=3)
    assert est.flipped  # every list field has entries
    old = json.dumps({
        "region": est.region, "p": est.p, "method": est.method, "sweep": list(est.sweep),
        "levels": est.levels, "mode": est.mode,
        "values": [[float(v) for v in row] for row in est.values],
        "rates": [float(r) for r in est.rates],
        "verdicts": [bool(b) for b in est.verdicts], "sigma_star": est.sigma_star,
        "flipped": [float(sg) for sg in est.flipped],
    }, sort_keys=True, indent=1)
    assert est.to_json() == old


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
    with pytest.raises(ValueError, match="method"):
        estimate_local_exponent(_bump_resolver(), base, 2.0, Box((-0.4,), (0.4,)),
                                method="besvo")


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


def _counting(resolve):
    calls = []

    def counted(grid):
        calls.append(grid)
        return resolve(grid)
    return counted, calls


def test_probe_rejects_besov_in_region_mode_before_solving():
    # a region meeting the Omega boundary is probed by the Gagliardo estimator only
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    resolve, calls = _counting(_cusp_resolver(0.5))
    with pytest.raises(ValueError, match="region mode"):
        estimate_local_exponent(resolve, base, 2.0, Box((0.5,), (1.5,)), method="besov")
    assert calls == []


@pytest.mark.parametrize("method, p, inner", [
    ("gagliardo", math.inf, Box((-0.4,), (0.4,))),
    ("gagliardo", 1.0, Box((-0.4,), (0.4,))),
    ("besov", 0.5, Box((-0.4,), (0.4,))),
    ("gagliardo", math.inf, Box((0.5,), (1.5,))),
], ids=["gagliardo-inf", "gagliardo-1", "besov-half", "region-inf"])
def test_probe_rejects_p_outside_estimator_range_before_solving(method, p, inner):
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    resolve, calls = _counting(_bump_resolver())
    with pytest.raises(ValueError, match="p must"):
        estimate_local_exponent(resolve, base, p, inner, method=method)
    assert calls == []


@pytest.mark.parametrize("inner", [Box((2.5,), (3.0,)), Box((1.2,), (1.8,))],
                         ids=["no-node", "outside-omega"])
def test_probe_of_region_without_data_is_inconclusive(inner):
    # past the box no node lies in the region; outside Omega u vanishes on it
    base = build_grid(1, ((-2.0, 2.0),), 33, Ball((0.0,), 1.0))
    resolve, calls = _counting(_cusp_resolver(0.5))
    with pytest.raises(InconclusiveVerdictError, match="no data in region") as exc:
        estimate_local_exponent(resolve, base, 2.0, inner)
    assert str(inner.describe()) in str(exc.value)
    assert len(calls) == 1


def test_union_inside_omega_runs_in_cutoff_mode():
    # the cut-off's outer region is the union of the expanded members
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    inner = DisjointUnion((Box((-0.6,), (-0.4,)), Box((0.4,), (0.6,))))
    est = estimate_local_exponent(
        lambda grid: solve_dirichlet(np.ones(grid.n_omega), params, grid), base, 2.0, inner)
    assert est.mode == "cutoff"
    assert est.sigma_star == pytest.approx(1.45)


def test_union_too_tight_to_expand_fails_before_solving():
    # margin 0.5 to the unit ball: members expanded by 0.25 across a gap of 0.2 meet
    base = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    resolve, calls = _counting(_bump_resolver())
    inner = DisjointUnion((Box((-0.5,), (-0.1,)), Box((0.1,), (0.5,))))
    with pytest.raises(ValueError, match="disjoint"):
        estimate_local_exponent(resolve, base, 2.0, inner)
    assert calls == []
