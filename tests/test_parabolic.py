import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fraclab import parabolic
from fraclab.elliptic import residual_check, solve_dirichlet
from fraclab.errors import FracLabError, LengthMismatchError, SingularOperatorError
from fraclab.experiments import getoor_constant, run_experiment
from fraclab.gridfn import CutoffSpec, build_cutoff, build_grid, extend_by_zero
from fraclab.operator import (
    FractionalParams,
    OperatorMatrix,
    _mirror_axes,
    assemble_operator_matrix,
)
from fraclab.parabolic import (
    _LEDGER_ROWS,
    energy_report,
    semigroup_apply,
    solve_parabolic,
)
from fraclab.regions import Ball
from fraclab.runconfig import parse_config_text
from fraclab.spaces import lp_norm

from conftest import traced_peak


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    return grid, params, matrix


def test_zero_source_stays_zero(setup):
    grid, params, matrix = setup
    traj = solve_parabolic(np.zeros(grid.n_omega), 1.0, 8, 1.0, params, grid, matrix=matrix)
    assert not traj.values.any()


def test_initial_datum_is_zero(setup):
    grid, params, matrix = setup
    traj = solve_parabolic(np.ones(grid.n_omega), 1.0, 4, 0.5, params, grid, matrix=matrix)
    for arr in (traj.modes, traj.values):
        assert arr.shape == (5, grid.n_omega)
        assert not arr.flags.writeable
        assert not arr[0].any()
    assert traj.values is traj.values  # formed once
    assert traj.final().dirichlet


def test_values_and_final_are_the_modes_back_in_omega(setup):
    grid, params, matrix = setup
    basis = matrix.spectrum
    traj = solve_parabolic(np.ones(grid.n_omega), 1.0, 8, 1.0, params, grid, matrix=matrix)
    assert traj.basis is basis
    assert np.array_equal(traj.values, basis.from_modes(traj.modes))
    assert np.array_equal(traj.final().values[grid.mask], basis.from_modes(traj.modes[-1]))
    assert _rel_gap(traj.final().values[grid.mask], traj.values[-1]) <= 1e-14


@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_trajectory_source_and_form_are_read_only(setup, kind):
    grid, params, matrix = setup
    g = np.ones(grid.n_omega)
    f = g if kind == "constant" else (lambda t: (1.0 + t) * g)
    traj = solve_parabolic(f, 1.0, 4, 0.5, params, grid, matrix=matrix)
    assert traj.source.shape == (5, grid.n_omega)
    assert traj.form.shape == (5,)
    for arr in (traj.source, traj.form):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 0.0


def _row_block(grid):
    """Bytes of _LEDGER_ROWS rows of Omega floats: the slack the time layer's peaks may use."""
    return _LEDGER_ROWS * grid.n_omega * 8


def test_constant_source_drives_every_step_by_one_row(setup):
    # an (nt, m) drive, a (nt+1, m) back-transform or a modes ** 2 temporary would
    # each add a whole trajectory to the peak; only the record's own arrays remain
    grid, params, matrix = setup
    matrix.spectrum  # decomposed before the count starts
    tracemalloc.start()
    try:
        traj = solve_parabolic(np.ones(grid.n_omega), 1.0, 1024, 0.5, params, grid,
                               matrix=matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = traj.modes.nbytes + traj.times.nbytes + traj.form.nbytes
    assert peak <= held + _row_block(grid)
    assert "values" not in vars(traj)  # no Omega values formed


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_time_layer_peaks_at_m_511(theta, kind):
    # evolve-1d's size: the stepper holds its modes (and a callable source's rows) and a few
    # row blocks, the ledger 1.33 MB of its own sums and blocks
    grid = build_grid(1, ((-2.0, 2.0),), 1025, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    matrix.spectrum
    assert grid.n_omega == 511
    g = np.ones(grid.n_omega)
    f = g if kind == "constant" else (lambda t: (1.0 + t) * g)
    tracemalloc.start()
    try:
        traj = solve_parabolic(f, 1.0, 512, theta, params, grid, matrix=matrix)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        energy_report(traj)
        ledger_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    if kind == "constant":
        assert solve_peak <= traj.modes.nbytes + _row_block(grid)
    else:  # the source rows, transformed and stepped one row block at a time
        assert solve_peak <= traj.modes.nbytes + traj.source.nbytes + 3 * _row_block(grid)
    assert ledger_peak <= 1.4e6


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_callable_source_stepped_in_row_blocks_matches_one_block(setup, theta, monkeypatch):
    grid, params, matrix = setup
    rng = np.random.default_rng(34)
    g, u0 = rng.standard_normal(grid.n_omega), rng.standard_normal(grid.n_omega)

    def f(t):
        return g * (1.0 + 0.5 * math.sin(3.0 * t))

    nt = 3 * _LEDGER_ROWS + 5
    blocked = solve_parabolic(f, 0.8, nt, theta, params, grid, matrix=matrix, u0=u0)
    monkeypatch.setattr(parabolic, "_LEDGER_ROWS", nt + 1)
    whole = solve_parabolic(f, 0.8, nt, theta, params, grid, matrix=matrix, u0=u0)
    assert _rel_gap(blocked.modes, whole.modes) <= 1e-14
    assert np.array_equal(blocked.source, whole.source)


def test_callable_source_is_read_once_per_step_time(setup):
    # the ledger reads the source rows of the trajectory, not the callable
    grid, params, matrix = setup
    g = np.ones(grid.n_omega)
    calls = []

    def f(t):
        calls.append(t)
        return (1.0 + t) * g

    nt = 16
    traj = solve_parabolic(f, 1.0, nt, 0.5, params, grid, matrix=matrix)
    energy_report(traj)
    assert len(calls) == nt + 1
    assert np.array_equal(calls, traj.times)
    assert np.array_equal(traj.source, (1.0 + traj.times)[:, None] * g)


def test_theta_validation(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    with pytest.raises(ValueError):
        solve_parabolic(f, 1.0, 4, 0.25, params, grid, matrix=matrix)
    with pytest.raises(ValueError):
        solve_parabolic(f, 1.0, 1, 1.0, params, grid, matrix=matrix)


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_bad_end_time_is_a_usage_error(T):
    grid = build_grid(1, ((-2.0, 2.0),), 33, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    with pytest.raises(ValueError, match="end time T must be finite and positive"):
        solve_parabolic(np.ones(grid.n_omega), T, 4, 1.0, params, grid, matrix=matrix)
    assert "spectrum" not in vars(matrix)  # rejected before the spectrum is read


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_bad_semigroup_time_is_a_usage_error(t):
    grid = build_grid(1, ((-2.0, 2.0),), 33, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        semigroup_apply(np.ones(grid.n_omega), t, 4, params, grid, matrix=matrix)
    assert "spectrum" not in vars(matrix)


def test_constant_source_relaxes_to_elliptic(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    u_inf = solve_dirichlet(f, params, grid, matrix=matrix)
    lam1 = float(scipy.linalg.eigvalsh(matrix.matrix, subset_by_index=[0, 0])[0])
    T = 1.5 * math.log(u_inf.linf() / 1e-4) / lam1
    for theta in (0.5, 1.0):
        errs = []
        for frac in (0.5, 1.0):
            traj = solve_parabolic(f, frac * T, int(192 * frac), theta, params, grid,
                                   matrix=matrix)
            errs.append(np.abs(traj.final().values - u_inf.values).max())
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-4


def test_theta_scheme_orders(setup):
    grid, params, matrix = setup
    bump = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8))).values[grid.mask]

    def src(t):
        return bump * (1.0 + 0.5 * math.sin(3.0 * t))

    for theta, expected in ((1.0, 1.0), (0.5, 2.0)):
        errs = []
        for nt in (16, 32, 64):
            coarse = solve_parabolic(src, 1.0, nt, theta, params, grid, matrix=matrix)
            fine = solve_parabolic(src, 1.0, 4 * nt, theta, params, grid, matrix=matrix)
            errs.append(np.abs(coarse.final().values - fine.final().values).max())
        order = np.polyfit(np.log2([1.0 / nt for nt in (16, 32, 64)]), np.log2(errs), 1)[0]
        assert abs(order - expected) <= 0.3, f"theta={theta}: order {order}"


def test_energy_ledger_zero_source(setup):
    grid, params, matrix = setup
    traj = solve_parabolic(np.zeros(grid.n_omega), 1.0, 8, 1.0, params, grid, matrix=matrix)
    ledger = energy_report(traj)
    assert not ledger.violation
    assert ledger.dissipation[-1] == 0.0
    assert ledger.energy.max() == 0.0


def test_energy_inequality_implicit_euler(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    for nt in (64, 128):
        traj = solve_parabolic(f, 1.0, nt, 1.0, params, grid, matrix=matrix)
        ledger = energy_report(traj, slack=0.05)
        assert not ledger.violation
        assert ledger.worst_ratio() <= 1.05


@pytest.mark.parametrize("f", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("datum", ["one", "normal"])
def test_ledger_bounds_dissipation_and_energy_by_initial_energy_plus_source(grid129, datum, f):
    # D_k + E_k <= E_0 + S_k: a datum's energy is on the right, so a small source or none
    # does not make a dissipative run look like a violation
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid129, params)
    m = grid129.n_omega
    u0 = np.ones(m) if datum == "one" else np.random.default_rng(0).standard_normal(m)
    for theta in (0.5, 1.0):
        for nt in (8, 64):
            traj = solve_parabolic(np.full(m, f), 1.0, nt, theta, params, grid129,
                                   matrix=matrix, u0=u0)
            ledger = energy_report(traj)
            assert ledger.energy[0] > 0.0
            assert not ledger.violation
            assert 0.0 < ledger.worst_ratio() <= 1.0


def test_energy_ledger_converges_under_tau_refinement(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    finals = {}
    for nt in (64, 128):
        traj = solve_parabolic(f, 1.0, nt, 1.0, params, grid, matrix=matrix)
        led = energy_report(traj)
        finals[nt] = (led.dissipation[-1], led.energy[-1], led.source[-1])
    for a, b in zip(finals[64], finals[128]):
        assert b / a == pytest.approx(1.0, abs=0.05)


def _ledger_by_steps(traj, f, A):
    """The ledger step by step: damped values, dense energy pairing, running sums."""
    grid, tau = traj.grid, traj.tau
    hN = grid.h ** grid.ndim
    diss, energy, source = [0.0], [], [0.0]
    for k, t in enumerate(traj.times):
        v = traj.values[k] * math.exp(-t)
        energy.append(hN * float(v @ (A @ v)) + hN * float(v @ v))
        if k:
            g = (f(t) if callable(f) else f) * math.exp(-t)
            dv = (v - v_prev) / tau
            diss.append(diss[-1] + tau * hN * float(dv @ dv))
            source.append(source[-1] + tau * hN * float(g @ g))
        v_prev = v
    return diss, energy, source


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("kind", ["constant", "time-dependent-with-u0"])
def test_energy_ledger_matches_step_by_step_ledger(setup, theta, kind):
    grid, params, matrix = setup
    bump = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8))).values[grid.mask]
    if kind == "constant":
        f, u0 = np.ones(grid.n_omega), None
    else:
        f, u0 = (lambda t: bump * (1.0 + 0.5 * math.sin(3.0 * t))), 2.0 * bump
    traj = solve_parabolic(f, 0.8, 24, theta, params, grid, matrix=matrix, u0=u0)
    ledger = energy_report(traj)
    assert np.array_equal(ledger.times, traj.times)
    for got, want in zip((ledger.dissipation, ledger.energy, ledger.source),
                         _ledger_by_steps(traj, f, matrix.matrix)):
        want = np.array(want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _unblocked_ledger(traj, rows):
    """energy_report's sums over the whole (nt+1, m) array `rows` at once: traj.modes for its
    blocks' oracle, traj.values for the node-space ledger that the mode sums stand for."""
    tau, hN = traj.tau, traj.grid.h ** traj.grid.ndim
    damping = np.exp(-traj.times)
    v = rows * damping[:, None]
    g = traj.source[1:] * damping[1:, None]
    dv = np.diff(v, axis=0) / tau
    diss = np.concatenate(([0.0], np.cumsum(tau * hN * (dv * dv).sum(axis=1))))
    energy = hN * (damping ** 2 * traj.form + (v * v).sum(axis=1))
    source = np.concatenate(([0.0], np.cumsum(tau * hN * (g * g).sum(axis=1))))
    return diss, energy, source


@pytest.mark.parametrize("nt", [_LEDGER_ROWS // 2, _LEDGER_ROWS - 1, _LEDGER_ROWS,
                                2 * _LEDGER_ROWS + 5],
                         ids=["below", "rows-equal", "nt-equal", "not-a-multiple"])
@pytest.mark.parametrize("kind", ["constant", "time-dependent-with-u0"])
def test_blocked_ledger_equals_the_unblocked_formula_bit_for_bit(setup, nt, kind):
    grid, params, matrix = setup
    bump = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8))).values[grid.mask]
    if kind == "constant":
        f, u0 = np.ones(grid.n_omega), None
    else:
        f, u0 = (lambda t: bump * (1.0 + 0.5 * math.sin(3.0 * t))), 2.0 * bump
    traj = solve_parabolic(f, 0.8, nt, 0.5, params, grid, matrix=matrix, u0=u0)
    ledger = energy_report(traj)
    for got, want in zip((ledger.dissipation, ledger.energy, ledger.source),
                         _unblocked_ledger(traj, traj.modes)):
        assert np.array_equal(got, want)


def _theta_steps_by_cholesky(f, T, nt, theta, A, u0):
    """The theta scheme step by step: one Cholesky factor of I + tau theta A, one solve per step."""
    tau = T / nt
    cho = scipy.linalg.cho_factor(np.eye(len(A)) + tau * theta * A)
    src = f if callable(f) else (lambda t: f)
    values = [u0]
    for k in range(nt):
        u = values[-1]
        rhs = u + tau * ((1 - theta) * (src(k * tau) - A @ u) + theta * src((k + 1) * tau))
        values.append(scipy.linalg.cho_solve(cho, rhs))
    return np.array(values)


@pytest.fixture(scope="module", params=[1, 2], ids=["1d-n65", "2d-n17"])
def small_problem(request):
    ndim = request.param
    grid = build_grid(ndim, ((-2.0, 2.0),) * ndim, 65 if ndim == 1 else 17,
                      Ball((0.0,) * ndim, 1.0))
    params = FractionalParams(ndim, 0.5)
    return grid, params, assemble_operator_matrix(grid, params)


def _rel_gap(fast, slow):
    return float(np.abs(fast - slow).max() / np.abs(slow).max())


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_mode_space_ledger_matches_node_space_ledger(small_problem, theta):
    # the 2D unit ball is centred: four parity blocks, so Q's orthonormality across blocks counts
    grid, params, matrix = small_problem
    assert len(_mirror_axes(grid, matrix.kernel)) == grid.ndim
    rng = np.random.default_rng(33)
    g, u0 = rng.standard_normal(grid.n_omega), rng.standard_normal(grid.n_omega)
    traj = solve_parabolic(lambda t: g * (1.0 + 0.5 * math.sin(3.0 * t)), 0.8, 24, theta,
                           params, grid, matrix=matrix, u0=u0)
    ledger = energy_report(traj)
    for got, want in zip((ledger.dissipation, ledger.energy, ledger.source),
                         _unblocked_ledger(traj, traj.values)):
        assert _rel_gap(got, want) <= 1e-12


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_spectral_theta_scheme_matches_cholesky_stepper(small_problem, theta, kind):
    grid, params, matrix = small_problem
    rng = np.random.default_rng(31)
    g, u0 = rng.standard_normal(grid.n_omega), rng.standard_normal(grid.n_omega)
    f = g if kind == "constant" else (lambda t: g * (1.0 + 0.5 * math.sin(3.0 * t)))
    traj = solve_parabolic(f, 0.8, 24, theta, params, grid, matrix=matrix, u0=u0)
    slow = _theta_steps_by_cholesky(f, 0.8, 24, theta, matrix.matrix, u0)
    assert _rel_gap(traj.values, slow) <= 1e-12
    form = [row @ (matrix.matrix @ row) for row in traj.values]
    assert _rel_gap(traj.form, np.array(form)) <= 1e-12
    ledger = energy_report(traj)
    hN = grid.h ** grid.ndim
    v = traj.values * np.exp(-traj.times)[:, None]
    energy = [hN * (row @ matrix.apply(row) + row @ row) for row in v]
    assert _rel_gap(ledger.energy, np.array(energy)) <= 1e-12


def test_spectral_semigroup_matches_repeated_cholesky_solves(small_problem):
    grid, params, matrix = small_problem
    rng = np.random.default_rng(32)
    data = [rng.standard_normal(grid.n_omega) for _ in range(5)]
    for t, nt in ((0.1, 16), (1.0, 32)):
        images = semigroup_apply(data, t, nt, params, grid, matrix=matrix)
        cho = scipy.linalg.cho_factor(np.eye(grid.n_omega) + (t / nt) * matrix.matrix)
        slow = np.array(data).T
        for _ in range(nt):
            slow = scipy.linalg.cho_solve(cho, slow)
        assert images.shape == (len(data), grid.n_omega)
        for image, want in zip(images, slow.T):
            assert _rel_gap(image, want) <= 1e-12


SOURCE_CALLERS = {
    "solve_dirichlet": lambda bad, good, p, g, A: solve_dirichlet(bad, p, g, matrix=A),
    "residual_check": lambda bad, good, p, g, A: residual_check(
        extend_by_zero(good, g), bad, p),
    "solve_parabolic-f": lambda bad, good, p, g, A: solve_parabolic(
        bad, 1.0, 4, 1.0, p, g, matrix=A),
    "solve_parabolic-callable-f": lambda bad, good, p, g, A: solve_parabolic(
        lambda t: bad, 1.0, 4, 0.5, p, g, matrix=A),
    "solve_parabolic-u0": lambda bad, good, p, g, A: solve_parabolic(
        good, 1.0, 4, 1.0, p, g, matrix=A, u0=bad),
    "semigroup_apply": lambda bad, good, p, g, A: semigroup_apply(bad, 0.5, 4, p, g, matrix=A),
    "semigroup_apply-batch": lambda bad, good, p, g, A: semigroup_apply(
        [good, bad], 0.5, 4, p, g, matrix=A),
}


@pytest.mark.parametrize("short", [False, True], ids=["one-value", "m-1-values"])
@pytest.mark.parametrize("caller", sorted(SOURCE_CALLERS))
def test_source_of_wrong_length_raises(setup, caller, short):
    grid, params, matrix = setup
    bad = np.ones(grid.n_omega - 1 if short else 1)
    with pytest.raises(LengthMismatchError, match=f"got {bad.size} values for {grid.n_omega}"):
        SOURCE_CALLERS[caller](bad, np.ones(grid.n_omega), params, grid, matrix)


@pytest.mark.parametrize("caller", sorted(SOURCE_CALLERS))
def test_non_finite_source_raises(setup, caller):
    grid, params, matrix = setup
    bad = np.ones(grid.n_omega)
    bad[0], bad[-1] = np.inf, np.nan
    with pytest.raises(FracLabError, match=f"2 of {grid.n_omega} Omega values are not finite"):
        SOURCE_CALLERS[caller](bad, np.ones(grid.n_omega), params, grid, matrix)


@pytest.mark.parametrize("other", ["s", "grid"])
@pytest.mark.parametrize("caller", sorted(set(SOURCE_CALLERS) - {"residual_check"}))
def test_matrix_of_another_operator_raises(setup, caller, other):
    grid, params, _ = setup
    if other == "s":
        wrong = assemble_operator_matrix(grid, FractionalParams(1, 0.3))
    else:
        wrong = assemble_operator_matrix(
            build_grid(1, ((-3.0, 3.0),), 65, Ball((0.0,), 1.0)), params)
    good = np.ones(grid.n_omega)
    with pytest.raises(ValueError, match="matrix was built for another grid or params"):
        SOURCE_CALLERS[caller](good, good, params, grid, wrong)


def test_ledger_csv_export(tmp_path, setup):
    # parabolic-energy writes each ledger as one row per step, at 17 digits
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    traj = solve_parabolic(f, 0.5, 4, 1.0, params, grid, matrix=matrix)
    ledger = energy_report(traj)
    cfg = parse_config_text("[experiment]\nname = parabolic-energy\n[grid]\nn = 65\n"
                            "[time]\nT = 0.5\nnt = 4\n")
    run_experiment("parabolic-energy", cfg, str(tmp_path))
    lines = (tmp_path / "ledger_nt4.csv").read_text().strip().splitlines()
    assert lines[0] == "k,t,dissipation,energy,source_norm"
    assert len(lines) == 6
    for k, line in enumerate(lines[1:]):
        cols = (ledger.times, ledger.dissipation, ledger.energy, ledger.source)
        assert line == ",".join([str(k)] + [f"{col[k]:.17g}" for col in cols])


def test_semigroup_identity_at_time_zero(setup):
    grid, params, matrix = setup
    rng = np.random.default_rng(21)
    phi = rng.standard_normal(grid.n_omega)
    out = semigroup_apply(phi, 0.0, 8, params, grid, matrix=matrix)
    assert np.array_equal(out.values[grid.mask], phi)
    outs = semigroup_apply([phi, -phi], 0.0, 8, params, grid, matrix=matrix)
    assert outs.shape == (2, grid.n_omega)
    assert np.array_equal(outs[0], phi)
    assert np.array_equal(outs[1], -phi)


def test_semigroup_positivity_and_contraction(setup):
    grid, params, matrix = setup
    rng = np.random.default_rng(22)
    for _ in range(10):
        phi = np.abs(rng.standard_normal(grid.n_omega))
        from fraclab.gridfn import extend_by_zero

        phi_fn = extend_by_zero(phi, grid)
        for t in (0.1, 1.0):
            out = semigroup_apply(phi, t, 16, params, grid, matrix=matrix)
            assert out.values[grid.mask].min() >= -1e-12
            for p in (1.0, 1.5, 2.0, 4.0, math.inf):
                assert lp_norm(out, p, "omega") <= lp_norm(phi_fn, p, "omega") + 1e-12


def test_semigroup_batch_images_in_order(setup):
    grid, params, matrix = setup
    rng = np.random.default_rng(25)
    data = [rng.standard_normal(grid.n_omega) for _ in range(20)]
    for t in (0.1, 1.0):
        images = semigroup_apply(data, t, 16, params, grid, matrix=matrix)
        assert images.shape == (len(data), grid.n_omega)
        alone = semigroup_apply(data[7], t, 16, params, grid, matrix=matrix)
        assert alone.dirichlet
        assert np.abs(images[7] - alone.values[grid.mask]).max() <= 1e-13 * alone.linf()


def test_semigroup_rejects_bad_steps_and_lengths(setup):
    grid, params, matrix = setup
    phi = np.ones(grid.n_omega)
    for nt in (0, -3):
        with pytest.raises(ValueError, match="nt >= 1"):
            semigroup_apply(phi, 0.5, nt, params, grid, matrix=matrix)
    with pytest.raises(ValueError, match="nonnegative"):
        semigroup_apply([phi], -0.5, 4, params, grid, matrix=matrix)
    for bad in ([phi, phi[:-1]], 1.0):
        with pytest.raises(LengthMismatchError):
            semigroup_apply(bad, 0.5, 4, params, grid, matrix=matrix)


def test_semigroup_non_spd_operator_raises(setup):
    grid, params, _ = setup
    tau = 0.25

    class NegativeOperator(OperatorMatrix):
        def _entries(self, rows, cols):
            # I + tau A = -I is negative definite
            return -(2.0 / tau) * (rows[:, None] == cols)

    matrix = NegativeOperator(grid, params)
    with pytest.raises(SingularOperatorError):
        semigroup_apply(np.ones(grid.n_omega), 4 * tau, 4, params, grid, matrix=matrix)


def test_semigroup_composition(setup):
    grid, params, matrix = setup
    rng = np.random.default_rng(23)
    phi = rng.standard_normal(grid.n_omega)
    tau = 0.05
    once = semigroup_apply(phi, 12 * tau, 12, params, grid, matrix=matrix)
    part = semigroup_apply(phi, 5 * tau, 5, params, grid, matrix=matrix)
    rest = semigroup_apply(part.values[grid.mask], 7 * tau, 7, params, grid, matrix=matrix)
    assert np.abs(once.values - rest.values).max() <= 1e-12


def test_duhamel_consistency(setup):
    # theta=1 with constant source equals the quadrature of semigroup images
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    nt, T = 16, 0.8
    tau = T / nt
    traj = solve_parabolic(f, T, nt, 1.0, params, grid, matrix=matrix)
    acc = np.zeros(grid.n_omega)
    for k in range(1, nt + 1):
        acc += tau * semigroup_apply(f, k * tau, k, params, grid, matrix=matrix).values[grid.mask]
    assert np.abs(acc - traj.final().values[grid.mask]).max() <= 1e-10


def test_nonzero_initial_datum_mode(setup):
    # exploratory mode: datum accepted, conservation of the scheme shape only
    grid, params, matrix = setup
    u0 = np.ones(grid.n_omega)
    traj = solve_parabolic(np.zeros(grid.n_omega), 0.5, 8, 1.0, params, grid,
                           matrix=matrix, u0=u0)
    assert traj.values[0] == pytest.approx(u0)
    assert traj.final().linf() < 1.0


def test_time_dependent_source_matches_duhamel_sum(setup):
    # theta=1 with f(t) = t g: u_nt = sum_k tau t_k (I + tau A)^-(nt-k+1) g
    grid, params, matrix = setup
    g = np.ones(grid.n_omega)
    nt, T = 8, 0.8
    tau = T / nt
    traj = solve_parabolic(lambda t: t * g, T, nt, 1.0, params, grid, matrix=matrix)
    acc = np.zeros(grid.n_omega)
    for k in range(1, nt + 1):
        m = nt - k + 1
        acc += tau * (k * tau) * semigroup_apply(g, m * tau, m, params, grid,
                                                 matrix=matrix).values[grid.mask]
    assert np.abs(acc - traj.final().values[grid.mask]).max() <= 1e-10


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_ledger_and_final_state_memory_does_not_grow_with_nt(theta):
    # the scheme is stepped _LEDGER_ROWS rows at a time whenever it is read, so neither the
    # ledger nor the final state holds a row per step
    grid = build_grid(1, ((-2.0, 2.0),), 1025, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    matrix.spectrum
    assert grid.n_omega == 511
    f = np.ones(grid.n_omega)

    def stepped(nt, read):
        traj = solve_parabolic(f, 1.0, nt, theta, params, grid, matrix=matrix)
        energy_report(traj) if read == "ledger" else traj.final()
        return traj

    for read in ("ledger", "final"):
        peaks = []
        for nt in (512, 4096):
            traj, peak = traced_peak(stepped, nt, read)
            assert "modes" not in vars(traj) and "values" not in vars(traj)
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 0.5e6


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_theta_scheme_converges_to_an_exact_space_time_solution(s, theta):
    # u = t w with (-Delta)^s w = 1 on (-1, 1) (Getoor) solves u_t + (-Delta)^s u = w + t,
    # u_0 = 0; relative L2(Q) errors 6.7e-3 .. 1.05e-3 over n = 257 .. 1025, nt = (n - 1) / 2
    errs = []
    for n in (257, 513, 1025):
        grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
        params = FractionalParams(1, s)
        x = grid.axes[0][grid.mask]
        w = np.clip(1.0 - x ** 2, 0.0, None) ** s / getoor_constant(1, s)
        traj = solve_parabolic(lambda t: w + t, 1.0, (n - 1) // 2, theta, params, grid)
        exact = traj.times[:, None] * w
        errs.append(np.linalg.norm(traj.values - exact) / np.linalg.norm(exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 3e-3


def _sorted_eigenvalues(n, s=0.5):
    grid = build_grid(1, ((-2.0, 2.0),), n, Ball((0.0,), 1.0))
    return np.sort(assemble_operator_matrix(grid, FractionalParams(1, s)).spectrum.lam)


def test_first_eigenvalue_at_half_extrapolates_to_the_interval_value():
    # lambda_1 of (-Delta)^(1/2) on (-1, 1) is 1.1577738836977 (Kulczycki, Kwasnicki, Malecki
    # & Stos 2010); the grid value converges at first order in h
    lam = {n: _sorted_eigenvalues(n)[0] for n in (1025, 2049)}
    assert abs(2.0 * lam[2049] - lam[1025] - 1.1577738836977) <= 1e-5


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_eigenvalue_gaps_to_kwasnicki_asymptotics_fall_with_n(s):
    # lambda_k ~ (k pi / 2 - (2 - 2s) pi / 8)^(2s) on (-1, 1) (Kwasnicki 2012); gaps at k = 5, 10
    # over n = 513, 1025, 2049: 1.27e-3 / 1.55e-3 to 1.54e-4 / 4.17e-4 at s = 0.25,
    # 1.62e-3 / 1.42e-3 to 3.84e-4 / 4.29e-4 at s = 0.75
    gaps = []
    for n in (513, 1025, 2049):
        lam = _sorted_eigenvalues(n, s)
        mu = [(k * math.pi / 2 - (2 - 2 * s) * math.pi / 8) ** (2 * s) for k in (5, 10)]
        gaps.append([abs(lam[k - 1] - m) / m for k, m in zip((5, 10), mu)])
    gaps = np.array(gaps)
    assert np.all(gaps[1:] < gaps[:-1])
    assert gaps[-1].max() < 6e-4


def test_eigenvalues_at_half_approach_kwasnicki_asymptotics():
    # lambda_k = k pi / 2 - pi / 8 + O(1 / k) on (-1, 1) (Kwasnicki 2012); relative gaps at
    # n = 2049 are 3.9e-4 at k = 5 and 5.6e-4 at k = 10
    lam = _sorted_eigenvalues(2049)
    for k in (5, 10):
        mu = k * math.pi / 2 - math.pi / 8
        assert abs(lam[k - 1] - mu) / mu < 1e-3
