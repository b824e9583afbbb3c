import math

import numpy as np
import pytest
import scipy.linalg

from fraclab.elliptic import solve_dirichlet
from fraclab.errors import LengthMismatchError, SingularOperatorError
from fraclab.gridfn import CutoffSpec, build_cutoff, build_grid
from fraclab.operator import FractionalParams, OperatorMatrix, assemble_operator_matrix
from fraclab.parabolic import (
    energy_report,
    semigroup_apply,
    solve_parabolic,
)
from fraclab.regions import Ball
from fraclab.spaces import lp_norm


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    matrix = assemble_operator_matrix(grid, params)
    return grid, params, matrix


def test_zero_source_stays_zero(setup):
    grid, params, matrix = setup
    traj = solve_parabolic(np.zeros(grid.n_omega), 1.0, 8, 1.0, params, grid, matrix=matrix)
    assert all(s.linf() == 0.0 for s in traj.snapshots)


def test_initial_datum_is_zero(setup):
    grid, params, matrix = setup
    traj = solve_parabolic(np.ones(grid.n_omega), 1.0, 4, 0.5, params, grid, matrix=matrix)
    assert traj.snapshots[0].linf() == 0.0
    assert all(s.dirichlet for s in traj.snapshots)


def test_theta_validation(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    with pytest.raises(ValueError):
        solve_parabolic(f, 1.0, 4, 0.25, params, grid, matrix=matrix)
    with pytest.raises(ValueError):
        solve_parabolic(f, 1.0, 1, 1.0, params, grid, matrix=matrix)


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
    ledger = energy_report(traj, np.zeros(grid.n_omega), matrix=matrix)
    assert not ledger.violation
    assert ledger.dissipation[-1] == 0.0
    assert ledger.energy.max() == 0.0


def test_energy_inequality_implicit_euler(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    for nt in (64, 128):
        traj = solve_parabolic(f, 1.0, nt, 1.0, params, grid, matrix=matrix)
        ledger = energy_report(traj, f, matrix=matrix, slack=0.05)
        assert not ledger.violation
        assert ledger.worst_ratio() <= 1.05


def test_energy_ledger_converges_under_tau_refinement(setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    finals = {}
    for nt in (64, 128):
        traj = solve_parabolic(f, 1.0, nt, 1.0, params, grid, matrix=matrix)
        led = energy_report(traj, f, matrix=matrix)
        finals[nt] = (led.dissipation[-1], led.energy[-1], led.source[-1])
    for a, b in zip(finals[64], finals[128]):
        assert b / a == pytest.approx(1.0, abs=0.05)


def test_ledger_csv_export(tmp_path, setup):
    grid, params, matrix = setup
    f = np.ones(grid.n_omega)
    traj = solve_parabolic(f, 0.5, 4, 1.0, params, grid, matrix=matrix)
    ledger = energy_report(traj, f, matrix=matrix)
    path = tmp_path / "ledger.csv"
    ledger.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,t,dissipation,energy,source_norm"
    assert len(lines) == 6
    traj.export_csv(tmp_path)
    assert (tmp_path / "snapshot_0000.csv").exists()


def test_semigroup_identity_at_time_zero(setup):
    grid, params, matrix = setup
    rng = np.random.default_rng(21)
    phi = rng.standard_normal(grid.n_omega)
    out = semigroup_apply(phi, 0.0, 8, params, grid, matrix=matrix)
    assert np.array_equal(out.values[grid.mask], phi)
    outs = semigroup_apply([phi, -phi], 0.0, 8, params, grid, matrix=matrix)
    assert len(outs) == 2
    assert np.array_equal(outs[0].values[grid.mask], phi)
    assert np.array_equal(outs[1].values[grid.mask], -phi)


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


def test_semigroup_factors_once_per_tau(setup):
    grid, params, _ = setup
    matrix = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(24)
    for _ in range(20):
        phi = rng.standard_normal(grid.n_omega)
        for t in (0.1, 1.0):
            semigroup_apply(phi, t, 16, params, grid, matrix=matrix)
    assert sorted(matrix._factors) == [0.1 / 16, 1.0 / 16]
    for c, (factor, lower) in matrix._factors.items():
        fresh, fresh_lower = scipy.linalg.cho_factor(
            np.eye(grid.n_omega) + c * matrix.matrix, lower=False, check_finite=False)
        assert lower is fresh_lower is False
        assert factor.tobytes() == fresh.tobytes()


def test_semigroup_batch_factors_once_per_tau(setup):
    grid, params, _ = setup
    matrix = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(25)
    data = [rng.standard_normal(grid.n_omega) for _ in range(20)]
    for t in (0.1, 1.0):
        images = semigroup_apply(data, t, 16, params, grid, matrix=matrix)
        assert len(images) == len(data) and all(im.dirichlet for im in images)
    assert sorted(matrix._factors) == [0.1 / 16, 1.0 / 16]


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
    # I + tau A = -I is negative definite
    matrix = OperatorMatrix(grid, params, -(2.0 / tau) * np.eye(grid.n_omega))
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
    assert traj.snapshots[0].values[grid.mask] == pytest.approx(u0)
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
