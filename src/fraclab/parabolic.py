"""Theta-scheme time stepping, energy bookkeeping, and the discrete semigroup.

Each step solves (I + tau theta A) u_{k+1} = u_k + tau[(1-theta)(f_k - A u_k)
+ theta f_{k+1}]; at theta = 1 the explicit part is skipped, A u_k
included.  A trajectory is one read-only (nt+1, m) array of Omega values.
Each semigroup step applies (I + tau A)^(-1) to every datum of a batch at
once: the data are the columns of one Fortran-ordered array, so a step is
one multi-right-hand-side triangular solve pair.  The steppers reach A
only through OperatorMatrix.apply (the explicit part and the ledger's
energy) and OperatorMatrix.factor(tau theta) or factor(tau), one
Cholesky factor per call.  The factor needs the operator's dense matrix,
gathered on first use, so these stay within the dense cap
(MemoryBudgetError above it), unlike the matrix-free elliptic solve.  A
factorization failure raises SingularOperatorError.  theta is restricted
to [1/2, 1]: explicit stepping is excluded because the nonlocal stiffness
grows like h^(-2s).  Results may change in the last digits with the BLAS
thread count, which is not fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .elliptic import _check_matrix, _rhs_on_omega
from .gridfn import extend_by_zero
from .operator import assemble_operator_matrix


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Omega values u_k at t_k = k tau, one row each of a read-only array; u_0 the datum."""

    grid: object
    params: object
    theta: float
    tau: float
    times: np.ndarray
    values: np.ndarray

    def final(self):
        return extend_by_zero(self.values[-1], self.grid)


def _source_at(f, t, grid):
    """Source as Omega vector at time t: a constant vector, or a callable of t."""
    return _rhs_on_omega(f(t) if callable(f) else f, grid)


def solve_parabolic(f, T, nt, theta, params, grid, matrix=None, u0=None):
    """Run the theta scheme from a zero (or supplied) initial datum."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    if nt < 2:
        raise ValueError(f"need nt >= 2 steps, got {nt}")
    _check_matrix(matrix, params, grid)
    if matrix is None:
        matrix = assemble_operator_matrix(grid, params)
    tau = T / nt
    cho = matrix.factor(tau * theta)
    values = np.empty((nt + 1, grid.n_omega))
    values[0] = 0.0 if u0 is None else _source_at(u0, 0.0, grid)
    f_now = _source_at(f, 0.0, grid)
    for k in range(nt):
        u = values[k]
        f_next = _source_at(f, (k + 1) * tau, grid)
        # at theta = 1 the explicit part (1 - theta)(f_k - A u_k) is zero
        explicit = (1 - theta) * (f_now - matrix.apply(u)) if theta < 1 else 0.0
        values[k + 1] = scipy.linalg.cho_solve(cho, u + tau * (explicit + theta * f_next),
                                               check_finite=False)
        f_now = f_next
    values.setflags(write=False)
    return Trajectory(grid, params, theta, tau, np.arange(nt + 1) * tau, values)


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step records in the damped variables v = u e^(-t), g = f e^(-t)."""

    times: np.ndarray
    dissipation: np.ndarray     # running sum tau ||dv/dt||_2^2
    energy: np.ndarray          # B[v_k, v_k] + (v_k, v_k)
    source: np.ndarray          # running sum tau ||g_k||_2^2
    slack: float
    violation: bool

    def worst_ratio(self):
        ok = self.source > 0
        if not ok.any():
            return 0.0
        return float(((self.dissipation[ok] + self.energy[ok]) / self.source[ok]).max())


def energy_report(traj, f, matrix=None, slack=None):
    """Discrete energy ledger of a trajectory.

    Flags a violation when dissipation-so-far plus current energy exceeds
    (1 + slack) times the source term at any step; the default slack is
    proportional to tau, reflecting the O(tau) perturbation the damping
    transform introduces in the discrete identity.
    """
    grid, params = traj.grid, traj.params
    _check_matrix(matrix, params, grid)
    if matrix is None:
        matrix = assemble_operator_matrix(grid, params)
    hN = grid.h ** grid.ndim
    tau = traj.tau
    if slack is None:
        slack = max(0.05, 2.0 * tau)
    damping = np.exp(-traj.times)[:, None]
    v = traj.values * damping
    g = np.array([_source_at(f, t, grid) for t in traj.times[1:]]) * damping[1:]
    dv = np.diff(v, axis=0) / tau
    diss = np.concatenate(([0.0], np.cumsum(tau * hN * (dv * dv).sum(axis=1))))
    energy = hN * (np.array([row @ matrix.apply(row) for row in v]) + (v * v).sum(axis=1))
    source = np.concatenate(([0.0], np.cumsum(tau * hN * (g * g).sum(axis=1))))
    ok = source[1:] > 0
    violation = bool(np.any((diss[1:] + energy[1:])[ok] > (1.0 + slack) * source[1:][ok]))
    return EnergyLedger(traj.times.copy(), diss, energy, source, slack, violation)


def semigroup_apply(phi, t, nt, params, grid, matrix=None):
    """Approximate the homogeneous evolution semigroup by implicit Euler.

    phi is one datum, or a list of data that all share (t, nt): the list
    is stacked into one Fortran-ordered (m, k) array, each of the nt
    steps is one k-column solve, and the k exterior-zero images come back
    as a list in the same order.  One datum is a batch of one.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t > 0 and nt < 1:
        raise ValueError(f"need nt >= 1 steps for t > 0, got {nt}")
    _check_matrix(matrix, params, grid)
    batched = isinstance(phi, list)
    batch = phi if batched else [phi]
    data = np.empty((grid.n_omega, len(batch)), order="F")
    for j, datum in enumerate(batch):
        data[:, j] = _source_at(datum, 0.0, grid)
    if t > 0:
        if matrix is None:
            matrix = assemble_operator_matrix(grid, params)
        cho = matrix.factor(t / nt)
        for _ in range(nt):
            data = scipy.linalg.cho_solve(cho, data, overwrite_b=True, check_finite=False)
    images = [extend_by_zero(data[:, j], grid) for j in range(len(batch))]
    return images if batched else images[0]
