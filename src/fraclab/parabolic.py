"""Theta-scheme time stepping, energy bookkeeping, and the discrete semigroup.

Each step solves (I + tau theta A) u_{k+1} = u_k + tau[(1-theta)(f_k - A u_k)
+ theta f_{k+1}]; at theta = 1 the explicit part is skipped, A u_k
included.  Each semigroup step applies (I + tau A)^(-1) to every datum of
a batch at once: the data are the columns of one Fortran-ordered array,
so a step is one multi-right-hand-side triangular solve pair.  Both take
their Cholesky factor from OperatorMatrix.factor(tau theta) or
OperatorMatrix.factor(tau), which builds it once per shift and keeps it on
the matrix, so repeated semigroup calls with the same tau factor once.  A
factorization failure raises SingularOperatorError.  theta is restricted
to [1/2, 1]: explicit stepping is excluded because the nonlocal stiffness
grows like h^(-2s).  Results may change in the last digits with the BLAS
thread count, which is not fixed here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .elliptic import _rhs_on_omega
from .errors import LengthMismatchError
from .gridfn import extend_by_zero
from .operator import assemble_operator_matrix


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots u_k at t_k = k tau, all exterior-zero, u_0 the initial datum."""

    grid: object
    params: object
    theta: float
    tau: float
    times: np.ndarray
    snapshots: list

    @property
    def nt(self):
        return len(self.times) - 1

    def final(self):
        return self.snapshots[-1]

    def export_csv(self, out_dir, prefix="snapshot"):
        """One CSV per snapshot: node coordinates and value."""
        paths = []
        nodes = self.grid.nodes()
        for k, snap in enumerate(self.snapshots):
            path = f"{out_dir}/{prefix}_{k:04d}.csv"
            with open(path, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow([*(f"x{a}" for a in range(self.grid.ndim)), "u"])
                for pt, val in zip(nodes, snap.values.ravel()):
                    wr.writerow([f"{c:.17g}" for c in pt] + [f"{val:.17g}"])
            paths.append(path)
        return paths


def _source_at(f, t, grid):
    """Source as Omega vector at time t: a constant vector, or a callable of t."""
    return _rhs_on_omega(f(t) if callable(f) else f, grid)


def solve_parabolic(f, T, nt, theta, params, grid, matrix=None, u0=None):
    """Run the theta scheme from a zero (or supplied) initial datum."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    if nt < 2:
        raise ValueError(f"need nt >= 2 steps, got {nt}")
    if matrix is None:
        matrix = assemble_operator_matrix(grid, params)
    A = matrix.matrix
    tau = T / nt
    cho = matrix.factor(tau * theta)
    u = np.zeros(grid.n_omega) if u0 is None else _source_at(u0, 0.0, grid).copy()
    times = [0.0]
    snaps = [extend_by_zero(u, grid)]
    f_now = _source_at(f, 0.0, grid)
    for k in range(nt):
        t_next = (k + 1) * tau
        f_next = _source_at(f, t_next, grid)
        # at theta = 1 the explicit part (1 - theta)(f_k - A u_k) is zero
        explicit = (1 - theta) * (f_now - A @ u) if theta < 1 else 0.0
        rhs = u + tau * (explicit + theta * f_next)
        u = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
        times.append(t_next)
        snaps.append(extend_by_zero(u, grid))
        f_now = f_next
    return Trajectory(grid, params, theta, tau, np.array(times), snaps)


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step records in the damped variables v = u e^(-t), g = f e^(-t)."""

    times: np.ndarray
    dissipation: np.ndarray     # running sum tau ||dv/dt||_2^2
    energy: np.ndarray          # B[v_k, v_k] + (v_k, v_k)
    source: np.ndarray          # running sum tau ||g_k||_2^2
    slack: float
    violation: bool

    CSV_HEADER = ("k", "t", "dissipation", "energy", "source_norm")

    def worst_ratio(self):
        ok = self.source > 0
        if not ok.any():
            return 0.0
        return float(((self.dissipation[ok] + self.energy[ok]) / self.source[ok]).max())

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(self.CSV_HEADER)
            for k in range(len(self.times)):
                wr.writerow([str(k), f"{self.times[k]:.17g}",
                             f"{self.dissipation[k]:.17g}",
                             f"{self.energy[k]:.17g}",
                             f"{self.source[k]:.17g}"])


def energy_report(traj, f, matrix=None, slack=None):
    """Discrete energy ledger of a trajectory.

    Flags a violation when dissipation-so-far plus current energy exceeds
    (1 + slack) times the source term at any step; the default slack is
    proportional to tau, reflecting the O(tau) perturbation the damping
    transform introduces in the discrete identity.
    """
    grid, params = traj.grid, traj.params
    if matrix is None:
        matrix = assemble_operator_matrix(grid, params)
    hN = grid.h ** grid.ndim
    tau = traj.tau
    if slack is None:
        slack = max(0.05, 2.0 * tau)
    nt = traj.nt
    diss = np.zeros(nt + 1)
    energy = np.zeros(nt + 1)
    source = np.zeros(nt + 1)
    v_prev = traj.snapshots[0].values[grid.mask] * math.exp(-traj.times[0])
    energy[0] = matrix.bilinear(v_prev, v_prev) + hN * float(v_prev @ v_prev)
    for k in range(1, nt + 1):
        t = traj.times[k]
        v = traj.snapshots[k].values[grid.mask] * math.exp(-t)
        g = _source_at(f, t, grid) * math.exp(-t)
        dv = (v - v_prev) / tau
        diss[k] = diss[k - 1] + tau * hN * float(dv @ dv)
        energy[k] = matrix.bilinear(v, v) + hN * float(v @ v)
        source[k] = source[k - 1] + tau * hN * float(g @ g)
        v_prev = v
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
    batched = isinstance(phi, list)
    batch = phi if batched else [phi]
    data = np.empty((grid.n_omega, len(batch)), order="F")
    for j, datum in enumerate(batch):
        vec = _source_at(datum, 0.0, grid)
        if vec.size != grid.n_omega:
            raise LengthMismatchError(f"got {vec.size} values for {grid.n_omega} Omega nodes")
        data[:, j] = vec
    if t > 0:
        if matrix is None:
            matrix = assemble_operator_matrix(grid, params)
        cho = matrix.factor(t / nt)
        for _ in range(nt):
            data = scipy.linalg.cho_solve(cho, data, overwrite_b=True, check_finite=False)
    images = [extend_by_zero(data[:, j], grid) for j in range(len(batch))]
    return images if batched else images[0]
