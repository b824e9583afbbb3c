"""Theta-scheme time stepping, energy bookkeeping, and the discrete semigroup.

Each step solves (I + tau theta A) u_{k+1} = u_k + tau[(1-theta)(f_k - A u_k)
+ theta f_{k+1}], theta in [1/2, 1]: explicit stepping is excluded because
the nonlocal stiffness grows like h^(-2s).  The stepper and the semigroup
work in the eigenbasis of OperatorMatrix.spectrum, A = Q diag(lam) Q^T,
kept in its parity blocks (operator.Eigenbasis: one block per character
of Omega's mirror group, the whole matrix when Omega has no mirror axis).
Q is never formed: rows go into the basis by `to_modes` (rows Q) and
back by `from_modes` (coefficients Q^T), each a fold over the mirror
images and one GEMM per block.  The basis is computed once per (kernel,
Omega mask, h) in a process and kept with the toeplitz_operator entry,
so every run on an equal grid with equal s, say parabolic-energy then
semigroup-contraction, decomposes A once; at worst that keeps lam and
the blocks' eigenvectors, about m^2 / |G| floats for a mirror group G,
per key for as long as the entry lives, or as long as a Trajectory
stepped in it does, whichever is longer.

The theta scheme transforms its source and steps the mode coefficients
c_k, u_k = Q c_k, mode by mode: a constant source is one row transformed
once, a callable one is read once per t_k into the trajectory's source
rows and transformed _LEDGER_ROWS rows at a time as the steps reach
them.  A Trajectory is the one record of a run and stays in that basis:
read-only rows c_k, f_k (Omega values) and B[u_k, u_k] = sum(lam c_k^2)
per step, with the Eigenbasis it was stepped in.  Omega values are
formed only when read: `values` is `from_modes` of the (nt+1, m) mode
rows on first read, `final()` that of c_nt alone.  The energy ledger
reads the mode rows, _LEDGER_ROWS at a time, and needs no product by Q:
Q is orthonormal, so |u_k|^2 = |c_k|^2 and |u_{k+1} - u_k|^2 =
|c_{k+1} - c_k|^2.  A batch of semigroup images is
Q (1 + tau lam)^(-nt) Q^T phi, returned as its (k, m) Omega rows.  The
spectrum's eigh stays within the dense cap (MemoryBudgetError above it),
unlike the matrix-free elliptic solve.  A failed eigendecomposition, or
a step matrix I + c A that is not positive definite, raises
SingularOperatorError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import _operator, _rhs_on_omega
from .errors import SingularOperatorError
from .gridfn import extend_by_zero

_LEDGER_ROWS = 64  # trajectory rows per block: of a callable source's steps, of the ledger


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Read-only rows per t_k = k tau: mode coefficients c_k of u_k = Q c_k (u_0 the
    datum), Omega source values f_k and B[u_k, u_k], with the Eigenbasis of A."""

    grid: object
    tau: float
    times: np.ndarray
    modes: np.ndarray
    source: np.ndarray
    form: np.ndarray
    basis: object

    @cached_property
    def values(self):
        """Omega values u_k, (nt+1, m), formed on first read."""
        values = self.basis.from_modes(self.modes)
        values.setflags(write=False)
        return values

    def final(self):
        return extend_by_zero(self.basis.from_modes(self.modes[-1]), self.grid)


def _modes(matrix, c):
    """The Eigenbasis of A, and the eigenvalues 1 + c lam of I + c A."""
    basis = matrix.spectrum
    shifted = 1.0 + c * basis.lam
    if not (shifted > 0.0).all():
        raise SingularOperatorError(f"I + {c:g} A is not positive definite ({shifted.min():.3e})")
    return basis, shifted


def solve_parabolic(f, T, nt, theta, params, grid, matrix=None, u0=None):
    """Run the theta scheme from a zero (or supplied) u0; a callable f is read once per t_k."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    if nt < 2:
        raise ValueError(f"need nt >= 2 steps, got {nt}")
    matrix = _operator(matrix, params, grid)
    tau = T / nt
    times = np.arange(nt + 1) * tau
    basis, shifted = _modes(matrix, tau * theta)
    m = len(shifted)
    if callable(f):
        source = np.empty((nt + 1, m))
        for k, t in enumerate(times):
            source[k] = _rhs_on_omega(f(t), grid)
    else:
        source = np.broadcast_to(_rhs_on_omega(f, grid), (nt + 1, m))

    def drive(g):
        """tau ((1 - theta) g_k + theta g_{k+1}) / shifted per step of the mode rows g, formed
        over g_k in place; a constant source drives every step alike: one row, not (nt, m)."""
        if len(g) == 1:
            return tau * ((1 - theta) * g + theta * g) / shifted
        after = theta * g[1:]
        g = g[:-1]
        g *= 1 - theta
        g += after
        g *= tau
        g /= shifted
        return g

    # mode j: (1 + tau theta lam_j) u_{k+1} = (1 - tau (1-theta) lam_j) u_k + drive_k
    ratio = (1.0 - tau * (1 - theta) * basis.lam) / shifted
    constant = None if callable(f) else drive(basis.to_modes(source[:1]))
    modes = np.empty((nt + 1, m))
    modes[0] = 0.0 if u0 is None else basis.to_modes(_rhs_on_omega(u0, grid))
    for lo in range(0, nt, _LEDGER_ROWS):
        hi = min(lo + _LEDGER_ROWS, nt)
        block = (drive(basis.to_modes(source[lo:hi + 1])) if constant is None
                 else np.broadcast_to(constant, (hi - lo, m)))
        for k in range(lo, hi):
            modes[k + 1] = ratio * modes[k] + block[k - lo]
        del block  # before the next block is transformed
    form = np.einsum("km,km,m->k", modes, modes, basis.lam)  # no (nt+1, m) temporary
    for arr in (modes, source, form):
        arr.setflags(write=False)
    return Trajectory(grid, tau, times, modes, source, form, basis)


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


def energy_report(traj, slack=None):
    """Discrete energy ledger, read from the trajectory's modes, source rows and form alone.

    The energy is hN (e^(-2t) B[u_k, u_k] + |v_k|^2).  Flags a violation
    when dissipation-so-far plus current energy exceeds (1 + slack) times
    the source term at any step; the default slack is proportional to tau,
    reflecting the O(tau) perturbation the damping transform introduces in
    the discrete identity.  The per-step sums of squares are formed
    _LEDGER_ROWS rows at a time, each row by the same operations as on the
    whole (nt+1, m) array, so no temporary grows with nt.  v_k and its
    steps are summed over their mode coefficients, which Q, being
    orthonormal, maps to Omega values of the same sums of squares.
    """
    grid, tau = traj.grid, traj.tau
    hN = grid.h ** grid.ndim
    if slack is None:
        slack = max(0.05, 2.0 * tau)
    damping = np.exp(-traj.times)
    rows = len(damping)
    # per row: |dv_k|^2 with dv_k = (v_{k+1} - v_k) / tau, |v_k|^2, and |g_{k+1}|^2
    steps, held, fed = np.empty(rows - 1), np.empty(rows), np.empty(rows - 1)
    for lo in range(0, rows, _LEDGER_ROWS):
        hi = min(lo + _LEDGER_ROWS, rows)
        start = max(lo - 1, 0)  # one row back: the step into the block's first row
        v = traj.modes[start:hi] * damping[start:hi, None]
        dv = np.diff(v, axis=0) / tau
        steps[start:hi - 1] = (dv * dv).sum(axis=1)
        v = v[lo - start:]
        held[lo:hi] = (v * v).sum(axis=1)
        g = traj.source[max(lo, 1):hi] * damping[max(lo, 1):hi, None]
        fed[max(lo, 1) - 1:hi - 1] = (g * g).sum(axis=1)
    diss = np.concatenate(([0.0], np.cumsum(tau * hN * steps)))
    energy = hN * (damping ** 2 * traj.form + held)
    source = np.concatenate(([0.0], np.cumsum(tau * hN * fed)))
    ok = source[1:] > 0
    violation = bool(np.any((diss[1:] + energy[1:])[ok] > (1.0 + slack) * source[1:][ok]))
    return EnergyLedger(traj.times.copy(), diss, energy, source, slack, violation)


def semigroup_apply(phi, t, nt, params, grid, matrix=None):
    """Approximate the homogeneous evolution semigroup by implicit Euler.

    phi is one datum, or a list of k data that all share (t, nt): the list
    is stacked into one (k, m) array, the nt steps (I + tau A)^(-nt) are one
    diagonal scaling in the eigenbasis of A, and the images come back as
    the (k, m) array of their Omega rows, in the same order.  One datum is
    a batch of one and comes back as an exterior-zero GridFunction.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t > 0 and nt < 1:
        raise ValueError(f"need nt >= 1 steps for t > 0, got {nt}")
    matrix = _operator(matrix, params, grid)
    batched = isinstance(phi, list)
    batch = phi if batched else [phi]
    data = np.array([_rhs_on_omega(datum, grid) for datum in batch])
    if t > 0:
        basis, shifted = _modes(matrix, t / nt)
        data = basis.from_modes(basis.to_modes(data) * shifted ** -float(nt))
    return data if batched else extend_by_zero(data[0], grid)
