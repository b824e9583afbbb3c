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
c_k, u_k = Q c_k, mode by mode.  solve_parabolic checks its inputs, reads
the spectrum and forms the per-step drive: one row, transformed once, for
a constant source; for a callable one, read once per t_k into the
trajectory's source rows, the (nt, m) drive transformed _LEDGER_ROWS
rows at a time.  A Trajectory is the one record of a run: it records the
scheme (the per-mode ratios, the drive, the modes of u_0, the source
rows and the Eigenbasis), not its rows, and steps the recurrence again,
_LEDGER_ROWS rows at a time, whenever rows are read.  Two reads form and
keep (nt+1, m) rows: `modes`, the c_k, and `values`, `from_modes` of
them.  The others stream and hold a block of rows whatever nt is:
`form`, B[u_k, u_k] = sum(lam c_k^2) per step; `final()`, `from_modes`
of c_nt alone; and the energy ledger, which squares each block in place
and needs no product by Q: Q is orthonormal, so |u_k|^2 = |c_k|^2 and
|u_{k+1} - u_k|^2 = |c_{k+1} - c_k|^2.  A read steps the scheme at most
once, and every read gives the same floats.  A batch of semigroup images is
Q (1 + tau lam)^(-nt) Q^T phi, returned as its (k, m) Omega rows.  The
spectrum's eigh stays within the dense cap (MemoryBudgetError above it),
unlike the matrix-free elliptic solve.  A failed eigendecomposition, or
a step matrix I + c A that is not positive definite, raises
SingularOperatorError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import _operator, _rhs_on_omega
from .errors import SingularOperatorError
from .gridfn import extend_by_zero

_LEDGER_ROWS = 64  # trajectory rows per block: of a callable source's drive, of each stepped read


def _form(rows, lam):
    """B[u_k, u_k] = sum(lam c_k^2) per row of mode coefficients, with no temporary of rows' size."""
    return np.einsum("km,km,m->k", rows, rows, lam)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The theta scheme of one run, stepped whenever its rows are read.

    Holds the read-only source rows f_k (Omega values) per t_k = k tau,
    the Eigenbasis of A, the per-mode ratios (1 - tau (1-theta) lam) /
    (1 + tau theta lam), the per-step drive in that basis and the modes
    c_0 of u_0 (`initial`, zero for no datum).  The mode coefficients c_k of
    u_k = Q c_k, their Omega values and B[u_k, u_k] are read as `modes`,
    `values` and `form`; `final()` is u_nt.  Row 0 carries the datum's
    energy h^N (B[u_0, u_0] + |u_0|^2), the E_0 that energy_report
    bounds each step's dissipation plus energy by, beside the source.
    """

    grid: object
    tau: float
    times: np.ndarray
    source: np.ndarray
    basis: object
    ratio: np.ndarray
    drive: np.ndarray
    initial: np.ndarray

    def _blocks(self):
        """(start, rows c_start .. c_{hi-1}) per block of _LEDGER_ROWS new rows, lo .. hi - 1:
        each block repeats the row before it (start = lo - 1; the first starts at c_0) and
        steps on from it.  The reader may overwrite the rows."""
        ratio, drive, count = self.ratio, self.drive, len(self.times)
        prev = self.initial
        for lo in range(0, count, _LEDGER_ROWS):
            start, hi = max(lo - 1, 0), min(lo + _LEDGER_ROWS, count)
            rows = np.empty((hi - start, len(ratio)))
            rows[0] = prev
            for k in range(start + 1, hi):  # mode j: c_k = ratio_j c_{k-1} + drive_{k-1}
                rows[k - start] = ratio * rows[k - 1 - start] + drive[k - 1]
            prev = rows[-1].copy()
            yield start, rows
            del rows  # before the next block is stepped

    @cached_property
    def modes(self):
        """Mode coefficients c_k, (nt+1, m), stepped and kept on first read."""
        modes = np.empty((len(self.times), len(self.ratio)))
        for start, rows in self._blocks():
            modes[start:start + len(rows)] = rows
        modes.setflags(write=False)
        return modes

    @cached_property
    def values(self):
        """Omega values u_k, (nt+1, m), formed from `modes` on first read."""
        values = self.basis.from_modes(self.modes)
        values.setflags(write=False)
        return values

    @cached_property
    def form(self):
        """B[u_k, u_k] per step, (nt+1,), summed block by block as the rows are stepped."""
        form = np.empty(len(self.times))
        for start, rows in self._blocks():
            form[start:start + len(rows)] = _form(rows, self.basis.lam)
        form.setflags(write=False)
        return form

    def final(self):
        """u_nt as an exterior-zero GridFunction; only a block of rows is held while stepping."""
        for _, rows in self._blocks():
            last = rows[-1]
        return extend_by_zero(self.basis.from_modes(last), self.grid)


def _modes(matrix, c):
    """The Eigenbasis of A, and the eigenvalues 1 + c lam of I + c A."""
    basis = matrix.spectrum
    shifted = 1.0 + c * basis.lam
    if not (shifted > 0.0).all():
        raise SingularOperatorError(f"I + {c:g} A is not positive definite ({shifted.min():.3e})")
    return basis, shifted


def solve_parabolic(f, T, nt, theta, params, grid, matrix=None, u0=None):
    """Record the theta scheme from a zero (or supplied) u0; a callable f is read once per t_k."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    if nt < 2:
        raise ValueError(f"need nt >= 2 steps, got {nt}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"end time T must be finite and positive, got {T}")
    matrix = _operator(matrix, params, grid)
    tau = T / nt
    times = np.arange(nt + 1) * tau
    basis, shifted = _modes(matrix, tau * theta)
    m = len(shifted)

    def drive_of(g):
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

    if callable(f):
        source = np.empty((nt + 1, m))
        for k, t in enumerate(times):
            source[k] = _rhs_on_omega(f(t), grid)
        drive = np.empty((nt, m))
        for lo in range(0, nt, _LEDGER_ROWS):
            hi = min(lo + _LEDGER_ROWS, nt)
            drive[lo:hi] = drive_of(basis.to_modes(source[lo:hi + 1]))
    else:
        source = np.broadcast_to(_rhs_on_omega(f, grid), (nt + 1, m))
        drive = np.broadcast_to(drive_of(basis.to_modes(source[:1])), (nt, m))
    ratio = (1.0 - tau * (1 - theta) * basis.lam) / shifted
    initial = np.zeros(m) if u0 is None else basis.to_modes(_rhs_on_omega(u0, grid))
    for arr in (source, drive, ratio, initial):
        arr.setflags(write=False)
    return Trajectory(grid, tau, times, source, basis, ratio, drive, initial)


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step records in the damped variables v = u e^(-t), g = f e^(-t).

    energy[0] is E_0 = B[u_0, u_0] + |u_0|^2 (times h^N, as every column),
    the initial energy that the damped identity D_k + E_k <= E_0 + S_k
    carries beside the source term S_k; it is 0 for a zero datum.
    """

    times: np.ndarray
    dissipation: np.ndarray     # running sum tau ||dv/dt||_2^2
    energy: np.ndarray          # B[v_k, v_k] + (v_k, v_k)
    source: np.ndarray          # running sum tau ||g_k||_2^2
    slack: float
    violation: bool

    def worst_ratio(self):
        """max of (D_k + E_k) / (E_0 + S_k) over the steps k >= 1 where E_0 + S_k > 0, else 0."""
        bound = (self.energy[0] + self.source)[1:]
        ok = bound > 0
        if not ok.any():
            return 0.0
        return float(((self.dissipation[1:] + self.energy[1:])[ok] / bound[ok]).max())


def energy_report(traj, slack=None):
    """Discrete energy ledger, read from the trajectory's stepped rows and source rows alone.

    The energy is hN (e^(-2t) B[u_k, u_k] + |v_k|^2), so energy[0] is the
    initial energy E_0.  Flags a violation when dissipation-so-far plus
    current energy exceeds (1 + slack) times E_0 plus the source term, at
    any step where that bound is positive; the default slack is
    proportional to tau, reflecting the O(tau) perturbation the damping
    transform introduces in the discrete identity.  The trajectory is
    stepped _LEDGER_ROWS rows at a time and each block is squared in
    place, by the same operations, row for row, as on the whole (nt+1, m)
    array, so no temporary grows with nt.  v_k and its steps are summed
    over their mode coefficients, which Q, being orthonormal, maps to
    Omega values of the same sums of squares.
    """
    grid, tau = traj.grid, traj.tau
    hN = grid.h ** grid.ndim
    if slack is None:
        slack = max(0.05, 2.0 * tau)
    damping = np.exp(-traj.times)
    rows = len(damping)
    # per row: B[u_k, u_k], |dv_k|^2 with dv_k = (v_{k+1} - v_k) / tau, |v_k|^2, and |g_{k+1}|^2
    form, steps, held, fed = np.empty(rows), np.empty(rows - 1), np.empty(rows), np.empty(rows - 1)
    for start, v in traj._blocks():  # row `start` repeats the last of the block before
        hi = start + len(v)
        form[start:hi] = _form(v, traj.basis.lam)
        v *= damping[start:hi, None]
        dv = np.diff(v, axis=0)
        dv /= tau
        dv *= dv
        steps[start:hi - 1] = dv.sum(axis=1)
        del dv
        v *= v
        held[start:hi] = v.sum(axis=1)
        g = traj.source[start + 1:hi] * damping[start + 1:hi, None]
        g *= g
        fed[start:hi - 1] = g.sum(axis=1)
        del v, g  # before the next block is stepped
    diss = np.concatenate(([0.0], np.cumsum(tau * hN * steps)))
    energy = hN * (damping ** 2 * form + held)
    source = np.concatenate(([0.0], np.cumsum(tau * hN * fed)))
    bound = energy[0] + source  # E_0 + S_k
    ok = bound[1:] > 0
    violation = bool(np.any((diss[1:] + energy[1:])[ok] > (1.0 + slack) * bound[1:][ok]))
    return EnergyLedger(traj.times.copy(), diss, energy, source, slack, violation)


def semigroup_apply(phi, t, nt, params, grid, matrix=None):
    """Approximate the homogeneous evolution semigroup by implicit Euler.

    phi is one datum, or a list of k data that all share (t, nt): the list
    is stacked into one (k, m) array, the nt steps (I + tau A)^(-nt) are one
    diagonal scaling in the eigenbasis of A, and the images come back as
    the (k, m) array of their Omega rows, in the same order.  One datum is
    a batch of one and comes back as an exterior-zero GridFunction.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
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
