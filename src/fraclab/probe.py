"""Refinement-based estimation of maximal local smoothness exponents.

Membership of a computed solution in a smoothness class has no truth
value on one grid, so the probe re-solves the problem on a ladder of
grids and watches each (semi)norm across levels.  A sweep exponent is
declared divergent when the most conservative per-halving growth rate of
the seminorm stays above a threshold; the maximal exponent is the
midpoint between the largest convergent and smallest divergent entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveVerdictError
from .gridfn import CutoffSpec, build_cutoff
from .regions import nesting_margin
from .spaces import besov_seminorm, sobolev_seminorm

DEFAULT_SWEEP = tuple(round(0.1 * k, 1) for k in range(1, 20))
# Declared divergent when every per-halving log2 growth rate of the
# seminorm meets this threshold.  Calibrated so that a rho^s boundary
# cusp is flagged within one sweep step of its true exponent while the
# slow pre-asymptotic drift of convergent entries (observed <= 0.09 at
# desk resolutions) stays below it.
DEFAULT_RATE_THRESHOLD = 0.15


@dataclass(frozen=True)
class DivergenceProtocol:
    rate_threshold: float = DEFAULT_RATE_THRESHOLD
    levels: int = 3

    def growth_rate(self, values):
        """Most conservative per-halving log2 growth across the ladder."""
        v = np.asarray(values, float)
        if np.any(v <= 0):
            return -math.inf
        rates = np.log2(v[1:] / v[:-1])
        return float(rates.min())

    def is_divergent(self, values):
        return self.growth_rate(values) >= self.rate_threshold


@dataclass(frozen=True)
class RegularityEstimate:
    region: str
    p: float
    method: str
    sweep: tuple
    values: list            # values[level][sigma index]
    rates: list             # conservative growth rate per sigma
    verdicts: list          # True = divergent, per sigma
    sigma_star: float
    levels: int
    mode: str               # "cutoff" or "region"
    flipped: list           # sweep exponents whose verdict the clean-up flipped

    def to_json(self):
        return json.dumps({
            "region": self.region,
            "p": self.p,
            "method": self.method,
            "sweep": list(self.sweep),
            "levels": self.levels,
            "mode": self.mode,
            "values": [[float(v) for v in row] for row in self.values],
            "rates": [float(r) for r in self.rates],
            "verdicts": [bool(b) for b in self.verdicts],
            "sigma_star": self.sigma_star,
            "flipped": [float(sg) for sg in self.flipped],
        }, sort_keys=True, indent=1)


def _clean_verdicts(verdicts, sweep):
    """Enforce monotone divergence, tolerating one out-of-place entry.

    The estimate records the exponent whose verdict was flipped.
    """
    v = list(verdicts)
    first_div = next((i for i, d in enumerate(v) if d), len(v))
    offenders = [i for i in range(first_div, len(v)) if not v[i]]
    if not offenders:
        return v
    # try flipping the single offender either way
    for cand in (None, first_div):
        w = list(verdicts)
        if cand is None:
            if len(offenders) == 1:
                w[offenders[0]] = True
            else:
                continue
        else:
            w[cand] = False
        fd = next((i for i, d in enumerate(w) if d), len(w))
        if all(w[i] for i in range(fd, len(w))):
            return w
    raise InconclusiveVerdictError(
        f"non-monotone divergence verdicts across the sweep: "
        f"{[f'{sg}:{int(d)}' for sg, d in zip(sweep, verdicts)]}")


def _sigma_star(sweep, verdicts):
    first_div = next((i for i, d in enumerate(verdicts) if d), None)
    if first_div is None:
        return float(sweep[-1])
    if first_div == 0:
        return float(sweep[0])
    return float(0.5 * (sweep[first_div - 1] + sweep[first_div]))


def _level_seminorms(u, sweep, p, method, mode, region, eta):
    """Seminorms of one level for the whole sweep, from one estimator call."""
    if mode == "cutoff":
        target = u * eta
        if method == "besov":
            q = 2.0 if p < 2.0 else p
            return besov_seminorm(target, sweep, p, q)
        return sobolev_seminorm(target, sweep, p, None)
    # region mode: seminorm of u itself over the window
    return sobolev_seminorm(u, sweep, p, region)


def estimate_local_exponent(resolve, base_grid, p, inner, sweep=DEFAULT_SWEEP,
                            levels=3, protocol=None, method="gagliardo",
                            cutoff_order=3):
    """Estimate the maximal smoothness exponent of a re-solvable solution.

    resolve(grid) must return the solution GridFunction on that grid; the
    problem is re-solved on `levels` dyadic refinements of base_grid so
    no interpolation smooths the data.  If `inner` sits compactly inside
    Omega, the probe measures u * eta over the whole box with a cut-off
    supported between inner and its midpoint dilation toward Omega
    (localized membership); a region touching or crossing the Omega
    boundary is probed by the seminorm of u over the region itself.
    """
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    protocol = protocol or DivergenceProtocol(levels=levels)
    sweep = tuple(float(sg) for sg in sweep)
    if any(not 0.0 < sg < 2.0 for sg in sweep):
        raise ValueError("sweep exponents must lie in (0, 2)")
    if method == "besov":
        sweep = tuple(sg for sg in sweep if sg != 1.0)

    margin = nesting_margin(inner, base_grid.omega)
    mode = "cutoff" if margin > 0 else "region"
    grids = [base_grid]
    while len(grids) < levels:
        grids.append(grids[-1].refine())

    values = []
    for grid in grids:
        u = resolve(grid)
        if u.grid is not grid:
            raise ValueError("resolve must return a solution on the given grid")
        eta = None
        if mode == "cutoff":
            outer = inner.expand(margin / 2.0)
            eta = build_cutoff(grid, CutoffSpec(inner, outer, order=cutoff_order))
        values.append(_level_seminorms(u, sweep, p, method, mode, inner, eta).tolist())

    arr = np.asarray(values)
    rates = [protocol.growth_rate(arr[:, j]) for j in range(len(sweep))]
    raw = [r >= protocol.rate_threshold for r in rates]
    verdicts = _clean_verdicts(raw, sweep)
    star = _sigma_star(sweep, verdicts)
    flipped = [sg for sg, a, b in zip(sweep, raw, verdicts) if a != b]
    return RegularityEstimate(str(inner.describe()), float(p), method, sweep,
                              values, rates, verdicts, star, levels, mode, flipped)


@dataclass(frozen=True)
class SliceRecord:
    k: int
    t: float
    ut_norm: float          # ||(u_k - u_{k-1}) / tau||_p on Omega
    potential: float        # potential norm of u_k eta
    local_seminorm: float   # estimator at sigma = 2s chosen by (p, s)
    estimator: str


@dataclass(frozen=True)
class ParabolicRegularityReport:
    records: list
    ut_time_norm: float          # (sum tau ||u_t||_p^p)^(1/p)
    seminorm_time_norm: float
    estimator: str

    def rows(self):
        return [(r.k, r.t, r.ut_norm, r.potential, r.local_seminorm) for r in self.records]


def parabolic_regularity_report(traj, f, p, inner, params, cutoff_order=3):
    """Per-slice smoothness bookkeeping for a parabolic trajectory.

    The sigma = 2s slice estimator follows the integrability split:
    Besov (p, 2) when p < 2 and s != 1/2, first-derivative L^p when
    p < 2 and s = 1/2, fractional Sobolev otherwise.
    """
    from .spaces import potential_norm

    grid = traj.grid
    s = params.s
    margin = nesting_margin(inner, grid.omega)
    if margin <= 0:
        raise ValueError("inner region must sit compactly inside Omega")
    eta = build_cutoff(grid, CutoffSpec(inner, inner.expand(margin / 2.0),
                                        order=cutoff_order))
    if p < 2.0 and abs(s - 0.5) > 1e-12:
        estimator = "besov"
    elif p < 2.0:
        estimator = "w1p"
    else:
        estimator = "sobolev"

    hN = grid.h ** grid.ndim
    records = []
    ut_acc = 0.0
    semi_acc = 0.0
    for k in range(1, traj.nt + 1):
        du = (traj.snapshots[k].values - traj.snapshots[k - 1].values)[grid.mask] / traj.tau
        ut_norm = float((np.abs(du) ** p).sum() * hN) ** (1.0 / p)
        ue = traj.snapshots[k] * eta
        pot = potential_norm(ue, params, p)
        if estimator == "besov":
            semi = besov_seminorm(ue, 2 * s, p, 2.0)
        elif estimator == "w1p":
            semi = sobolev_seminorm(ue, 1.0, p, None)
        else:
            semi = sobolev_seminorm(ue, 2 * s, p, None)
        records.append(SliceRecord(k, traj.times[k], ut_norm, pot, semi, estimator))
        ut_acc += traj.tau * ut_norm ** p
        semi_acc += traj.tau * semi ** p
    return ParabolicRegularityReport(records, ut_acc ** (1.0 / p),
                                     semi_acc ** (1.0 / p), estimator)
