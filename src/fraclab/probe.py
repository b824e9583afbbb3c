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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InconclusiveVerdictError
from .gridfn import CutoffSpec, build_cutoff
from .regions import nesting_margin
from .spaces import besov_seminorm, sobolev_seminorm

METHODS = ("gagliardo", "besov")
DEFAULT_METHOD = "gagliardo"
DEFAULT_P = 2.0
DEFAULT_SWEEP = tuple(round(0.1 * k, 1) for k in range(1, 20))
# Declared divergent when every per-halving log2 growth rate of the
# seminorm meets this threshold.  Calibrated so that a rho^s boundary
# cusp is flagged within one sweep step of its true exponent while the
# slow pre-asymptotic drift of convergent entries (observed <= 0.09 at
# desk resolutions) stays below it.
DEFAULT_RATE_THRESHOLD = 0.15


def growth_rate(values):
    """Most conservative per-halving log2 growth across the ladder."""
    v = np.asarray(values, float)
    if np.any(v <= 0):
        return -math.inf
    return float(np.log2(v[1:] / v[:-1]).min())


def estimator_problem(method, p, sweep=DEFAULT_SWEEP, region_mode=False):
    """The [probe] key an estimate cannot run with, and why; None if it can run.

    Region mode runs gagliardo whatever the method; gagliardo takes p in
    (1, inf), besov takes p >= 1 (inf allowed) and skips sigma = 1.
    """
    if method not in METHODS:
        return "method", f"method must be {' or '.join(METHODS)}, got {method!r}"
    runs = "gagliardo" if region_mode else method
    where = " in region mode, which runs gagliardo whatever the method" if region_mode else ""
    if runs == "besov":
        if not p >= 1.0:
            return "p", f"p must be >= 1 (inf allowed) for besov, got {p:g}"
        if all(sg == 1.0 for sg in sweep):
            return "sweep", "besov skips sigma = 1, so the sweep needs another exponent"
    elif not 1.0 < p < math.inf:
        return "p", f"p must be in (1, inf) for gagliardo{where}, got {p:g}"
    if method != runs:
        return "method", f"method must be gagliardo{where}, got {method!r}"
    return None


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
        return json.dumps(asdict(self), sort_keys=True, indent=1)


def _clean_verdicts(verdicts, sweep):
    """Enforce monotone divergence, tolerating one out-of-place entry.

    One convergent entry after the first divergent one becomes divergent.
    With several, the first divergent entry becomes convergent, and a
    result that is still not monotone is inconclusive.  The estimate
    records the exponents whose verdict was flipped.
    """
    v = list(verdicts)
    first_div = next((i for i, d in enumerate(v) if d), len(v))
    offenders = [i for i in range(first_div, len(v)) if not v[i]]
    if len(offenders) == 1:
        v[offenders[0]] = True
    elif offenders:
        v[first_div] = False
        if any(a and not b for a, b in zip(v, v[1:])):
            raise InconclusiveVerdictError(
                f"non-monotone divergence verdicts across the sweep: "
                f"{[f'{sg}:{int(d)}' for sg, d in zip(sweep, verdicts)]}")
    return v


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
                            levels=3, rate_threshold=DEFAULT_RATE_THRESHOLD,
                            method=DEFAULT_METHOD):
    """Estimate the maximal smoothness exponent of a re-solvable solution.

    resolve(grid) must return the solution GridFunction on that grid; the
    problem is re-solved on `levels` dyadic refinements of base_grid so
    no interpolation smooths the data.  If `inner` sits compactly inside
    Omega, the probe measures u * eta over the whole box with a cut-off
    supported between inner and its midpoint dilation toward Omega
    (localized membership); a region touching or crossing the Omega
    boundary is probed by the seminorm of u over the region itself.
    method is one of METHODS: the cut-off target's order-sigma Sobolev
    seminorm ("gagliardo") or its Besov (p, max(p, 2)) seminorm, and
    estimator_problem rejects what cannot run.  A sweep entry is
    divergent when its growth_rate meets rate_threshold.  A level whose
    seminorms are all 0 carries no data on the region and raises
    InconclusiveVerdictError.
    """
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    sweep = tuple(float(sg) for sg in sweep)
    if any(not 0.0 < sg < 2.0 for sg in sweep):
        raise ValueError("sweep exponents must lie in (0, 2)")
    margin = nesting_margin(inner, base_grid.omega)
    mode = "cutoff" if margin > 0 else "region"
    # the cut-off's outer region is grid-free: a union too tight to expand fails before any solve
    outer = inner.expand(margin / 2.0) if mode == "cutoff" else None
    problem = estimator_problem(method, p, sweep, mode == "region")
    if problem:
        raise ValueError(problem[1])
    if method == "besov":
        sweep = tuple(sg for sg in sweep if sg != 1.0)
    grids = [base_grid]
    while len(grids) < levels:
        grids.append(grids[-1].refine())

    values = []
    for grid in grids:
        u = resolve(grid)
        if u.grid is not grid:
            raise ValueError("resolve must return a solution on the given grid")
        eta = build_cutoff(grid, CutoffSpec(inner, outer)) if outer is not None else None
        level = _level_seminorms(u, sweep, p, method, mode, inner, eta)
        # all zero: the region holds no grid node, or u vanishes on it (outside Omega)
        if not level.any():
            raise InconclusiveVerdictError(
                f"no data in region {inner.describe()} at n = {grid.n}: every seminorm is 0")
        values.append(level.tolist())

    arr = np.asarray(values)
    rates = [growth_rate(arr[:, j]) for j in range(len(sweep))]
    raw = [r >= rate_threshold for r in rates]
    verdicts = _clean_verdicts(raw, sweep)
    star = _sigma_star(sweep, verdicts)
    flipped = [sg for sg, a, b in zip(sweep, raw, verdicts) if a != b]
    return RegularityEstimate(str(inner.describe()), float(p), method, sweep,
                              values, rates, verdicts, star, levels, mode, flipped)
