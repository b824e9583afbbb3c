"""Named experiment recipes behind the CLI.

Every recipe reads a RunConfig, runs deterministically (byte-identical
artifacts at a fixed BLAS thread count), writes CSV/JSON artifacts plus
a manifest into the output directory, and returns a summary dict used
by the acceptance thresholds.  There is one writer per format:
_write_csv takes a 2-D numeric table and writes every field as %.17g,
and _write_json writes a payload (a probe estimate is its `asdict`)
with sorted keys.  Default regions are fractions of Omega's disc
(_omega_disc), so they follow [omega].  The two probe recipes,
elliptic-regularity and regularity-sweep, run one probe (_probe): it
reads [source] and every [probe] key and writes one estimate JSON per
region.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import asdict, astuple, fields

import numpy as np

from . import __version__
from .elliptic import solve_dirichlet
from .errors import CollarError, ConfigError
from .gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid, check_collar, ramp
from .localization import g_bound_monitor, product_rule_residual
from .operator import FractionalParams, apply_fractional_laplacian, assemble_operator_matrix
from .parabolic import energy_report, semigroup_apply, solve_parabolic
from .probe import (DEFAULT_METHOD, DEFAULT_P, DEFAULT_RATE_THRESHOLD, DEFAULT_SWEEP,
                    _ladder_problem, estimate_local_exponent, estimator_problem)
from .quadrature import _leggauss
from .regions import Ball, Box, nesting_margin
from .spaces import lp_norms

BUMP_FRACTIONS = (0.3, 0.8)  # [source] inner_fraction and outer_fraction when unset
SYMBOL_WINDOW = (7.0, 16.0)  # [symbol] window_inner and window_outer when unset
_CSV_ROWS = 4096  # array rows per block of _write_csv's text


def getoor_constant(ndim, s):
    """Value of the operator on (1-|x|^2)^s_+ inside the unit ball."""
    return (2.0 ** (2 * s) * math.gamma(1 + s) * math.gamma((ndim + 2 * s) / 2.0)
            / math.gamma(ndim / 2.0))


def _write_csv(path, header, table):
    """Write a header line, then a 2-D numeric table, _CSV_ROWS rows at a time.

    Floats as %.17g, ',' between fields, '\\r\\n' after each line; a
    table that is not one number per header field in each row raises
    TypeError.  Each distinct value of a block, told apart by its bits (so
    -0.0 is not 0.0), is formatted once, and the block's text is one join
    of those strings and the separators, gathered by index.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.dtype.kind not in "iuf" or table.shape[1] != len(header):
        raise TypeError(f"{path}: a CSV table is a 2-D numeric array of {len(header)} "
                        f"columns, got {table.dtype} of shape {table.shape}")
    table = np.ascontiguousarray(table, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(table), _CSV_ROWS):
            fh.write(_csv_text(table[lo:lo + _CSV_ROWS]))


def _csv_text(block):
    """The lines of a C-contiguous (r, c) float block, c >= 1, in _write_csv's dialect."""
    bits, index = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    tokens = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()] + [",", "\r\n"],
                      dtype=object)
    take = np.full((len(block), 2 * block.shape[1]), len(bits))  # ',' after each field
    take[:, 0::2] = index.reshape(block.shape)
    take[:, -1] = len(bits) + 1  # '\r\n' after the last
    return "".join(tokens[take].ravel().tolist())


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_manifest(out_dir, experiment, cfg, grid, regions=None, **fields):
    """manifest.json: the config echo and `fields`, with ndim and Omega read from `grid`."""
    payload = {"experiment": experiment, "version": __version__,
               "config": cfg.echo(), "ndim": grid.ndim,
               "regions": {"omega": grid.omega.describe(), **(regions or {})}}
    payload.update(fields)
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


# the [source] keys each profile reads beside `profile`
PROFILE_KEYS = {"constant": ("value",), "jump": ("threshold", "value"),
                "power": ("exponent", "center"), "bump": ("inner_fraction", "outer_fraction"),
                "csv": ("path",)}


def _source_kind(cfg, default="constant"):
    """[source] profile or `default`, checked to name a profile, and a path if it is csv."""
    profile = cfg.get_str("source", "profile", default=default)
    if profile not in PROFILE_KEYS:
        raise cfg.error("source", "profile", f"unknown source profile {profile!r} "
                        f"(known: {', '.join(PROFILE_KEYS)})")
    if profile == "csv" and not cfg.has("source", "path"):
        raise cfg.error("source", "profile", "missing key 'path' in section [source]")
    return profile


def source_profile(cfg, grid, default="constant"):
    """Source on Omega nodes from the [source] section, of profile `default` if it sets none."""
    profile = _source_kind(cfg, default)
    pts = grid.omega_nodes()
    if profile == "constant":
        return np.full(grid.n_omega, cfg.get_float("source", "value", default=1.0))
    if profile == "jump":
        threshold = cfg.get_float("source", "threshold", default=0.0)
        value = cfg.get_float("source", "value", default=1.0)
        return np.where(pts[:, 0] > threshold, value, 0.0)
    if profile == "power":
        expo = cfg.get_float("source", "exponent", default=0.5)
        center = cfg.get_floats("source", "center", default=[0.0] * grid.ndim)
        r = np.linalg.norm(pts - np.asarray(center), axis=1)
        with np.errstate(divide="ignore"):  # a node at the center: the solve rejects the inf
            return r ** expo
    if profile == "bump":
        frac_in = cfg.get_float("source", "inner_fraction", default=BUMP_FRACTIONS[0])
        frac_out = cfg.get_float("source", "outer_fraction", default=BUMP_FRACTIONS[1])
        spec = CutoffSpec(_disc_ball(grid, frac_in), _disc_ball(grid, frac_out))
        return build_cutoff(grid, spec).values[grid.mask]
    path = cfg.get_str("source", "path")  # profile = csv
    try:
        vals = np.asarray(np.loadtxt(path, delimiter=",", ndmin=1), float).ravel()
    except (OSError, ValueError) as exc:
        raise cfg.error("source", "path", f"cannot read CSV source {path}: {exc}") from None
    if vals.size != grid.n_omega:
        raise cfg.error("source", "path", f"CSV source {path} holds {vals.size} "
                        f"values for {grid.n_omega} Omega nodes")
    return vals


def _omega_disc(grid):
    """Centre of Omega's bounding box and half its smallest width: Omega's centred disc."""
    bb = grid.omega.bounding_box()
    return tuple(0.5 * (lo + hi) for lo, hi in bb), 0.5 * min(hi - lo for lo, hi in bb)


def _disc_ball(grid, frac):
    """The ball about the centre of Omega's disc whose radius is `frac` times the disc's."""
    center, rad = _omega_disc(grid)
    return Ball(center, frac * rad)


def _disc_box(grid, lo, hi):
    """The box from lo to hi disc radii past the centre of Omega's disc, on every axis."""
    center, rad = _omega_disc(grid)
    return Box(tuple(c + lo * rad for c in center), tuple(c + hi * rad for c in center))


def _reject_csv_source(cfg, runner):
    """Reject a CSV source, which holds values for one grid, where `runner` solves on several."""
    if cfg.get_str("source", "profile") == "csv":
        raise cfg.error("source", "profile", f"{runner} solves on more than one grid, but a "
                        "CSV source holds values for one grid")


def _probe(cfg, s, grid, regions, paths, default="constant"):
    """Estimate the maximal exponent of the [source] solution on each region, written to its path.

    Every [probe] key is read here, and checked against every region
    before anything is solved.  Each level is solved once, and its
    solution serves every region.  `default` is the source profile when
    [source] sets none.
    """
    _reject_csv_source(cfg, "the probe")
    p = cfg.get_float("probe", "p", default=DEFAULT_P)
    opts = {"sweep": cfg.get_floats("probe", "sweep", default=DEFAULT_SWEEP),
            "levels": cfg.get_int("probe", "levels", default=3),
            "rate_threshold": cfg.get_float("probe", "rate_threshold",
                                            default=DEFAULT_RATE_THRESHOLD),
            "method": cfg.get_str("probe", "method", default=DEFAULT_METHOD)}
    too_fine = _ladder_problem(grid.n, grid.ndim, opts["levels"])
    if too_fine:
        raise cfg.error(*(("probe", "levels") if cfg.has("probe", "levels") else ("grid", "n")),
                        too_fine)
    for region in regions:
        problem = estimator_problem(opts["method"], p, opts["sweep"],
                                    nesting_margin(region, grid.omega) <= 0)
        if problem:
            raise cfg.error("probe", problem[0], f"{problem[1]} (region {region.describe()})")
    params = FractionalParams(grid.ndim, s)
    solved = {}  # every region refines the same base grid: one solve per level

    def resolve(g):
        if g.n not in solved:
            solved[g.n] = solve_dirichlet(source_profile(cfg, g, default), params, g).values
        return GridFunction(g, solved[g.n], dirichlet=True)

    estimates = [estimate_local_exponent(resolve, grid, p, region, **opts)
                 for region in regions]
    for est, path in zip(estimates, paths):
        _write_json(path, asdict(est))
    return estimates


def _default_grid(cfg, n, box=(-2.0, 2.0), omega=None, omega_from=None):
    """Grid of n nodes per axis from [params] ndim, [grid] box and [omega].

    The recipe's defaults are `box` on each axis and `omega` (None: the unit
    ball at 0).  Before any grid is built, a box and Omega that break the
    collar rule are a config error at [grid] box, else at [omega], else at
    `omega_from`, the (section, key) that the recipe's default Omega reads.
    """
    ndim = cfg.get_int("params", "ndim", default=1)
    lo_hi = cfg.get_floats("grid", "box", default=[box[0]] * ndim + [box[1]] * ndim)
    box = tuple((lo_hi[a], lo_hi[ndim + a]) for a in range(ndim))  # checked at load time
    omega = cfg.region("omega") or omega or Ball((0.0,) * ndim, 1.0)
    try:
        check_collar(box, omega)
    except CollarError as exc:
        at = next((sk for sk in (("grid", "box"), ("omega", "kind")) if cfg.has(*sk)),
                  omega_from)
        raise cfg.error(*at, f"{exc}; Omega is {omega.describe()} in the box "
                        + " x ".join(f"({lo:g}, {hi:g})" for lo, hi in box)) from exc
    return build_grid(ndim, box, n, omega)


# ---------------------------------------------------------------------------


def run_getoor(cfg, out_dir):
    """Closed-form benchmark: f = lambda on any ball B_r(c) gives (r^2-|x-c|^2)^s_+."""
    s = cfg.get_float("params", "s", default=0.5)
    levels = cfg.get_ints("grid", "n", default=[129, 257, 513])
    if isinstance(cfg.region("omega"), Box):
        raise cfg.error("omega", "kind", "getoor has a closed form on a ball only; "
                        "write an interval as a ball")
    err_rows = []
    for n in levels:
        grid = _default_grid(cfg, n)
        u = solve_dirichlet(np.ones(grid.n_omega), FractionalParams(grid.ndim, s), grid)
        pts = grid.nodes()
        ball = grid.omega
        d2 = ((pts - ball.center) ** 2).sum(axis=1).reshape(grid.shape)
        exact = np.clip(ball.radius ** 2 - d2, 0.0, None) ** s / getoor_constant(grid.ndim, s)
        inner = d2 <= 0.25 * ball.radius ** 2
        rel = np.abs(u.values[inner] - exact[inner]) / np.abs(exact[inner])
        err_rows.append((n, grid.h, float(rel.max()),
                         float(np.abs(u.values - exact).max())))
    # the last level's solution
    _write_csv(os.path.join(out_dir, "solution.csv"),
               tuple(f"x{a}" for a in range(grid.ndim)) + ("u", "exact"),
               np.column_stack([pts, u.values.ravel(), exact.ravel()]))
    _write_csv(os.path.join(out_dir, "error_vs_h.csv"),
               ("n", "h", "rel_err_inner_half", "linf_err"), err_rows)
    write_manifest(out_dir, "getoor", cfg, grid, s=s, n=levels)
    return {"errors": err_rows, "s": s, "ndim": grid.ndim}


def _window(d, r1, r2, order):
    """C^order cut-off of a distance d: 1 up to r1, 0 from r2 on; takes arrays."""
    return ramp(np.maximum(d - r1, 0.0), np.maximum(r2 - d, 0.0), order)


def _symbol_oracle(kf, center, s, cns, window, width):
    """The operator on u(y) = sin(kf y) _window(|y - c|, *window) at y = c = center.

    cns times the integral over z > 0 of z^(-1-2s) (2 u(c) - u(c + z) - u(c - z)),
    that is 2 sin(kf c) (2 sin^2(kf z / 2) + cos(kf z) (1 - W(z))) without
    cancellation, by 20-node Gauss-Legendre: exact to rounding on panels no
    wider than `width` when kf width < pi.  The panels split at r1 and r2
    and halve toward 0, where z = a t^(1/(2-2s)) on the last, [0, a], takes
    up the weight z^(1-2s).  Beyond r2 the integral is closed-form.
    """
    r1, r2, _ = window
    u0 = math.sin(kf * center)

    def second_difference(z):
        return 2 * u0 * (2 * np.sin(kf * z / 2) ** 2
                         + np.cos(kf * z) * (1 - _window(z, *window)))

    t, w = _leggauss(20)
    t, w = (t + 1) / 2, w / 2
    edges = list(min(width, r1) * 0.5 ** np.arange(12, -1, -1))  # 8 halvings reach rounding
    for b in (r1, r2):
        edges.extend(np.linspace(edges[-1], b, math.ceil((b - edges[-1]) / width) + 1)[1:])
    lo, span = np.array(edges[:-1]), np.diff(edges)
    z = lo[:, None] + span[:, None] * t
    total = span @ ((second_difference(z) * z ** (-1 - 2 * s)) @ w)
    p, a = 2 - 2 * s, edges[0]
    z = a * t ** (1 / p)
    total += a ** p / p * ((second_difference(z) / z ** 2) @ w)
    total += 2 * u0 * r2 ** (-2 * s) / (2 * s)
    return cns * float(total)


def run_symbol(cfg, out_dir):
    """Operator vs the Fourier symbol |k|^(2s) on windowed sines."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5, 0.7])
    k_list = cfg.get_floats("symbol", "k", default=[1.0, 2.0, 4.0])
    levels = cfg.get_ints("grid", "n", default=[513, 1025, 2049])
    r1 = cfg.get_float("symbol", "window_inner", default=SYMBOL_WINDOW[0])
    r2 = cfg.get_float("symbol", "window_outer", default=SYMBOL_WINDOW[1])
    order = cfg.get_int("symbol", "window_order", default=5)
    if len(levels) < 2:
        raise cfg.error("grid", "n", "symbol fits its order through at least 2 [grid] n levels")
    grids = [_default_grid(cfg, n, box=(-28.0, 28.0), omega=Ball((0.0,), r2 + 2.0),
                           omega_from=("symbol", "window_outer")) for n in levels]
    x0, h0, omega = grids[0].axes[0], grids[0].h, grids[0].omega
    # the checks below read k, h0 and Omega alone, and pass at their defaults
    at = next((sk for sk in (("symbol", "k"), ("grid", "n"), ("grid", "box"),
                             ("omega", "kind")) if cfg.has(*sk)), None)
    kmax = max(abs(kf) for kf in k_list)
    if kmax * h0 >= math.pi:  # the node nearest pi / (2k) may then be a zero of sin(kx)
        raise cfg.error(*at, f"k h must be below pi on the first grid, got k = {kmax:g}, "
                        f"h = {h0:g}")
    centers = [float(x0[np.abs(x0 - math.pi / (2 * kf)).argmin()]) for kf in k_list]
    for kf, center in zip(k_list, centers):
        if nesting_margin(Ball((center,), r2), omega) <= 0:
            raise cfg.error(*at, f"the window around x = {center:g} for k = {kf:g} leaves "
                            f"Omega {omega.describe()}")
    window = (r1, r2, order)
    rows = []
    summary = []
    for s in s_list:
        params = FractionalParams(1, s)
        for kf, center in zip(k_list, centers):
            oracle = _symbol_oracle(kf, center, s, params.cns, window, h0)
            symbol_ref = abs(kf) ** (2 * s) * math.sin(kf * center)
            for grid in grids:
                x = grid.axes[0]
                uv = np.sin(kf * x) * _window(np.abs(x - center), *window)
                u = GridFunction(grid, np.where(grid.mask, uv, 0.0), dirichlet=True)
                i0 = grid.node_index((center,))
                val = float(apply_fractional_laplacian(u, params).values[i0])
                rows.append((s, kf, grid.n, grid.h, val, symbol_ref, oracle,
                             abs(val - symbol_ref) / abs(symbol_ref), abs(val - oracle)))
            h, err = np.array(rows[-len(grids):])[:, [3, 8]].T  # the oracle errors by h
            summary.append({"s": s, "k": kf, "rel_err_finest": rows[-1][7],
                            "order": float(np.polyfit(np.log2(h), np.log2(err), 1)[0])})
    _write_csv(os.path.join(out_dir, "symbol.csv"),
               ("s", "k", "n", "h", "value", "symbol", "oracle",
                "rel_err_vs_symbol", "abs_err_vs_oracle"), rows)
    write_manifest(out_dir, "symbol", cfg, grids[-1], s=s_list, k=k_list, n=levels,
                   regions={"window": {"inner": r1, "outer": r2, "order": order}})
    return {"table": summary}


def run_elliptic_regularity(cfg, out_dir):
    """Interior vs boundary maximal exponents, by default for a jump source."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5])
    base_n = cfg.get_int("grid", "n", default=129)
    grid = _default_grid(cfg, base_n)
    interior = cfg.region("inner") or _disc_box(grid, -0.4, 0.4)
    boundary = cfg.region("boundary") or _disc_box(grid, 0.5, 1.5)
    out = {}
    for s in s_list:
        est_int, est_bdy = _probe(cfg, s, grid, [interior, boundary],
                                  [os.path.join(out_dir, f"estimate_s{s:g}_{tag}.json")
                                   for tag in ("interior", "boundary")],
                                  default=READS["elliptic-regularity"].profile)
        out[s] = {"interior": est_int.sigma_star, "boundary": est_bdy.sigma_star}
    write_manifest(out_dir, "elliptic-regularity", cfg, grid, s=s_list, p=est_int.p,
                   n=base_n, levels=est_int.levels,
                   regions={"interior": interior.describe(), "boundary": boundary.describe()})
    return {"sigma_star": out, "p": est_int.p}


def run_parabolic_energy(cfg, out_dir):
    """Energy ledgers of the damped-variable identity under tau refinement."""
    s = cfg.get_float("params", "s", default=0.5)
    theta = cfg.get_float("time", "theta", default=1.0)
    T = cfg.get_float("time", "T", default=1.0)
    nt_list = cfg.get_ints("time", "nt", default=[64, 128])
    slack = cfg.get_float("time", "slack")  # None: energy_report's max(0.05, 2 tau)
    n = cfg.get_int("grid", "n", default=257)
    grid = _default_grid(cfg, n)
    params = FractionalParams(grid.ndim, s)
    matrix = assemble_operator_matrix(grid, params)
    f = source_profile(cfg, grid)
    worst = {}
    for nt in nt_list:
        traj = solve_parabolic(f, T, nt, theta, params, grid, matrix=matrix)
        ledger = energy_report(traj, slack=slack)
        _write_csv(os.path.join(out_dir, f"ledger_nt{nt}.csv"),
                   ("k", "t", "dissipation", "energy", "source_norm"),
                   np.column_stack([np.arange(nt + 1), ledger.times, ledger.dissipation,
                                    ledger.energy, ledger.source]))
        worst[nt] = {"worst_ratio": ledger.worst_ratio(),
                     "violation": ledger.violation, "slack": ledger.slack}
    write_manifest(out_dir, "parabolic-energy", cfg, grid, s=s, theta=theta, T=T,
                   nt=nt_list, n=n, tau=[T / nt for nt in nt_list])
    return {"ledgers": worst, "slack": slack}


def run_semigroup_contraction(cfg, out_dir):
    """Contraction and positivity of the discrete evolution semigroup."""
    s = cfg.get_float("params", "s", default=0.5)
    n = cfg.get_int("grid", "n", default=129)
    count = cfg.get_int("semigroup", "count", default=100)
    times = cfg.get_floats("semigroup", "t", default=[0.1, 1.0])
    nt = cfg.get_int("semigroup", "nt", default=32)
    seed = cfg.get_int("experiment", "seed", default=0)
    grid = _default_grid(cfg, n)
    params = FractionalParams(grid.ndim, s)
    matrix = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(seed)
    p_values = (1.0, 1.5, 2.0, 4.0, math.inf)
    data = []
    for trial in range(count):
        phi = rng.standard_normal(grid.n_omega)
        if trial % 2 == 0:
            phi = np.abs(phi)  # half the draws probe positivity
        data.append(phi)
    nonnegative = [trial for trial, phi in enumerate(data) if np.all(phi >= 0)]
    cell = grid.h ** grid.ndim

    def norms(rows):  # (count, len(p_values)): the L^p norms of each row over Omega
        return np.column_stack([lp_norms(rows, p, cell) for p in p_values])

    after = []  # per t, as `before`
    worst_negative = 0.0
    for t in times:
        images = semigroup_apply(data, t, nt, params, grid, matrix=matrix)
        after.append(norms(images))
        worst_negative = min(worst_negative, float(images[nonnegative].min()))
    after = np.stack(after, axis=1)  # (count, len(times), len(p_values))
    before = np.broadcast_to(norms(np.array(data))[:, None], after.shape)
    growth = after - before
    # one row per (trial, t, p), in that order; %.17g writes p = inf as "inf"
    columns = np.meshgrid(np.arange(count), times, p_values, indexing="ij")
    _write_csv(os.path.join(out_dir, "contraction.csv"),
               ("trial", "t", "p", "norm_before", "norm_after", "growth"),
               np.stack([*columns, before, after, growth], axis=-1).reshape(-1, 6))
    worst_growth = float(growth.max())
    write_manifest(out_dir, "semigroup-contraction", cfg, grid, s=s, n=n,
                   t=times, nt=nt, count=count, seed=seed)
    return {"worst_growth": worst_growth, "worst_negative": worst_negative}


def run_product_rule(cfg, out_dir):
    """Residual of the cut-off identity for a smooth bump under refinement."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5, 0.7])
    levels = cfg.get_ints("grid", "n", default=[65, 129, 257])
    rows = []
    factors = {}
    grids = [_default_grid(cfg, n) for n in levels]

    def cutoff(grid, inner, outer, order):
        return build_cutoff(grid, CutoffSpec(_disc_ball(grid, inner), _disc_ball(grid, outer),
                                             order=order))

    # the bump u and the cut-off eta per grid; every s reads them
    pairs = [(cutoff(grid, 0.25, 0.75, 5), cutoff(grid, 0.45, 0.9, 3)) for grid in grids]
    for s in s_list:
        res = []
        for n, grid, (u, eta) in zip(levels, grids, pairs):
            r = product_rule_residual(u, eta, FractionalParams(grid.ndim, s))
            res.append(r)
            rows.append((s, n, grid.h, r))
        factors[s] = [res[i] / res[i + 1] for i in range(len(res) - 1)]
    _write_csv(os.path.join(out_dir, "product_rule.csv"),
               ("s", "n", "h", "residual"), rows)
    write_manifest(out_dir, "product-rule", cfg, grids[-1], s=s_list, n=levels)
    return {"factors": factors}


def run_g_bound(cfg, out_dir):
    """Refinement stability of the localization-bound constant."""
    s = cfg.get_float("params", "s", default=0.5)
    levels = cfg.get_ints("grid", "n", default=[129, 257, 513])
    if len(levels) > 1:
        _reject_csv_source(cfg, "g-bound")
    p = cfg.get_float("probe", "p", default=DEFAULT_P)
    problem = estimator_problem(cfg.get_str("probe", "method", default=DEFAULT_METHOD), p,
                                region_mode=True)
    if problem:
        raise cfg.error("probe", problem[0], f"{problem[1]} (the g-bound monitor)")
    ratios = []
    rows = []
    for n in levels:
        grid = _default_grid(cfg, n)
        params = FractionalParams(grid.ndim, s)
        u = solve_dirichlet(source_profile(cfg, grid), params, grid)
        spec = CutoffSpec(_disc_ball(grid, 0.4), _disc_ball(grid, 0.6),
                          omega2=_disc_ball(grid, 0.8))
        report = g_bound_monitor(u, spec, params, p)
        ratios.append(report.ratio)
        rows.append(report)
    _write_csv(os.path.join(out_dir, "g_bound.csv"),
               [f.name for f in fields(rows[0])] + ["ratio"],
               [astuple(r) + (r.ratio,) for r in rows])
    write_manifest(out_dir, "g-bound", cfg, grid, s=s, p=p, n=levels,
                   regions={"eta_outer": spec.outer.describe(),
                            "omega2": spec.omega2.describe()})
    return {"ratios": ratios}


def run_regularity_sweep(cfg, out_dir):
    """Generic exponent sweep for a configurable source and region."""
    s = cfg.get_float("params", "s", default=0.5)
    base_n = cfg.get_int("grid", "n", default=129)
    grid = _default_grid(cfg, base_n)
    inner = cfg.region("inner") or _disc_box(grid, -0.4, 0.4)
    est, = _probe(cfg, s, grid, [inner], [os.path.join(out_dir, "estimate.json")])
    write_manifest(out_dir, "regularity-sweep", cfg, grid, s=s, p=est.p, n=base_n,
                   levels=est.levels, regions={"inner": inner.describe()})
    return {"sigma_star": est.sigma_star, "mode": est.mode}


def run_boundary_profile(cfg, out_dir):
    """u / rho^s shell profile for the constant-source solution."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5, 0.7])
    n = cfg.get_int("grid", "n", default=257)
    spread = {}
    grid = _default_grid(cfg, n)
    for s in s_list:
        u = solve_dirichlet(np.ones(grid.n_omega), FractionalParams(grid.ndim, s), grid)
        rho = grid.rho[grid.mask]
        vals = u.values[grid.mask]
        ratio = vals / rho ** s
        pts = grid.omega_nodes()
        _write_csv(os.path.join(out_dir, f"profile_s{s:g}.csv"),
                   tuple(f"x{a}" for a in range(grid.ndim)) + ("rho", "u", "ratio"),
                   np.column_stack([pts, rho, vals, ratio]))
        center, rad = _omega_disc(grid)
        inner_half = np.linalg.norm(pts - center, axis=1) <= 0.5 * rad
        q = ratio[inner_half]
        med = float(np.median(q))
        spread[s] = {"lo": float(q.min() / med), "hi": float(q.max() / med)}
    write_manifest(out_dir, "boundary-profile", cfg, grid, s=s_list, n=n)
    return {"spread": spread}


RECIPES = {
    "getoor": run_getoor,
    "symbol": run_symbol,
    "elliptic-regularity": run_elliptic_regularity,
    "parabolic-energy": run_parabolic_energy,
    "semigroup-contraction": run_semigroup_contraction,
    "product-rule": run_product_rule,
    "g-bound": run_g_bound,
    "regularity-sweep": run_regularity_sweep,
    "boundary-profile": run_boundary_profile,
}

ALL = None  # every key of a section is read
# every recipe reads [experiment] name, and builds its grids from [params], [grid] and [omega]
FRONT = {"experiment": ("name",), "params": ALL, "grid": ALL, "omega": ALL}
# What each recipe reads; any other key a config sets is rejected.  `sections` maps each
# section it reads beyond FRONT, or whose FRONT entry it widens, to the keys it reads;
# `ndims` are the [params] ndim it runs at; `profile` is its [source] profile when the
# config sets none (None: it reads no [source]), whose keys are `profile` and PROFILE_KEYS.
Reads = namedtuple("Reads", "sections ndims profile", defaults=((1,), None))
READS = {
    "getoor": Reads({}, ndims=(1, 2)),
    "symbol": Reads({"symbol": ALL}),
    "elliptic-regularity": Reads({"inner": ALL, "boundary": ALL, "probe": ALL}, profile="jump"),
    "parabolic-energy": Reads({"time": ALL}, profile="constant"),
    # the one recipe that draws random data
    "semigroup-contraction": Reads({"experiment": ("name", "seed"), "semigroup": ALL}),
    "product-rule": Reads({}),
    "g-bound": Reads({"probe": ("method", "p")}, profile="constant"),
    "regularity-sweep": Reads({"inner": ALL, "probe": ALL}, profile="constant"),
    "boundary-profile": Reads({}),
}


def run_experiment(name, cfg, out_dir):
    if name not in RECIPES:
        message = f"unknown experiment {name!r}; see 'fraclab list'"
        if cfg.get_str("experiment", "name") == name:
            raise cfg.error("experiment", "name", message)
        raise ConfigError(message, path=cfg.path)
    reads = READS[name]
    if cfg.get_int("params", "ndim", default=1) not in reads.ndims:
        raise cfg.error("params", "ndim", f"{name} runs only at ndim = "
                        + " or ".join(map(str, reads.ndims)))
    keys = {**FRONT, **reads.sections}
    if reads.profile:  # [source] is read by profile; all of this before any grid is built
        keys["source"] = ("profile",) + PROFILE_KEYS[_source_kind(cfg, reads.profile)]
    for section, given in cfg.sections.items():
        known = keys.get(section, ())
        unread = next((key for key in given if known is not ALL and key not in known), None)
        if unread is not None:
            raise cfg.error(section, unread, f"{name} does not read [{section}] {unread}; "
                            + (f"of [{section}] it reads only {', '.join(known)}" if known
                               else f"it reads {', '.join(f'[{sec}]' for sec in keys)}"))
    os.makedirs(out_dir, exist_ok=True)
    return RECIPES[name](cfg, out_dir)
