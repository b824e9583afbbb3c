"""Named experiment recipes behind the CLI.

Every recipe reads a RunConfig, runs deterministically (worker count
never changes results), writes CSV/JSON artifacts plus a manifest into
the output directory, and returns a summary dict used by the acceptance
thresholds.  Floats are serialized with 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from . import __version__
from .elliptic import solve_dirichlet
from .errors import ConfigError
from .gridfn import CutoffSpec, GridFunction, build_cutoff, build_grid, extend_by_zero, smoothstep
from .localization import g_bound_monitor, product_rule_residual
from .operator import FractionalParams, apply_fractional_laplacian, assemble_operator_matrix
from .parabolic import energy_report, semigroup_apply, solve_parabolic
from .probe import DivergenceProtocol, estimate_local_exponent
from .regions import Ball, Box
from .spaces import lp_norm

F17 = "{:.17g}".format


def getoor_constant(ndim, s):
    """Value of the operator on (1-|x|^2)^s_+ inside the unit ball."""
    return (2.0 ** (2 * s) * math.gamma(1 + s) * math.gamma((ndim + 2 * s) / 2.0)
            / math.gamma(ndim / 2.0))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([F17(v) if isinstance(v, float) else str(v) for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_manifest(out_dir, experiment, cfg, **fields):
    payload = {"experiment": experiment, "version": __version__,
               "config": cfg.echo() if cfg is not None else {}}
    payload.update(fields)
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def source_profile(cfg, grid):
    """Source on Omega nodes from the [source] section (default constant 1)."""
    profile = cfg.get_str("source", "profile", default="constant")
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
        return r ** expo
    if profile == "bump":
        frac_in = cfg.get_float("source", "inner_fraction", default=0.3)
        frac_out = cfg.get_float("source", "outer_fraction", default=0.8)
        bb = grid.omega.bounding_box()
        rad = 0.5 * min(hi - lo for lo, hi in bb)
        center = tuple(0.5 * (lo + hi) for lo, hi in bb)
        spec = CutoffSpec(Ball(center, frac_in * rad), Ball(center, frac_out * rad))
        return build_cutoff(grid, spec).values[grid.mask]
    if profile == "csv":
        path = cfg.get_str("source", "path", required=True)
        vals = np.asarray(np.loadtxt(path, delimiter=",", ndmin=1), float).ravel()
        if vals.size != grid.n_omega:
            raise cfg.error("source", "path", f"CSV source {path} holds {vals.size} "
                            f"values for {grid.n_omega} Omega nodes")
        return vals
    raise ConfigError(f"unknown source profile {profile!r}", path=cfg.path)


def _default_grid(cfg, ndim, n):
    """Grid from [grid] box and omega, by default the unit ball in [-2, 2]^ndim."""
    box_vals = cfg.get_floats("grid", "box", default=None)
    if box_vals is None:
        box = ((-2.0, 2.0),) * ndim
    elif len(box_vals) == 2 * ndim:
        box = tuple((box_vals[a], box_vals[ndim + a]) for a in range(ndim))
    else:
        raise cfg.error("grid", "box", f"box needs {2 * ndim} numbers for ndim={ndim}")
    omega = cfg.region("omega") or Ball((0.0,) * ndim, 1.0)
    return build_grid(ndim, box, n, omega)


# ---------------------------------------------------------------------------


def run_getoor(cfg, out_dir):
    """Closed-form benchmark: f = lambda on the unit ball gives (1-|x|^2)^s_+."""
    ndim = cfg.get_int("params", "ndim", default=1)
    s = cfg.get_float("params", "s", default=0.5)
    levels = cfg.get_ints("grid", "n", default=[129, 257, 513])
    params = FractionalParams(ndim, s)
    lam = getoor_constant(ndim, s)
    rows = []
    err_rows = []
    for n in levels:
        grid = _default_grid(cfg, ndim, n)
        u = solve_dirichlet(np.ones(grid.n_omega), params, grid)
        pts = grid.nodes()
        r2 = (pts ** 2).sum(axis=1).reshape(grid.shape)
        exact = np.clip(1.0 - r2, 0.0, None) ** s / lam
        inner = r2 <= 0.25
        rel = np.abs(u.values[inner] - exact[inner]) / np.abs(exact[inner])
        err_rows.append((n, grid.h, float(rel.max()),
                         float(np.abs(u.values - exact).max())))
        if n == levels[-1]:
            for pt, uv, ev in zip(pts, u.values.ravel(), exact.ravel()):
                rows.append(tuple(float(c) for c in pt) + (float(uv), float(ev)))
    _write_csv(os.path.join(out_dir, "solution.csv"),
               tuple(f"x{a}" for a in range(ndim)) + ("u", "exact"), rows)
    _write_csv(os.path.join(out_dir, "error_vs_h.csv"),
               ("n", "h", "rel_err_inner_half", "linf_err"), err_rows)
    write_manifest(out_dir, "getoor", cfg, ndim=ndim, s=s, n=levels,
                   regions={"omega": grid.omega.describe()})
    return {"errors": err_rows, "s": s, "ndim": ndim}


def _windowed_sine(kf, center, r1, r2, order):
    def f(y):
        d = abs(y - center)
        a = max(d - r1, 0.0)
        b = max(r2 - d, 0.0)
        t = b / (a + b) if a + b > 0 else 0.0
        return math.sin(kf * y) * float(smoothstep(t, order))
    return f


def _symbol_oracle(ufun, x0, s, cns, support_radius):
    """Adaptive quadrature of the defining symmetrized integral.

    Needs only ~1e-8 absolute accuracy (measured scheme errors sit well
    above that), so quadrature round-off warnings are silenced.
    """
    u0 = ufun(x0)

    def g(z):
        return (2 * u0 - ufun(x0 + z) - ufun(x0 - z)) * z ** (-1 - 2 * s)

    splits = (0.0, 1e-3, 0.1, 1.0, 4.0, support_radius)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(splits[:-1], splits[1:]):
            val, _ = quad(g, a, b, limit=400, epsabs=1e-11, epsrel=1e-10)
            total += val
    total += 2 * u0 * support_radius ** (-2 * s) / (2 * s)
    return cns * total


def run_symbol(cfg, out_dir):
    """Operator vs the Fourier symbol |k|^(2s) on windowed sines."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5, 0.7])
    k_list = cfg.get_floats("symbol", "k", default=[1.0, 2.0, 4.0])
    levels = cfg.get_ints("grid", "n", default=[513, 1025, 2049])
    half_width = cfg.get_float("grid", "half_width", default=28.0)
    r1 = cfg.get_float("symbol", "window_inner", default=7.0)
    r2 = cfg.get_float("symbol", "window_outer", default=16.0)
    order = cfg.get_int("symbol", "window_order", default=5)
    omega = Ball((0.0,), r2 + 2.0)
    rows = []
    summary = []
    for s in s_list:
        params = FractionalParams(1, s)
        for kf in k_list:
            h0 = 2 * half_width / (levels[0] - 1)
            center = round((math.pi / (2 * kf)) / h0) * h0
            ufun = _windowed_sine(kf, center, r1, r2, order)
            oracle = _symbol_oracle(ufun, center, s, params.cns,
                                    2 * abs(center) + r2 + 1.0)
            symbol_ref = abs(kf) ** (2 * s) * math.sin(kf * center)
            errs = []
            for n in levels:
                grid = build_grid(1, ((-half_width, half_width),), n, omega)
                x = grid.axes[0]
                uv = np.array([ufun(xx) for xx in x])
                u = GridFunction(grid, np.where(grid.mask, uv, 0.0), dirichlet=True)
                i0 = grid.node_index((center,))
                val = float(apply_fractional_laplacian(u, params).values[i0])
                err_sym = abs(val - symbol_ref) / abs(symbol_ref)
                err_orc = abs(val - oracle)
                errs.append(err_orc)
                rows.append((s, kf, n, grid.h, val, symbol_ref, oracle,
                             err_sym, err_orc))
            hs = [2 * half_width / (n - 1) for n in levels]
            order_fit = float(np.polyfit(np.log2(hs), np.log2(errs), 1)[0])
            summary.append({"s": s, "k": kf, "rel_err_finest": rows[-1][7],
                            "order": order_fit})
    _write_csv(os.path.join(out_dir, "symbol.csv"),
               ("s", "k", "n", "h", "value", "symbol", "oracle",
                "rel_err_vs_symbol", "abs_err_vs_oracle"), rows)
    write_manifest(out_dir, "symbol", cfg, ndim=1, s=s_list, k=k_list, n=levels,
                   regions={"omega": omega.describe(),
                            "window": {"inner": r1, "outer": r2, "order": order}})
    return {"table": summary}


def _jump_resolver(cfg, params):
    def resolve(grid):
        f = np.where(grid.omega_nodes()[:, 0] > 0, 1.0, 0.0)
        return solve_dirichlet(f, params, grid)
    return resolve


def run_elliptic_regularity(cfg, out_dir):
    """Interior vs boundary maximal exponents for a jump source."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5])
    p = cfg.get_float("probe", "p", default=2.0)
    levels = cfg.get_int("probe", "levels", default=3)
    base_n = cfg.get_int("grid", "n", default=129)
    thr = cfg.get_float("probe", "rate_threshold",
                        default=DivergenceProtocol().rate_threshold)
    interior = cfg.region("inner") or Box((-0.4,), (0.4,))
    boundary = cfg.region("boundary") or Box((0.5,), (1.5,))
    protocol = DivergenceProtocol(rate_threshold=thr)
    out = {}
    for s in s_list:
        params = FractionalParams(1, s)
        grid = _default_grid(cfg, 1, base_n)
        resolve = _jump_resolver(cfg, params)
        est_int = estimate_local_exponent(resolve, grid, p, interior,
                                          levels=levels, protocol=protocol)
        est_bdy = estimate_local_exponent(resolve, grid, p, boundary,
                                          levels=levels, protocol=protocol)
        for tag, est in (("interior", est_int), ("boundary", est_bdy)):
            with open(os.path.join(out_dir, f"estimate_s{s:g}_{tag}.json"), "w") as fh:
                fh.write(est.to_json())
                fh.write("\n")
        out[s] = {"interior": est_int.sigma_star, "boundary": est_bdy.sigma_star}
    write_manifest(out_dir, "elliptic-regularity", cfg, ndim=1, s=s_list, p=p,
                   n=base_n, levels=levels,
                   regions={"omega": grid.omega.describe(),
                            "interior": interior.describe(),
                            "boundary": boundary.describe()})
    return {"sigma_star": out, "p": p}


def run_parabolic_energy(cfg, out_dir):
    """Energy ledgers of the damped-variable identity under tau refinement."""
    s = cfg.get_float("params", "s", default=0.5)
    theta = cfg.get_float("time", "theta", default=1.0)
    T = cfg.get_float("time", "T", default=1.0)
    nt_list = cfg.get_ints("time", "nt", default=[64, 128])
    slack = cfg.get_float("time", "slack", default=0.05)
    n = cfg.get_int("grid", "n", default=257)
    params = FractionalParams(1, s)
    grid = _default_grid(cfg, 1, n)
    matrix = assemble_operator_matrix(grid, params)
    f = source_profile(cfg, grid)
    worst = {}
    for nt in nt_list:
        traj = solve_parabolic(f, T, nt, theta, params, grid, matrix=matrix)
        ledger = energy_report(traj, f, matrix=matrix, slack=slack)
        ledger.export_csv(os.path.join(out_dir, f"ledger_nt{nt}.csv"))
        if cfg.get_int("time", "export_snapshots", default=0):
            traj.export_csv(out_dir, prefix=f"snapshot_nt{nt}")
        worst[nt] = {"worst_ratio": ledger.worst_ratio(),
                     "violation": ledger.violation}
    write_manifest(out_dir, "parabolic-energy", cfg, ndim=1, s=s, theta=theta, T=T,
                   nt=nt_list, n=n, tau=[T / nt for nt in nt_list],
                   regions={"omega": grid.omega.describe()})
    return {"ledgers": worst, "slack": slack}


def run_semigroup_contraction(cfg, out_dir):
    """Contraction and positivity of the discrete evolution semigroup."""
    s = cfg.get_float("params", "s", default=0.5)
    n = cfg.get_int("grid", "n", default=129)
    count = cfg.get_int("semigroup", "count", default=100)
    times = cfg.get_floats("semigroup", "t", default=[0.1, 1.0])
    nt = cfg.get_int("semigroup", "nt", default=32)
    seed = cfg.get_int("experiment", "seed", default=0)
    params = FractionalParams(1, s)
    grid = _default_grid(cfg, 1, n)
    matrix = assemble_operator_matrix(grid, params)
    rng = np.random.default_rng(seed)
    p_values = (1.0, 1.5, 2.0, 4.0, math.inf)
    data = []
    for trial in range(count):
        phi = rng.standard_normal(grid.n_omega)
        if trial % 2 == 0:
            phi = np.abs(phi)  # half the draws probe positivity
        data.append(phi)
    images = [semigroup_apply(data, t, nt, params, grid, matrix=matrix) for t in times]
    rows = []
    worst_growth = -math.inf
    worst_negative = 0.0
    for trial, phi in enumerate(data):
        phi_fn = extend_by_zero(phi, grid)
        before = [lp_norm(phi_fn, p, "omega") for p in p_values]
        for t, batch in zip(times, images):
            image = batch[trial]
            for p, norm_before in zip(p_values, before):
                after = lp_norm(image, p, "omega")
                growth = after - norm_before
                worst_growth = max(worst_growth, growth)
                rows.append((trial, t, "inf" if math.isinf(p) else p,
                             norm_before, after, growth))
            if np.all(phi >= 0):
                worst_negative = min(worst_negative,
                                     float(image.values[grid.mask].min()))
    _write_csv(os.path.join(out_dir, "contraction.csv"),
               ("trial", "t", "p", "norm_before", "norm_after", "growth"), rows)
    write_manifest(out_dir, "semigroup-contraction", cfg, ndim=1, s=s, n=n,
                   t=times, nt=nt, count=count, seed=seed,
                   regions={"omega": grid.omega.describe()})
    return {"worst_growth": worst_growth, "worst_negative": worst_negative}


def run_product_rule(cfg, out_dir):
    """Residual of the cut-off identity for a smooth bump under refinement."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5, 0.7])
    levels = cfg.get_ints("grid", "n", default=[65, 129, 257])
    rows = []
    factors = {}
    for s in s_list:
        params = FractionalParams(1, s)
        res = []
        for n in levels:
            grid = _default_grid(cfg, 1, n)
            u = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.25),
                                              Ball((0.0,), 0.75), order=5))
            eta = build_cutoff(grid, CutoffSpec(Ball((0.0,), 0.45),
                                                Ball((0.0,), 0.9), order=3))
            r = product_rule_residual(u, eta, params)
            res.append(r)
            rows.append((s, n, grid.h, r))
        factors[s] = [res[i] / res[i + 1] for i in range(len(res) - 1)]
    _write_csv(os.path.join(out_dir, "product_rule.csv"),
               ("s", "n", "h", "residual"), rows)
    write_manifest(out_dir, "product-rule", cfg, ndim=1, s=s_list, n=levels,
                   regions={"omega": grid.omega.describe()})
    return {"factors": factors}


def run_g_bound(cfg, out_dir):
    """Refinement stability of the localization-bound constant."""
    s = cfg.get_float("params", "s", default=0.5)
    p = cfg.get_float("probe", "p", default=2.0)
    levels = cfg.get_ints("grid", "n", default=[129, 257, 513])
    params = FractionalParams(1, s)
    ratios = []
    rows = []
    for n in levels:
        grid = _default_grid(cfg, 1, n)
        f = source_profile(cfg, grid)
        u = solve_dirichlet(f, params, grid)
        spec = CutoffSpec(Ball((0.0,), 0.4), Ball((0.0,), 0.6),
                          omega2=Ball((0.0,), 0.8))
        report = g_bound_monitor(u, spec, params, spec.omega2, p)
        ratios.append(report.ratio)
        rows.append(report)
    from .localization import append_g_bound_csv

    append_g_bound_csv(os.path.join(out_dir, "g_bound.csv"), rows)
    write_manifest(out_dir, "g-bound", cfg, ndim=1, s=s, p=p, n=levels,
                   regions={"omega": grid.omega.describe(),
                            "eta_outer": spec.outer.describe(),
                            "omega2": spec.omega2.describe()})
    return {"ratios": ratios}


def run_regularity_sweep(cfg, out_dir):
    """Generic exponent sweep for a configurable source and region."""
    s = cfg.get_float("params", "s", default=0.5)
    p = cfg.get_float("probe", "p", default=2.0)
    levels = cfg.get_int("probe", "levels", default=3)
    base_n = cfg.get_int("grid", "n", default=129)
    method = cfg.get_str("probe", "method", default="gagliardo")
    sweep = cfg.get_floats("probe", "sweep", default=None)
    thr = cfg.get_float("probe", "rate_threshold",
                        default=DivergenceProtocol().rate_threshold)
    inner = cfg.region("inner") or Box((-0.4,), (0.4,))
    params = FractionalParams(1, s)
    grid = _default_grid(cfg, 1, base_n)

    def resolve(g):
        return solve_dirichlet(source_profile(cfg, g), params, g)

    kwargs = {"levels": levels, "method": method,
              "protocol": DivergenceProtocol(rate_threshold=thr)}
    if sweep is not None:
        kwargs["sweep"] = sweep
    est = estimate_local_exponent(resolve, grid, p, inner, **kwargs)
    with open(os.path.join(out_dir, "estimate.json"), "w") as fh:
        fh.write(est.to_json())
        fh.write("\n")
    write_manifest(out_dir, "regularity-sweep", cfg, ndim=1, s=s, p=p, n=base_n,
                   levels=levels,
                   regions={"omega": grid.omega.describe(),
                            "inner": inner.describe()})
    return {"sigma_star": est.sigma_star, "mode": est.mode}


def run_boundary_profile(cfg, out_dir):
    """u / rho^s shell profile for the constant-source solution."""
    s_list = cfg.get_floats("params", "s", default=[0.3, 0.5, 0.7])
    n = cfg.get_int("grid", "n", default=257)
    spread = {}
    for s in s_list:
        params = FractionalParams(1, s)
        grid = _default_grid(cfg, 1, n)
        u = solve_dirichlet(np.ones(grid.n_omega), params, grid)
        rho = grid.rho[grid.mask]
        vals = u.values[grid.mask]
        ratio = vals / rho ** s
        pts = grid.omega_nodes()
        rows = [(tuple(float(c) for c in pt) + (float(r), float(v), float(q)))
                for pt, r, v, q in zip(pts, rho, vals, ratio)]
        _write_csv(os.path.join(out_dir, f"profile_s{s:g}.csv"),
                   tuple(f"x{a}" for a in range(grid.ndim)) + ("rho", "u", "ratio"),
                   rows)
        bb = grid.omega.bounding_box()
        center = np.asarray([0.5 * (lo + hi) for lo, hi in bb])
        rad = 0.5 * min(hi - lo for lo, hi in bb)
        inner_half = np.linalg.norm(pts - center, axis=1) <= 0.5 * rad
        q = ratio[inner_half]
        med = float(np.median(q))
        spread[s] = {"lo": float(q.min() / med), "hi": float(q.max() / med)}
    write_manifest(out_dir, "boundary-profile", cfg, ndim=1, s=s_list, n=n,
                   regions={"omega": grid.omega.describe()})
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

RECIPE_ALIASES = {"identity-check": "product-rule"}

# the recipes that read [params] ndim; every other one runs in 1D only
READS_NDIM = {"getoor"}


def run_experiment(name, cfg, out_dir):
    canonical = RECIPE_ALIASES.get(name, name)
    if canonical not in RECIPES:
        raise ConfigError(f"unknown experiment {name!r}; see 'fraclab list'",
                          path=cfg.path if cfg else None)
    if canonical not in READS_NDIM and cfg.get_int("params", "ndim", default=1) != 1:
        raise cfg.error("params", "ndim", f"{canonical} runs in 1D only; ndim must be 1")
    os.makedirs(out_dir, exist_ok=True)
    return RECIPES[canonical](cfg, out_dir)
