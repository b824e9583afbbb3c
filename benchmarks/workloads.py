"""The parts of the benchmark workloads and their correctness gates.

A workload (run.WORKLOADS) runs two of these parts one after the other,
each in its own fresh interpreter.  Each part is split into a set-up step,
which builds the inputs the program receives (parsed configs and plain
parameters, derived from the workload seed), and a run step, which calls
fraclab, writes every result into an artifact directory, records the gate
outcomes and returns the part's reference error.  Nothing here depends on timing, so a traced
and an untraced run of one seed must write byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.linalg

from fraclab import elliptic, experiments, gridfn, localization, operator, parabolic, probe
from fraclab.errors import FracLabError
from fraclab.regions import Ball
from fraclab.runconfig import parse_config_text

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")
F17 = "{:.17g}".format


class Gates:
    """Checked outputs of one run: one (name, passed, detail) per output."""

    def __init__(self):
        self.items = []

    def check(self, name, passed, detail):
        self.items.append({"name": name, "passed": bool(passed), "detail": detail})

    def part(self, name, fn, *args):
        """Run one part; a raised FracLabError is one failed output."""
        try:
            return fn(*args)
        except FracLabError as exc:
            self.check(f"{name} raised no FracLabError", False,
                       f"{type(exc).__name__}: {exc}")
            return None


def _cfg(text):
    return parse_config_text(text, path="<benchmark>")


# ---------------------------------------------------------------------------
# getoor-2d: dense 2D build and Cholesky solve against the closed form


GETOOR_TOL = 2e-2  # criterion 1's tolerance


def setup_getoor_2d(seed):
    return {"cfg": _cfg("""
[experiment]
name = getoor
[params]
ndim = 2
s = 0.5
[grid]
n = 33, 65, 129
""")}


def run_getoor_2d(inputs, out_dir, gates):
    summary = gates.part("getoor", experiments.run_experiment, "getoor",
                         inputs["cfg"], os.path.join(out_dir, "getoor"))
    if summary is None:
        return math.nan
    errs = [row[2] for row in summary["errors"]]
    for n, _, rel, _ in summary["errors"]:
        gates.check(f"getoor-2d n={n} inner-half rel err <= {GETOOR_TOL:g}",
                    rel <= GETOOR_TOL, f"{rel:.3e}")
    # Not gated: the 2D errors are not monotone in n at these levels.
    print("note getoor-2d inner-half rel errors by level: "
          + ", ".join(f"{e:.2e}" for e in errs), flush=True)
    return errs[-1]


# ---------------------------------------------------------------------------
# probe: 1D regularity recipe plus a 2D cut-off-mode exponent estimate


PROBE_2D_SWEEP = (0.25, 0.5, 0.75)
PROBE_2D_METHODS = ("gagliardo", "besov")
PINNED_RTOL = 1e-9


def setup_probe(seed):
    cfg = _cfg("""
[experiment]
name = elliptic-regularity
[params]
s = 0.3, 0.5
[probe]
p = 2.0
levels = 3
""")
    return {"cfg": cfg, "s_2d": 0.5, "base_n": 17, "inner": Ball((0.0, 0.0), 0.4),
            "omega": Ball((0.0, 0.0), 1.0)}


def _probe_2d(inputs, method):
    params = operator.FractionalParams(2, inputs["s_2d"])
    grid = gridfn.build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), inputs["base_n"],
                             inputs["omega"])

    def resolve(g):
        f = np.where(g.omega_nodes()[:, 0] > 0, 1.0, 0.0)
        return elliptic.solve_dirichlet(f, params, g)

    return probe.estimate_local_exponent(resolve, grid, 2.0, inputs["inner"],
                                         sweep=PROBE_2D_SWEEP, levels=3,
                                         method=method)


def run_probe(inputs, out_dir, gates):
    ref_err = math.nan
    summary = gates.part("elliptic-regularity", experiments.run_experiment,
                         "elliptic-regularity", inputs["cfg"],
                         os.path.join(out_dir, "elliptic-regularity"))
    if summary is not None:
        gaps = []
        for s, stars in summary["sigma_star"].items():
            interior, boundary = stars["interior"], stars["boundary"]
            gates.check(f"probe criterion 6 s={s:g}: interior sigma* >= 2s - 0.1",
                        interior >= 2 * s - 0.1, f"{interior:.3f}")
            gates.check(f"probe criterion 7 s={s:g}: boundary sigma* <= s + 0.6 "
                        "and < interior",
                        boundary <= s + 0.6 and boundary < interior,
                        f"{boundary:.3f} vs interior {interior:.3f}")
            gaps.append(abs(boundary - (s + 0.5)))
        ref_err = max(gaps)

    with open(PINNED_PATH) as fh:
        pinned = json.load(fh)["probe-2d"]
    sub = os.path.join(out_dir, "probe-2d")
    os.makedirs(sub, exist_ok=True)
    for method in PROBE_2D_METHODS:
        est = gates.part(f"probe-2d {method}", _probe_2d, inputs, method)
        if est is None:
            continue
        with open(os.path.join(sub, f"estimate_{method}.json"), "w") as fh:
            fh.write(est.to_json())
            fh.write("\n")
        want = pinned[method]
        got = [float(v) for row in est.values for v in row]
        gap = max(abs(g - w) / abs(w) for g, w in zip(got, want["values"]))
        gates.check(f"probe-2d {method}: seminorm values match pinned seed values "
                    f"(rtol {PINNED_RTOL:g})",
                    len(got) == len(want["values"]) and gap <= PINNED_RTOL,
                    f"{len(got)} values, max rel gap {gap:.1e}")
        gates.check(f"probe-2d {method}: sigma* equals pinned {want['sigma_star']:g}",
                    est.sigma_star == want["sigma_star"], f"{est.sigma_star:g}")
    return ref_err


# ---------------------------------------------------------------------------
# evolve-1d: one operator, thousands of step solves


GROWTH_TOL = 1e-12   # criterion 5
STEADY_TOL = 1e-4    # criterion 8


def setup_evolve_1d(seed):
    energy = _cfg("""
[experiment]
name = parabolic-energy
[params]
s = 0.5
[grid]
n = 1025
[time]
theta = 1.0
T = 1.0
nt = 256, 512
slack = 0.05
""")
    contraction = _cfg(f"""
[experiment]
name = semigroup-contraction
seed = {int(seed)}
[params]
s = 0.5
[grid]
n = 1025
[semigroup]
count = 100
""")
    return {"energy": energy, "contraction": contraction, "steady_n": 257,
            "steady_s": 0.5, "thetas": (0.5, 1.0)}


def _steady_state(inputs, out_dir):
    """Criterion 8's relaxation run, made through library calls."""
    params = operator.FractionalParams(1, inputs["steady_s"])
    grid = gridfn.build_grid(1, ((-2.0, 2.0),), inputs["steady_n"], Ball((0.0,), 1.0))
    matrix = operator.assemble_operator_matrix(grid, params)
    f = np.ones(grid.n_omega)
    u_inf = elliptic.solve_dirichlet(f, params, grid, matrix=matrix)
    lam1 = float(scipy.linalg.eigvalsh(matrix.matrix, subset_by_index=[0, 0])[0])
    T = 1.5 * math.log(u_inf.linf() / 1e-4) / lam1
    rows = []
    for theta in inputs["thetas"]:
        errs = []
        for frac in (0.5, 0.75, 1.0):
            traj = parabolic.solve_parabolic(f, frac * T, max(2, int(256 * frac)),
                                             theta, params, grid, matrix=matrix)
            errs.append(float(np.abs(traj.final().values - u_inf.values).max()))
        rows.append((theta, errs))
    with open(os.path.join(out_dir, "steady_state.csv"), "w") as fh:
        fh.write("theta,err_T2,err_3T4,err_T\n")
        for theta, errs in rows:
            fh.write(",".join([F17(theta)] + [F17(e) for e in errs]) + "\n")
    return rows


def _contraction_rows(path):
    with open(path) as fh:
        next(fh)
        return [line.rstrip("\n").split(",") for line in fh]


def run_evolve_1d(inputs, out_dir, gates):
    sub = os.path.join(out_dir, "parabolic-energy")
    summary = gates.part("parabolic-energy", experiments.run_experiment,
                         "parabolic-energy", inputs["energy"], sub)
    if summary is not None:
        for nt, led in sorted(summary["ledgers"].items()):
            gates.check(f"evolve-1d criterion 4 nt={nt}: ledger within slack "
                        f"{summary['slack']:g}", not led["violation"],
                        f"worst ratio {led['worst_ratio']:.4f}")

    sub = os.path.join(out_dir, "semigroup-contraction")
    summary = gates.part("semigroup-contraction", experiments.run_experiment,
                         "semigroup-contraction", inputs["contraction"], sub)
    if summary is not None:
        worst = {}
        for trial, _, _, _, _, growth in _contraction_rows(
                os.path.join(sub, "contraction.csv")):
            worst[int(trial)] = max(worst.get(int(trial), -math.inf), float(growth))
        for trial, growth in sorted(worst.items()):
            gates.check(f"evolve-1d criterion 5 datum {trial}: norm growth <= "
                        f"{GROWTH_TOL:g}", growth <= GROWTH_TOL, f"{growth:.2e}")
        # The recipe reports positivity only as the minimum over all
        # nonnegative data, so this one check covers each of them.
        neg = summary["worst_negative"]
        gates.check(f"evolve-1d criterion 5 nonnegative data: min value >= "
                    f"{-GROWTH_TOL:g}", neg >= -GROWTH_TOL, f"{neg:.2e}")

    sub = os.path.join(out_dir, "steady-state")
    os.makedirs(sub, exist_ok=True)
    rows = gates.part("steady-state", _steady_state, inputs, sub)
    if rows is None:
        return math.nan
    for theta, errs in rows:
        gates.check(f"evolve-1d criterion 8 theta={theta:g}: gap <= {STEADY_TOL:g}, "
                    "decreasing",
                    errs[-1] <= STEADY_TOL and errs[0] > errs[1] > errs[2],
                    ", ".join(f"{e:.2e}" for e in errs))
    return max(errs[-1] for _, errs in rows)


# ---------------------------------------------------------------------------
# localize-2d: matrix-free operator and product-rule remainder


def setup_localize_2d(seed):
    cfg = _cfg("""
[experiment]
name = product-rule
[params]
s = 0.3, 0.5, 0.7
[grid]
n = 65, 129, 257
""")
    return {"cfg": cfg, "s_2d": 0.5, "levels_2d": (17, 25, 33, 49)}


def _residuals_2d(inputs):
    params = operator.FractionalParams(2, inputs["s_2d"])
    rows = []
    for n in inputs["levels_2d"]:
        grid = gridfn.build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), n,
                                 Ball((0.0, 0.0), 1.0))
        u = gridfn.build_cutoff(grid, gridfn.CutoffSpec(
            Ball((0.0, 0.0), 0.25), Ball((0.0, 0.0), 0.75), order=5))
        eta = gridfn.build_cutoff(grid, gridfn.CutoffSpec(
            Ball((0.0, 0.0), 0.45), Ball((0.0, 0.0), 0.9), order=3))
        rows.append((n, grid.h, localization.product_rule_residual(u, eta, params)))
    return rows


def run_localize_2d(inputs, out_dir, gates):
    summary = gates.part("product-rule", experiments.run_experiment,
                         "product-rule", inputs["cfg"],
                         os.path.join(out_dir, "product-rule"))
    if summary is not None:
        for s, factors in summary["factors"].items():
            for k, fac in enumerate(factors):
                gates.check(f"localize-2d criterion 3 s={s:g} halving {k + 1}: "
                            "decay factor >= 2", fac >= 2.0, f"{fac:.2f}")

    rows = gates.part("product-rule 2d", _residuals_2d, inputs)
    if rows is None:
        return math.nan
    sub = os.path.join(out_dir, "product-rule-2d")
    os.makedirs(sub, exist_ok=True)
    with open(os.path.join(sub, "residual.csv"), "w") as fh:
        fh.write("n,h,residual\n")
        for n, h, r in rows:
            fh.write(f"{n},{F17(h)},{F17(r)}\n")
    for (n0, _, r0), (n1, _, r1) in zip(rows, rows[1:]):
        gates.check(f"localize-2d 2D residual decreases n={n0} -> n={n1}",
                    r1 < r0, f"{r0:.4f} -> {r1:.4f}")
    return rows[-1][2]


PARTS = {
    "getoor-2d": (setup_getoor_2d, run_getoor_2d),
    "probe": (setup_probe, run_probe),
    "evolve-1d": (setup_evolve_1d, run_evolve_1d),
    "localize-2d": (setup_localize_2d, run_localize_2d),
}
