"""The embedded acceptance suite: ten quantitative checks with pinned tolerances.

Each criterion builds its experiment from an embedded config, writes the
experiment artifacts into its own subdirectory, and evaluates a pass/fail
threshold.  The CLI `check` subcommand and the test suite both run these.
"""

from __future__ import annotations

import filecmp
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .elliptic import solve_dirichlet
from .experiments import _write_csv, run_experiment
from .gridfn import build_grid, extend_by_zero
from .operator import FractionalParams, assemble_operator_matrix
from .parabolic import solve_parabolic
from .reference import naive_apply_omega
from .regions import Ball
from .runconfig import parse_config_text


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{self.name}]: {status} - {self.detail}"


def _cfg(text):
    return parse_config_text(text, path="<acceptance>")


def _subdir(out_dir, number):
    path = os.path.join(out_dir, f"criterion_{number:02d}")
    os.makedirs(path, exist_ok=True)
    return path


def criterion_1(out_dir, shared=None):
    """Closed-form elliptic benchmark at s = 1/2 on (-1, 1)."""
    cfg = _cfg("""
[experiment]
name = getoor
[params]
ndim = 1
s = 0.5
[grid]
n = 129, 257, 513
""")
    summary = run_experiment("getoor", cfg, _subdir(out_dir, 1))
    errs = [row[2] for row in summary["errors"]]
    decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    passed = errs[-1] <= 0.02 and decreasing
    return CriterionResult(1, "getoor-benchmark", passed,
                           f"inner-half rel errors {[f'{e:.3e}' for e in errs]} "
                           f"(need final <= 2e-2, decreasing)")


def criterion_2(out_dir, shared=None):
    """Fourier symbol on windowed sines: 1% accuracy, order >= 1.5."""
    cfg = _cfg("""
[experiment]
name = symbol
""")
    summary = run_experiment("symbol", cfg, _subdir(out_dir, 2))
    worst_err = max(row["rel_err_finest"] for row in summary["table"])
    worst_order = min(row["order"] for row in summary["table"])
    passed = worst_err <= 0.01 and worst_order >= 1.5
    return CriterionResult(2, "fourier-symbol", passed,
                           f"worst rel err {worst_err:.3e} (<= 1e-2), "
                           f"worst order {worst_order:.2f} (>= 1.5)")


def criterion_3(out_dir, shared=None):
    """Product-rule residual halves at least once per h-halving."""
    cfg = _cfg("""
[experiment]
name = product-rule
[params]
s = 0.3, 0.5, 0.7
[grid]
n = 65, 129, 257
""")
    summary = run_experiment("product-rule", cfg, _subdir(out_dir, 3))
    worst = min(min(f) for f in summary["factors"].values())
    passed = worst >= 2.0
    detail = ", ".join(f"s={s:g}: {['%.2f' % v for v in f]}"
                       for s, f in summary["factors"].items())
    return CriterionResult(3, "product-rule", passed,
                           f"decay factors {detail} (need >= 2)")


def criterion_4(out_dir, shared=None):
    """Implicit-Euler energy ledger stays under the source bound."""
    cfg = _cfg("""
[experiment]
name = parabolic-energy
[params]
s = 0.5
[time]
theta = 1.0
T = 1.0
nt = 64, 128
slack = 0.05
""")
    summary = run_experiment("parabolic-energy", cfg, _subdir(out_dir, 4))
    worst = max(v["worst_ratio"] for v in summary["ledgers"].values())
    violated = any(v["violation"] for v in summary["ledgers"].values())
    passed = not violated
    return CriterionResult(4, "parabolic-energy", passed,
                           f"worst (dissipation+energy)/source ratio {worst:.4f} "
                           f"(need <= 1.05 at every step)")


def criterion_5(out_dir, shared=None):
    """Semigroup contraction in L^1, L^2, L^inf plus positivity."""
    cfg = _cfg("""
[experiment]
name = semigroup-contraction
seed = 0
""")
    summary = run_experiment("semigroup-contraction", cfg, _subdir(out_dir, 5))
    passed = (summary["worst_growth"] <= 1e-12
              and summary["worst_negative"] >= -1e-12)
    return CriterionResult(5, "semigroup-contraction", passed,
                           f"worst norm growth {summary['worst_growth']:.2e} "
                           f"(<= 1e-12), most negative value "
                           f"{summary['worst_negative']:.2e} (>= -1e-12)")


def _regularity_summary(out_dir, shared):
    if shared is not None and "elliptic-regularity" in shared:
        return shared["elliptic-regularity"]
    cfg = _cfg("""
[experiment]
name = elliptic-regularity
[params]
s = 0.3, 0.5
[probe]
p = 2.0
levels = 3
""")
    summary = run_experiment("elliptic-regularity", cfg, _subdir(out_dir, 6))
    if shared is not None:
        shared["elliptic-regularity"] = summary
    return summary


def criterion_6(out_dir, shared=None):
    """Interior gain: sigma* >= 2s - 0.1 for a jump source."""
    summary = _regularity_summary(out_dir, shared)
    details = []
    passed = True
    for s, stars in summary["sigma_star"].items():
        ok = stars["interior"] >= 2 * s - 0.1
        passed &= ok
        details.append(f"s={s:g}: interior sigma*={stars['interior']:.2f} "
                       f"(need >= {2 * s - 0.1:.2f})")
    return CriterionResult(6, "interior-regularity", passed, "; ".join(details))


def criterion_7(out_dir, shared=None):
    """Boundary limitation: sigma* <= s + 0.6 and below the interior value."""
    summary = _regularity_summary(out_dir, shared)
    details = []
    passed = True
    for s, stars in summary["sigma_star"].items():
        ok = (stars["boundary"] <= s + 0.6
              and stars["boundary"] < stars["interior"])
        passed &= ok
        details.append(f"s={s:g}: boundary sigma*={stars['boundary']:.2f} "
                       f"(need <= {s + 0.6:.2f} and < {stars['interior']:.2f})")
    return CriterionResult(7, "boundary-limitation", passed, "; ".join(details))


def criterion_8(out_dir, shared=None):
    """Constant-source parabolic run relaxes to the elliptic solution."""
    s = 0.5
    params = FractionalParams(1, s)
    grid = build_grid(1, ((-2.0, 2.0),), 257, Ball((0.0,), 1.0))
    matrix = assemble_operator_matrix(grid, params)
    f = np.ones(grid.n_omega)
    u_inf = solve_dirichlet(f, params, grid, matrix=matrix)
    lam1 = float(matrix.spectrum.lam.min())
    T = 1.5 * math.log(u_inf.linf() / 1e-4) / lam1
    rows = []
    passed = True
    for theta in (0.5, 1.0):
        errs = []
        for frac in (0.5, 0.75, 1.0):
            traj = solve_parabolic(f, frac * T, max(2, int(256 * frac)), theta,
                                   params, grid, matrix=matrix)
            errs.append(float(np.abs(traj.final().values - u_inf.values).max()))
        monotone = errs[0] > errs[1] > errs[2]
        ok = errs[-1] <= 1e-4 and monotone
        passed &= ok
        rows.append((theta, errs))
    _write_csv(os.path.join(_subdir(out_dir, 8), "steady_state.csv"),
               ("theta", "err_T2", "err_3T4", "err_T"), [(th, *er) for th, er in rows])
    detail = "; ".join(f"theta={th:g}: final err {er[-1]:.2e}" for th, er in rows)
    return CriterionResult(8, "steady-state", passed,
                           detail + f" (need <= 1e-4, decreasing; T={T:.1f})")


def criterion_9(out_dir, shared=None):
    """Matrix route against the naive double-loop quadrature."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    cases = []
    g1 = build_grid(1, ((-2.0, 2.0),), 25, Ball((0.0,), 1.0))
    cases.append((g1, FractionalParams(1, 0.5)))
    cases.append((g1, FractionalParams(1, 0.3)))
    g2 = build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 9, Ball((0.0, 0.0), 0.6))
    cases.append((g2, FractionalParams(2, 0.7)))
    for grid, params in cases:
        matrix = assemble_operator_matrix(grid, params)
        for _ in range(20):
            vec = rng.standard_normal(grid.n_omega)
            u = extend_by_zero(vec, grid)
            fast = matrix.matrix @ vec
            slow = naive_apply_omega(u, params)
            scale = max(1.0, float(np.abs(slow).max()))
            worst = max(worst, float(np.abs(fast - slow).max()) / scale)
    _write_csv(os.path.join(_subdir(out_dir, 9), "oracle_equivalence.csv"),
               ("worst_rel_gap",), [(worst,)])
    passed = worst <= 1e-12
    return CriterionResult(9, "oracle-equivalence", passed,
                           f"worst matrix-vs-naive gap {worst:.2e} (<= 1e-12)")


_CHILD = "import sys; from fraclab.acceptance import run_criteria; " \
    "run_criteria(sys.argv[1], [int(a) for a in sys.argv[2:]])"
_DETERMINISM_RUNS = (("forward", "0", range(1, 10)), ("reverse", "1", range(9, 0, -1)))


def criterion_10(out_dir, shared=None):
    """Criteria 1-9 write byte-identical artifacts in two fresh interpreters.

    Each child runs at one BLAS thread; the second has another hash seed
    and runs the criteria in reverse order, so its caches start cold and
    fill in another order.  The two children run side by side.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    dirs, children = [], []
    for name, seed, order in _DETERMINISM_RUNS:
        sub = os.path.join(out_dir, f"criterion_10_{name}")
        dirs.append(sub)
        children.append(subprocess.Popen(
            [sys.executable, "-c", _CHILD, sub, *map(str, order)],
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    errors = [child.communicate()[1].strip() for child in children]
    for (name, _, _), child, err in zip(_DETERMINISM_RUNS, children, errors):
        if child.returncode != 0:
            return CriterionResult(10, "determinism", False, f"{name} run exited "
                                   f"{child.returncode}: {err.splitlines()[-1] if err else ''}")
    mismatches = _tree_diff(*dirs)
    passed = not mismatches
    detail = "all artifact bytes identical" if passed else \
        f"differing files: {', '.join(mismatches[:5])}"
    return CriterionResult(10, "determinism", passed, detail)


def _tree_diff(a, b):
    bad = []
    for root, _, files in os.walk(a):
        rel = os.path.relpath(root, a)
        for name in sorted(files):
            fa = os.path.join(root, name)
            fb = os.path.join(b, rel, name)
            if not os.path.exists(fb) or not filecmp.cmp(fa, fb, shallow=False):
                bad.append(os.path.join(rel, name))
    for root, _, files in os.walk(b):
        rel = os.path.relpath(root, b)
        for name in sorted(files):
            if not os.path.exists(os.path.join(a, rel, name)):
                bad.append(os.path.join(rel, name))
    return bad


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_criteria(out_dir, numbers=None):
    """Run the criteria numbered in `numbers`, in that order (default: all, ascending)."""
    os.makedirs(out_dir, exist_ok=True)
    shared = {}
    order = range(1, len(CRITERIA) + 1) if numbers is None else numbers
    return [CRITERIA[idx - 1](out_dir, shared) for idx in order]
