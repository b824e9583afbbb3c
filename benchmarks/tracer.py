"""Spans around calls into fraclab's public functions, from outside src/.

install() replaces each traced function at every import site: the
attribute of every loaded fraclab module that holds it, plus the
experiment recipe table.  Function-local imports inside fraclab read the
patched module attribute when they run, so they are covered too.
Callers outside fraclab must reach traced functions through their module
(fraclab.elliptic.solve_dirichlet), as workloads.py does.  Spans are aggregated in memory per function: calls,
inclusive time and self time (inclusive time minus the time of the
child spans).  Work-size counters are recorded at the same boundaries.

Bookkeeping done by a wrapper outside its timed call (counters such as a
residual or a region size) is charged to no span: it is subtracted from
the enclosing span like a child and reported as bookkeeping_s, so that
the self times plus bookkeeping add up to the root span exactly.

The tracer is single-threaded; the benchmark runs the row pool at its
default of one worker.
"""

from __future__ import annotations

import os
import resource
import sys
import time

import numpy as np

# Functions given per-layer metrics, by module.  Every experiment recipe
# is traced as well, under experiments.<recipe name>.
TRACED = {
    "quadrature": ("far_weight_field", "tail_integral_2d", "sweep_2d", "sweep_1d",
                   "cell_corner_weights"),
    "operator": ("assemble_operator_matrix", "apply_fractional_laplacian"),
    "elliptic": ("solve_dirichlet",),
    "parabolic": ("solve_parabolic", "semigroup_apply", "energy_report"),
    "spaces": ("gagliardo_seminorm", "besov_seminorm", "lp_norm", "sobolev_seminorm"),
    "localization": ("remainder_Is", "product_rule_residual"),
    "probe": ("estimate_local_exponent",),
    "gridfn": ("build_grid", "build_cutoff", "extend_by_zero"),
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 1e6


def peak_rss_mb():
    """ru_maxrss of this process (KiB on Linux) in 10^6 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = 0
        self.bookkeeping_s = 0.0
        self._stack = []          # per open span: time covered by children
        self._last_matrix = None

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return st

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span; before/after record counters."""
        stat = self._stat(name)
        tracer = self

        def traced(*args, **kwargs):
            ctx = None
            if before is not None:
                b0 = time.perf_counter()
                args, kwargs, ctx = before(args, kwargs)
                tracer._charge_bookkeeping(time.perf_counter() - b0)
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._stack.pop()
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - child
                tracer.spans += 1
                if tracer._stack:
                    tracer._stack[-1] += dt
            if after is not None:
                a0 = time.perf_counter()
                after(stat, args, kwargs, result, ctx)
                tracer._charge_bookkeeping(time.perf_counter() - a0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _charge_bookkeeping(self, dt):
        self.bookkeeping_s += dt
        if self._stack:
            self._stack[-1] += dt

    # -- counters recorded at span boundaries ------------------------------

    def _after_assemble(self, st, args, kwargs, result, ctx):
        st["omega_nodes"] = st.get("omega_nodes", 0) + result.matrix.shape[0]
        st["matrix_mb"] = max(st.get("matrix_mb", 0.0), result.matrix.nbytes / 1e6)
        self._last_matrix = result

    def _after_apply(self, st, args, kwargs, result, ctx):
        u = args[0]
        rows = _arg(args, kwargs, 2, "rows")
        nodes = len(rows) if rows is not None else u.grid.n ** u.grid.ndim
        st["grid_nodes"] = st.get("grid_nodes", 0) + nodes

    def _after_solve(self, st, args, kwargs, result, ctx):
        from fraclab.elliptic import _rhs_on_omega

        grid = args[2] if len(args) > 2 else kwargs["grid"]
        matrix = _arg(args, kwargs, 3, "matrix") or self._last_matrix
        rhs = _rhs_on_omega(args[0] if args else kwargs["f"], grid)
        res = matrix.matrix @ result.values[grid.mask] - rhs
        rel = float(np.abs(res).max() / max(np.abs(rhs).max(initial=0.0), 1e-300))
        st["unknowns"] = st.get("unknowns", 0) + grid.n_omega
        st["residual_rel_max"] = max(st.get("residual_rel_max", 0.0), rel)

    def _after_steps(self, pos, name):
        def after(st, args, kwargs, result, ctx):
            st["steps"] = st.get("steps", 0) + int(_arg(args, kwargs, pos, name))
        return after

    def _after_energy(self, st, args, kwargs, result, ctx):
        st["steps"] = st.get("steps", 0) + len(result.times) - 1

    def _before_gagliardo(self, args, kwargs):
        return args, kwargs, current_rss_mb()

    def _after_gagliardo(self, st, args, kwargs, result, ctx):
        from fraclab.spaces import _region_selector

        nodes = int(_region_selector(args[0], _arg(args, kwargs, 3, "region")).sum())
        st["pairs"] = st.get("pairs", 0) + nodes * (nodes - 1)
        st["rss_rise_mb"] = max(st.get("rss_rise_mb", 0.0), peak_rss_mb() - ctx)

    def _after_besov(self, st, args, kwargs, result, ctx):
        grid = args[0].grid
        st["shifts"] = st.get("shifts", 0) + (2 * grid.n - 1) ** grid.ndim - 1

    def _before_estimate(self, args, kwargs):
        resolve = self.wrap("probe.resolve", args[0])
        return (resolve,) + tuple(args[1:]), kwargs, None

    def _after_estimate(self, st, args, kwargs, result, ctx):
        st["levels"] = st.get("levels", 0) + result.levels
        st["seminorm_evals"] = (st.get("seminorm_evals", 0)
                                + len(result.values) * len(result.sweep))

    def _hooks(self, key):
        return {
            "operator.assemble_operator_matrix": (None, self._after_assemble),
            "operator.apply_fractional_laplacian": (None, self._after_apply),
            "elliptic.solve_dirichlet": (None, self._after_solve),
            "parabolic.solve_parabolic": (None, self._after_steps(2, "nt")),
            "parabolic.semigroup_apply": (None, self._after_steps(2, "nt")),
            "parabolic.energy_report": (None, self._after_energy),
            "spaces.gagliardo_seminorm": (self._before_gagliardo, self._after_gagliardo),
            "spaces.besov_seminorm": (None, self._after_besov),
            "probe.estimate_local_exponent": (self._before_estimate, self._after_estimate),
        }.get(key, (None, None))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function at every import site."""
        import fraclab.experiments as experiments

        sites = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "fraclab" or name.startswith("fraclab."))]
        originals = []
        for short, names in TRACED.items():
            module = sys.modules[f"fraclab.{short}"]
            for fname in names:
                key = f"{short}.{fname}"
                before, after = self._hooks(key)
                originals.append((getattr(module, fname),
                                  self.wrap(key, getattr(module, fname), before, after)))
        for recipe, fn in experiments.RECIPES.items():
            wrapped = self.wrap(f"experiments.{recipe}", fn)
            originals.append((fn, wrapped))
            experiments.RECIPES[recipe] = wrapped
        for module in sites:
            for attr, value in list(vars(module).items()):
                for orig, wrapped in originals:
                    if value is orig:
                        setattr(module, attr, wrapped)

    def self_time_sum(self):
        return sum(st["self_s"] for st in self.stats.values()) + self.bookkeeping_s
