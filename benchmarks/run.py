"""fraclab benchmark driver.

Usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed loop with one client.  A workload is two parts
(workloads.PARTS) run one after the other; each part of each iteration is
a fresh interpreter (benchmarks/worker.py), so fraclab's lru_cache weight
tables start cold as they do for a `fraclab run` user.  Iterations repeat
until the next one would end after --seconds.  Every checked output of
every iteration is a gate; the driver prints one PASS/FAIL line per gate,
the environment, every metric by name and unit, and as its last line one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: medians over the iterations.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
See benchmarks/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Each workload runs its parts in this order; its ref_err is the first
# part's, and every part's is printed on a note line.
WORKLOADS = {
    "assembled": ("getoor-2d", "evolve-1d"),
    "matrix-free": ("localize-2d", "probe"),
}
BLAS_THREADS = 1  # at most nproc on any machine; see README.md
CHILD_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ref_err", "1"))


def _calls_self(prefix, names):
    return [(f"{prefix}.{f}.{stat}", unit) for f in names
            for stat, unit in (("calls", "count"), ("self_s", "s"))]


RECIPES = ("getoor", "elliptic-regularity", "parabolic-energy",
           "semigroup-contraction", "product-rule")

PER_LAYER = (
    _calls_self("quadrature", ("far_weight_field", "tail_integral_2d", "sweep_2d",
                               "sweep_1d"))
    + [("quadrature.cell_corner_weights.self_s", "s"),
       ("quadrature.cell_corner_weights.cache_hit_ratio", "ratio")]
    + _calls_self("operator", ("assemble_operator_matrix",))
    + [("operator.assemble_operator_matrix.omega_nodes", "count"),
       ("operator.assemble_operator_matrix.matrix_mb", "MB")]
    + _calls_self("operator", ("apply_fractional_laplacian",))
    + [("operator.apply_fractional_laplacian.grid_nodes", "count")]
    + _calls_self("elliptic", ("solve_dirichlet",))
    + [("elliptic.solve_dirichlet.unknowns", "count"),
       ("elliptic.solve_dirichlet.residual_rel_max", "ratio")]
    + [(f"parabolic.{f}.{stat}", unit)
       for f in ("solve_parabolic", "semigroup_apply", "energy_report")
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("steps", "count"))]
    + _calls_self("spaces", ("gagliardo_seminorm", "besov_seminorm", "lp_norm",
                             "sobolev_seminorm"))
    + [("spaces.gagliardo_seminorm.pairs", "count"),
       ("spaces.gagliardo_seminorm.rss_rise_mb", "MB"),
       ("spaces.besov_seminorm.shifts", "count")]
    + _calls_self("localization", ("remainder_Is", "product_rule_residual"))
    + _calls_self("probe", ("estimate_local_exponent",))
    + [("probe.estimate_local_exponent.levels", "count"),
       ("probe.estimate_local_exponent.seminorm_evals", "count"),
       ("probe.resolve.self_s", "s")]
    + _calls_self("gridfn", ("build_grid", "build_cutoff", "extend_by_zero"))
    + [(f"experiments.{r}.self_s", "s") for r in RECIPES]
    + [("experiments.artifact_bytes", "bytes"),
       ("trace.spans", "count"), ("trace.overhead_s", "s")]
)


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit(root):
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class ChildFailed(RuntimeError):
    pass


def run_child(part, seed, traced, out_dir, env, deadline):
    cmd = [sys.executable, WORKER, "--part", part, "--seed", str(seed),
           "--out", out_dir]
    if traced:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{part} exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{part} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    result["elapsed_s"] = time.monotonic() - t0
    return result


# Per-layer counters that are a largest value over calls; every other
# counter is a total over calls and adds up across parts.
MAX_COUNTERS = ("matrix_mb", "residual_rel_max", "rss_rise_mb")


def merge_traces(traces):
    stats = {}
    for trace in traces:
        for key, stat in trace["stats"].items():
            into = stats.setdefault(key, {})
            for name, value in stat.items():
                if name in MAX_COUNTERS:
                    into[name] = max(into.get(name, value), value)
                else:
                    into[name] = into.get(name, 0) + value
    hits = sum(t["corner_cache"]["hits"] for t in traces)
    lookups = hits + sum(t["corner_cache"]["misses"] for t in traces)
    return {"stats": stats,
            "spans": sum(t["spans"] for t in traces),
            "bookkeeping_s": sum(t["bookkeeping_s"] for t in traces),
            "self_time_sum": sum(t["self_time_sum"] for t in traces),
            "corner_cache_hit_ratio": hits / lookups if lookups else 0.0}


def run_iteration(workload, seed, traced, out_dir, env, deadline):
    """Run every part of `workload` once; returns the iteration's record.

    Times and artifact sizes add up over the parts, peak_rss_mb is the
    largest part's, and artifact paths are prefixed with their part.
    """
    try:
        parts = [(part, run_child(part, seed, traced, os.path.join(out_dir, part),
                                  env, deadline))
                 for part in WORKLOADS[workload]]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    results = [r for _, r in parts]
    files = {f"{part}/{rel}": digest for part, r in parts
             for rel, digest in r["files"].items()}
    h = hashlib.sha256()
    for rel, digest in files.items():
        h.update(f"{rel}\0{digest}\n".encode())
    record = {
        "workload": workload, "seed": seed, "traced": traced,
        "wall_s": sum(r["wall_s"] for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "ref_err": results[0]["ref_err"],
        "gates": [g for r in results for g in r["gates"]],
        "files": files, "digest": h.hexdigest(),
        "artifact_bytes": sum(r["artifact_bytes"] for r in results),
        "env": results[0]["env"],
        "notes": [line for part, r in parts for line in
                  r["notes"] + [f"note {part} ref_err {r['ref_err']:.6g}"]],
        "elapsed_s": sum(r["elapsed_s"] for r in results),
    }
    if traced:
        record["trace"] = merge_traces([r["trace"] for r in results])
    return record


def iterate(workload, seed, seconds, trace, env):
    """Closed loop: run iterations until the next would end after `seconds`.

    In trace mode untraced and traced iterations alternate, at least one
    of each.
    """
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    start = time.monotonic()
    hard_deadline = start + CHILD_TIMEOUT_S
    results = []
    try:
        while True:
            traced = trace and len(results) % 2 == 1
            out_dir = os.path.join(work, str(len(results)))
            results.append(run_iteration(workload, seed, traced, out_dir, env,
                                         hard_deadline))
            per_iter = statistics.median(r["elapsed_s"] for r in results)
            if trace and len(results) < 2:
                continue
            if time.monotonic() - start + per_iter > seconds:
                return results
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def gate_lines(results):
    """One line per gate, plus the determinism gate; returns (lines, attempted, failed)."""
    order, passes, details = [], {}, {}
    attempted = failed = 0
    for r in results:
        for g in r["gates"]:
            if g["name"] not in passes:
                order.append(g["name"])
                passes[g["name"]] = 0
            attempted += 1
            failed += not g["passed"]
            passes[g["name"]] += g["passed"]
            details.setdefault(g["name"], g["detail"])
    lines = []
    for name in order:
        ok = passes[name] == len(results)
        lines.append(f"gate {'PASS' if ok else 'FAIL'} {name}: {details[name]} "
                     f"[{passes[name]}/{len(results)} runs]")
    # Criterion 10 kept inside the benchmark: every run of one workload and
    # seed, traced or not, writes the same artifact bytes.
    first = results[0]["digest"]
    same = sum(r["digest"] == first for r in results[1:])
    attempted += len(results) - 1
    failed += len(results) - 1 - same
    lines.append(f"gate {'PASS' if same == len(results) - 1 else 'FAIL'} "
                 f"artifact digest identical across runs (traced and untraced): "
                 f"{first[:16]} [{same + 1}/{len(results)} runs]")
    return lines, attempted, failed


def _value(v):
    return None if v is None or (isinstance(v, float) and math.isnan(v)) else v


def end_to_end(untraced):
    return {name: {"value": _value(statistics.median(r[name] for r in untraced)),
                   "unit": unit} for name, unit in END_TO_END}


def per_layer(traced, untraced):
    def layer_value(r, name):
        stats = r["trace"]["stats"]
        if name == "quadrature.cell_corner_weights.cache_hit_ratio":
            return r["trace"]["corner_cache_hit_ratio"]
        if name == "experiments.artifact_bytes":
            return r["artifact_bytes"]
        if name == "trace.spans":
            return r["trace"]["spans"]
        key, stat = name.rsplit(".", 1)
        return stats.get(key, {}).get(stat, 0)

    metrics = {name: {"value": statistics.median(layer_value(r, name) for r in traced),
                      "unit": unit}
               for name, unit in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced), "unit": "s"}
    return metrics


def metric_line(results, key, unit):
    vals = sorted(r[key] for r in results)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = f", q1 {q1:.6g}, q3 {q3:.6g}, min {vals[0]:.6g}"
    else:
        spread = ""
    return (f"metric {key} {statistics.median(vals):.6g} {unit} "
            f"(median of {len(vals)} runs{spread})")


def main(argv=None):
    ap = argparse.ArgumentParser(description="fraclab benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fraclab", "__init__.py")):
        print(f"error: no fraclab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    try:
        results = iterate(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    env_block = dict(results[0]["env"], nproc=nproc(), blas_thread_pin=BLAS_THREADS,
                     git_commit=git_commit(ROOT), workload=args.workload,
                     parts=list(WORKLOADS[args.workload]),
                     seed=args.seed, runs=len(results), traced_runs=len(traced))
    print("env " + json.dumps(env_block, sort_keys=True))
    for line in results[0]["notes"]:
        print(line)
    lines, attempted, failed = gate_lines(results)
    for line in lines:
        print(line)
    print(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted} checked "
          "outputs failed)")
    for name, unit in END_TO_END:
        print(metric_line(untraced, name, unit))

    if args.trace:
        metrics = per_layer(traced, untraced)
        self_sum = statistics.median(r["trace"]["self_time_sum"] for r in traced)
        print(f"trace self-time sum {self_sum:.6g} s against traced wall "
              f"{statistics.median(r['wall_s'] for r in traced):.6g} s")
    else:
        metrics = end_to_end(untraced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
