"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
Each workload runs one iteration (both of its parts) untraced and one
traced at seed 0, and one untraced at seed 1 (about two minutes in all on
a 2-core machine).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

SEMIGROUP_FILES = {"evolve-1d/semigroup-contraction/contraction.csv",
                   "evolve-1d/semigroup-contraction/manifest.json"}


def _child(workload, seed, traced, tmp):
    out = os.path.join(tmp, f"{workload}-{seed}-{int(traced)}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    result = run.run_iteration(workload, seed, traced, out, env,
                               deadline=time.monotonic() + run.CHILD_TIMEOUT_S)
    assert not os.path.exists(out)
    return result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bench"))
    return {(w, seed, traced): _child(w, seed, traced, tmp)
            for w in run.WORKLOADS
            for seed, traced in ((0, False), (0, True), (1, False))}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrappers_leave_outputs_bitwise_unchanged(runs, workload):
    plain, traced = runs[(workload, 0, False)], runs[(workload, 0, True)]
    assert traced["files"] == plain["files"]
    assert traced["gates"] == plain["gates"]
    assert traced["ref_err"] == plain["ref_err"]
    assert traced["trace"]["spans"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_sum_to_traced_wall(runs, workload):
    plain, traced = runs[(workload, 0, False)], runs[(workload, 0, True)]
    overhead = traced["wall_s"] - plain["wall_s"]
    self_sum = traced["trace"]["self_time_sum"]
    assert self_sum <= traced["wall_s"]
    assert traced["wall_s"] - self_sum <= max(abs(overhead), 1e-3)
    for stat in traced["trace"]["stats"].values():
        assert stat["self_s"] >= 0.0
        assert stat["self_s"] <= stat["total_s"] + 1e-9


def test_every_per_layer_metric_is_emitted(runs):
    per_workload = {w: run.per_layer([runs[(w, 0, True)]], [runs[(w, 0, False)]])
                    for w in run.WORKLOADS}
    for name, unit in run.PER_LAYER:
        assert all(m[name]["unit"] == unit for m in per_workload.values())
        if name == "trace.overhead_s":
            continue
        assert any(m[name]["value"] > 0 for m in per_workload.values()), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_changes_only_semigroup_data(runs, workload):
    first, second = runs[(workload, 0, False)], runs[(workload, 1, False)]
    assert all(g["passed"] for g in second["gates"]), \
        [g for g in second["gates"] if not g["passed"]]
    changed = {rel for rel in first["files"]
               if first["files"][rel] != second["files"].get(rel)}
    assert set(first["files"]) == set(second["files"])
    if "evolve-1d" in run.WORKLOADS[workload]:
        assert changed == SEMIGROUP_FILES
    else:
        assert not changed


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_result_line_contract():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "assembled", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(line.startswith(("env ", "gate PASS", "fail_rate", "metric", "note"))
               for line in lines[:-1])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "matrix-free",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
