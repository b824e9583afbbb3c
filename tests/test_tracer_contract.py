"""The names and arguments benchmarks/tracer.py and benchmarks/workloads.py rely on.

The tracer wraps fraclab functions by name and reads some arguments by
position; a refactor that moves them breaks `--trace` runs.  This loads
the tracer by path, unchanged, and checks that contract in tier 1.  The
workloads call fraclab by module attribute and keyword; their source is
parsed, not run, and every such name and keyword is checked to resolve.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraclab

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("fraclab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted):
    short, name = dotted.split(".")
    return getattr(importlib.import_module(f"fraclab.{short}"), name)


def test_traced_names_resolve(tracer):
    names = [f"{short}.{name}" for short, fns in tracer.TRACED.items() for name in fns]
    for dotted in names + ["elliptic._rhs_on_omega", "spaces._region_selector"]:
        assert callable(_resolve(dotted)), dotted


@pytest.mark.parametrize("dotted, param, position", [
    ("elliptic.solve_dirichlet", "matrix", 3),
    ("parabolic.solve_parabolic", "nt", 2),
    ("parabolic.semigroup_apply", "nt", 2),
])
def test_positional_arguments_read_by_tracer(dotted, param, position):
    assert list(inspect.signature(_resolve(dotted)).parameters).index(param) == position


def _fraclab_references(path):
    """(dotted name, object, keywords passed) for each fraclab name the module reads."""
    tree = ast.parse(path.read_text())
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fraclab":
            modules.update({a.asname or a.name: f"fraclab.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fraclab."):
            names.update({a.asname or a.name: (node.module, a.name) for a in node.names})

    def target(expr):
        if isinstance(expr, ast.Name) and expr.id in names:
            return names[expr.id]
        if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                and expr.value.id in modules):
            return modules[expr.value.id], expr.attr
        return None

    keywords = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and target(node.func):
            keywords.setdefault(target(node.func), set()).update(
                kw.arg for kw in node.keywords if kw.arg is not None)
    refs = {target(node) for node in ast.walk(tree)} - {None}
    refs |= set(names.values())
    for module, name in sorted(refs):
        obj = getattr(importlib.import_module(module), name, None)
        yield f"{module}.{name}", obj, keywords.get((module, name), set())


def test_workload_names_and_keywords_resolve():
    refs = list(_fraclab_references(WORKLOADS_PATH))
    assert "fraclab.probe.estimate_local_exponent" in [dotted for dotted, _, _ in refs]
    for dotted, obj, keywords in refs:
        assert obj is not None, dotted
        if keywords:
            params = inspect.signature(obj).parameters
            assert keywords <= set(params), (dotted, keywords - set(params))


def test_corner_weight_cache_info_read_by_worker():
    # benchmarks/worker.py reads cache_info() of this cache in every traced run
    assert callable(_resolve("quadrature.cell_corner_weights").cache_info)


# install() patches every fraclab module in the process, so it runs in a child.
def _traced_stats(script, *args):
    """Run script in a child with this fraclab on its path; return the stats it prints.

    The script reads the tracer's path as sys.argv[1], then any args.
    """
    src = str(Path(fraclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", script, str(TRACER_PATH), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


INSTALL_TRACER = """
import importlib.util, json, sys
import numpy as np

spec = importlib.util.spec_from_file_location("fraclab_bench_tracer", sys.argv[1])
bench_tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_tracer)
tracer = bench_tracer.Tracer()
tracer.install()
"""
TRACED_SOLVES = INSTALL_TRACER + """
from fraclab import elliptic, gridfn, operator
from fraclab.regions import Ball

params = operator.FractionalParams(2, 0.5)
for n in (17, 33):
    grid = gridfn.build_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), n, Ball((0.0, 0.0), 1.0))
    elliptic.solve_dirichlet(np.ones(grid.n_omega), params, grid)
print(json.dumps(tracer.stats))
"""


def test_traced_solves_without_matrix():
    # The tracer reads the dense matrix of the last assembled operator
    # after each solve; the kernel must already be built by then, or its
    # spans would nest inside the tracer's bookkeeping.
    stats = _traced_stats(TRACED_SOLVES)
    solve = stats["elliptic.solve_dirichlet"]
    assert solve["calls"] == 2
    assert solve["residual_rel_max"] <= 1e-10
    assert stats["quadrature.sweep_2d"]["calls"] == 2
    assert all(st["self_s"] >= 0.0 for st in stats.values()), stats


TRACED_STEPS = INSTALL_TRACER + """
from fraclab import gridfn, operator, parabolic
from fraclab.regions import Ball

params = operator.FractionalParams(1, 0.5)
grid = gridfn.build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))
matrix = operator.assemble_operator_matrix(grid, params)
f = np.ones(grid.n_omega)
for nt, theta in ((12, 0.5), (20, 1.0)):
    traj = parabolic.solve_parabolic(f, 1.0, nt, theta, params, grid, matrix=matrix)
    parabolic.energy_report(traj)
parabolic.semigroup_apply([f, -f, 2 * f], 0.5, 7, params, grid, matrix=matrix)
print(json.dumps(tracer.stats))
"""


def test_traced_time_layer_counts_steps():
    stats = _traced_stats(TRACED_STEPS)
    for name, calls, steps in (("solve_parabolic", 2, 32), ("energy_report", 2, 32),
                               ("semigroup_apply", 1, 7)):
        assert stats[f"parabolic.{name}"]["calls"] == calls, name
        assert stats[f"parabolic.{name}"]["steps"] == steps, name
    assert all(st["self_s"] >= 0.0 for st in stats.values()), stats


# No bytecode is cached, so the run writes nothing under the checkout.
TRACED_PARTS = "import sys\nsys.dont_write_bytecode = True\n" + INSTALL_TRACER + """
import os

spec = importlib.util.spec_from_file_location(
    "fraclab_bench_workloads", os.path.join(os.path.dirname(sys.argv[1]), "workloads.py"))
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
for part, (setup, run) in workloads.PARTS.items():
    run(setup(0), os.path.join(sys.argv[2], part), workloads.Gates())
print(json.dumps(tracer.stats))
"""


def test_benchmark_parts_call_every_traced_function(tracer, tmp_path):
    # the per-layer metrics of a traced function nobody calls read 0 calls
    stats = _traced_stats(TRACED_PARTS, tmp_path)
    names = [f"{short}.{name}" for short, fns in tracer.TRACED.items() for name in fns]
    assert [name for name in names if stats[name]["calls"] < 1] == []
    assert os.listdir(tmp_path)  # the parts wrote their artifacts here
