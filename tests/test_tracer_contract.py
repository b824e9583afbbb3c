"""The names and argument positions benchmarks/tracer.py relies on.

The tracer wraps fraclab functions by name and reads some arguments by
position; a refactor that moves them breaks `--trace` runs.  This loads
the tracer by path, unchanged, and checks that contract in tier 1.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


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


def test_corner_weight_cache_info_read_by_worker():
    # benchmarks/worker.py reads cache_info() of this cache in every traced run
    assert callable(_resolve("quadrature.cell_corner_weights").cache_info)
