import tracemalloc

import numpy as np
import pytest

from fraclab.gridfn import CutoffSpec, Grid, GridFunction, build_cutoff, build_grid
from fraclab.operator import FractionalParams
from fraclab.regions import Ball


@pytest.fixture
def grid65():
    return build_grid(1, ((-2.0, 2.0),), 65, Ball((0.0,), 1.0))


@pytest.fixture
def grid129():
    return build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))


@pytest.fixture
def params_half():
    return FractionalParams(1, 0.5)


@pytest.fixture
def bump65(grid65):
    return build_cutoff(grid65, CutoffSpec(Ball((0.0,), 0.3), Ball((0.0,), 0.8), order=4))


def random_dirichlet(grid, rng):
    vals = np.zeros(grid.shape)
    vals[grid.mask] = rng.standard_normal(grid.n_omega)
    return GridFunction(grid, vals, dirichlet=True)


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def refine_at_most(monkeypatch, calls):
    """Make Grid.refine fail after `calls` calls; returns the list of the n it refined.

    A test of a guard against too deep a refinement ladder then stops
    after a few levels if the guard regresses, instead of running the
    ladder until memory runs out.
    """
    refined = []
    refine = Grid.refine

    def bounded(self):
        refined.append(self.n)
        if len(refined) > calls:
            raise AssertionError(f"Grid.refine called more than {calls} times")
        return refine(self)

    monkeypatch.setattr(Grid, "refine", bounded)
    return refined
