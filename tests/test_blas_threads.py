"""Time-layer outputs at one and at two BLAS threads.

The eigendecomposition and the products into and out of the eigenbasis
run in OpenBLAS, whose sums are ordered by thread, so the ledgers and the
contraction norms of evolve-1d's recipes are not bitwise the same at
OPENBLAS_NUM_THREADS=1 and 2.  The thread count is fixed when OpenBLAS
loads, so each count runs in its own child process.  Each column must
agree to 1e-12 relative to its largest value, and the semigroup must
contract to criterion 5's 1e-12 at either count.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab

RUN_RECIPES = """
import sys
from fraclab.experiments import run_experiment
from fraclab.runconfig import parse_config_text

energy = '''
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
'''
contraction = '''
[experiment]
name = semigroup-contraction
seed = 5
[params]
s = 0.5
[grid]
n = 1025
[semigroup]
count = 100
'''
for name, text in (("parabolic-energy", energy), ("semigroup-contraction", contraction)):
    run_experiment(name, parse_config_text(text), sys.argv[1] + "/" + name)
"""

TOL = 1e-12


def _columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    src = str(Path(fraclab.__file__).resolve().parents[1])
    out = {}
    for threads in (1, 2):
        out_dir = tmp_path_factory.mktemp(f"blas{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-c", RUN_RECIPES, str(out_dir)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out[threads] = out_dir
    return out


def _rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("nt", [256, 512])
def test_ledger_agrees_across_blas_threads(runs, nt):
    one, two = (_columns(runs[k] / "parabolic-energy" / f"ledger_nt{nt}.csv") for k in (1, 2))
    assert np.array_equal(one["k"], two["k"]) and np.array_equal(one["t"], two["t"])
    for key in ("dissipation", "energy", "source_norm"):
        assert _rel_gap(two[key], one[key]) <= TOL, key


def test_contraction_agrees_across_blas_threads(runs):
    one, two = (_columns(runs[k] / "semigroup-contraction" / "contraction.csv") for k in (1, 2))
    assert _rel_gap(two["norm_after"], one["norm_after"]) <= TOL
    assert one["growth"].max() <= TOL and two["growth"].max() <= TOL
