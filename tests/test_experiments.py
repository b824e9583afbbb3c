import csv
import json
import math

import numpy as np
import pytest

from fraclab.errors import ConfigError
from fraclab.experiments import (
    getoor_constant,
    run_experiment,
    source_profile,
)
from fraclab.gridfn import build_grid, extend_by_zero
from fraclab.operator import FractionalParams
from fraclab.parabolic import semigroup_apply
from fraclab.regions import Ball
from fraclab.runconfig import parse_config_text
from fraclab.spaces import lp_norm


def _cfg(text):
    return parse_config_text(text)


def test_getoor_constant_values():
    assert getoor_constant(1, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert getoor_constant(2, 0.5) == pytest.approx(np.pi / 2, rel=1e-12)
    assert getoor_constant(1, 0.3) == pytest.approx(0.8935153492876903, rel=1e-12)


def test_source_profiles(tmp_path, grid65):
    jump = source_profile(_cfg("[source]\nprofile = jump\nthreshold = 0.0\n"), grid65)
    pts = grid65.omega_nodes()
    assert np.array_equal(jump, (pts[:, 0] > 0).astype(float))
    const = source_profile(_cfg("[source]\nprofile = constant\nvalue = 2.5\n"), grid65)
    assert np.all(const == 2.5)
    power = source_profile(_cfg("[source]\nprofile = power\nexponent = 1.0\n"), grid65)
    assert power == pytest.approx(np.abs(pts[:, 0]))
    bump = source_profile(_cfg("[source]\nprofile = bump\n"), grid65)
    assert bump.max() == 1.0 and bump.min() == 0.0
    csv_path = tmp_path / "f.csv"
    np.savetxt(csv_path, np.arange(grid65.n_omega, dtype=float), delimiter=",")
    from_csv = source_profile(_cfg(f"[source]\nprofile = csv\npath = {csv_path}\n"), grid65)
    assert from_csv[3] == 3.0
    with pytest.raises(ConfigError):
        source_profile(_cfg("[source]\nprofile = sinusoid\n"), grid65)


def test_getoor_experiment_2d(tmp_path):
    cfg = _cfg("""
[experiment]
name = getoor
[params]
ndim = 2
s = 0.5
[grid]
n = 17, 33
""")
    summary = run_experiment("getoor", cfg, str(tmp_path))
    errs = [row[2] for row in summary["errors"]]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.02
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["ndim"] == 2
    assert manifest["regions"]["omega"]["kind"] == "ball"


def test_g_bound_experiment(tmp_path):
    cfg = _cfg("""
[experiment]
name = g-bound
[grid]
n = 65, 129
""")
    summary = run_experiment("g-bound", cfg, str(tmp_path))
    r = summary["ratios"]
    assert len(r) == 2
    assert abs(r[1] - r[0]) / r[0] <= 0.25
    lines = (tmp_path / "g_bound.csv").read_text().strip().splitlines()
    assert lines[0].startswith("s,p,h,")
    assert len(lines) == 3


def test_semigroup_contraction_rows_match_single_datum_runs(tmp_path):
    cfg = _cfg("""
[experiment]
name = semigroup-contraction
seed = 7
[grid]
n = 33
[semigroup]
count = 4
t = 0.1, 1.0
nt = 8
""")
    summary = run_experiment("semigroup-contraction", cfg, str(tmp_path))
    with open(tmp_path / "contraction.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    grid = build_grid(1, ((-2.0, 2.0),), 33, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    rng = np.random.default_rng(7)
    expected = []
    for trial in range(4):
        phi = rng.standard_normal(grid.n_omega)
        phi = np.abs(phi) if trial % 2 == 0 else phi
        for t in (0.1, 1.0):
            image = semigroup_apply(phi, t, 8, params, grid)
            for p in (1.0, 1.5, 2.0, 4.0, math.inf):
                expected.append((trial, t, p, lp_norm(extend_by_zero(phi, grid), p, "omega"),
                                 lp_norm(image, p, "omega")))
    assert len(rows) == len(expected) == 40
    for row, (trial, t, p, before, after) in zip(rows, expected):
        assert (int(row[0]), float(row[1]), float(row[2])) == (trial, t, p)
        assert float(row[3]) == before
        assert float(row[4]) == pytest.approx(after, rel=1e-13)
    assert summary["worst_growth"] < 0.0 and summary["worst_negative"] >= -1e-12


def test_regularity_sweep_experiment(tmp_path):
    cfg = _cfg("""
[experiment]
name = regularity-sweep
[params]
s = 0.5
[grid]
n = 65
[probe]
p = 2.0
sweep = 0.4, 0.8, 1.2
levels = 3
[source]
profile = constant
[inner]
kind = box
bounds = -0.4, 0.4
""")
    summary = run_experiment("regularity-sweep", cfg, str(tmp_path))
    assert summary["mode"] == "cutoff"
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert payload["sweep"] == [0.4, 0.8, 1.2]
    # constant source is interior-smooth: nothing in this sweep diverges
    assert payload["sigma_star"] == 1.2


def test_boundary_profile_experiment(tmp_path):
    cfg = _cfg("""
[experiment]
name = boundary-profile
[params]
s = 0.5
[grid]
n = 129
""")
    summary = run_experiment("boundary-profile", cfg, str(tmp_path))
    spread = summary["spread"][0.5]
    assert 0.5 <= spread["lo"] <= 1.0 <= spread["hi"] <= 2.0
    assert (tmp_path / "profile_s0.5.csv").exists()


def test_experiment_alias_and_unknown(tmp_path):
    cfg = _cfg("""
[experiment]
name = identity-check
[params]
s = 0.5
[grid]
n = 65, 129
""")
    summary = run_experiment("identity-check", cfg, str(tmp_path))
    assert min(summary["factors"][0.5]) >= 2.0
    with pytest.raises(ConfigError):
        run_experiment("nope", cfg, str(tmp_path))


def test_check_exit_code_on_threshold_failure(tmp_path, monkeypatch, capsys):
    from fraclab import cli
    from fraclab.acceptance import CriterionResult

    def fake_run_criteria(out_dir, numbers=None):
        return [CriterionResult(1, "stub", False, "synthetic failure")]

    monkeypatch.setattr(cli, "run_criteria", fake_run_criteria)
    rc = cli.main(["check", "--out", str(tmp_path)])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out
