import ast
import csv
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fraclab import experiments, probe
from fraclab.cli import main
from fraclab.errors import ConfigError
from fraclab.experiments import PROFILE_KEYS, source_profile
from fraclab.gridfn import build_grid
from fraclab.regions import Ball, Box
from fraclab.runconfig import _SCHEMA, REGION_KEYS, RunConfig, parse_config_text

from conftest import refine_at_most

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "fraclab"
WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"

GOOD = """
# comment
[experiment]
name = getoor
seed = 3

[params]
ndim = 1
s = 0.5

[grid]
n = 17, 33
box = -2, 2

[omega]
kind = ball
center = 0.0
radius = 1.0
"""


class GridBuilt(AssertionError):
    """What experiments.build_grid raises under the no_grid fixture."""


@pytest.fixture
def no_grid(monkeypatch):
    """Replace experiments.build_grid by a raise of GridBuilt.

    A test that expects a config error then fails if any grid was built
    first, and one that expects GridBuilt sees the config pass to the grid.
    """
    def build_grid(*args, **kwargs):
        raise GridBuilt("built a grid before the config was rejected")

    monkeypatch.setattr(experiments, "build_grid", build_grid)


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert cfg.get_str("experiment", "name") == "getoor"
    assert cfg.get_int("experiment", "seed") == 3
    assert cfg.get_float("params", "s") == 0.5
    assert cfg.get_ints("grid", "n") == [17, 33]
    assert cfg.get_floats("grid", "box") == [-2.0, 2.0]
    region = cfg.region("omega")
    assert isinstance(region, Ball)
    assert region.radius == 1.0
    assert cfg.get_str("params", "missing", default="x") == "x"
    for probe in ("method = besov\np = inf", "method = besov\np = 1",
                  "method = gagliardo\np = 1.5\nlevels = 3\nsweep = 0.1, 1.9"):
        parse_config_text(f"[probe]\n{probe}\n")


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[experiment\nname = getoor\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config_text("name = getoor\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config_text("[experiment]\nseed =\n")
    assert err.value.line == 2
    assert err.value.column >= 6
    with pytest.raises(ConfigError) as err:
        parse_config_text("[experiment]\nseed = 1\nseed = 2\n")
    assert err.value.line == 3
    with pytest.raises(ConfigError):
        parse_config_text("[experiment]\njust a line\n")


def test_typed_getters_raise_config_errors():
    cfg = parse_config_text("[experiment]\nseed = hello\n")
    with pytest.raises(ConfigError):
        cfg.get_int("experiment", "seed")
    with pytest.raises(ConfigError):
        cfg.get_floats("experiment", "seed")
    # a CSV source needs its path
    cfg = parse_config_text("[source]\nprofile = csv\n")
    grid = build_grid(1, ((-2.0, 2.0),), 17, Ball((0.0,), 1.0))
    with pytest.raises(ConfigError, match="missing key 'path' in section \\[source\\]"):
        source_profile(cfg, grid)


def test_region_serialization_round_trip():
    cfg = parse_config_text("[params]\nndim = 2\n"
                            "[omega]\nkind = ball\ncenter = 0.25, -1\nradius = 0.75\n"
                            "[inner]\nkind = box\nbounds = -1, 0, 1, 2\n")
    assert cfg.region("omega") == Ball((0.25, -1.0), 0.75)
    assert cfg.region("inner") == Box((-1.0, 0.0), (1.0, 2.0))
    assert cfg.region("boundary") is None


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 9
    assert out[0] == "getoor"
    assert main(["list", "--json"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert len(names) == 9


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


SMALL_RUN = """
[experiment]
name = getoor
[params]
ndim = 1
s = 0.5
[grid]
n = 17, 33
"""


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_RUN)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    for name in ("solution.csv", "error_vs_h.csv", "manifest.json"):
        assert (out_dir / name).exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["experiment"] == "getoor"
    assert manifest["config"]["params"]["s"] == "0.5"
    assert "version" in manifest


def test_cli_run_malformed_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[experiment\nname = getoor\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert ":1:" in err


def test_cli_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_run_unknown_experiment_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "u.cfg"
    cfg_path.write_text("[experiment]\nname = not-a-recipe\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}:2:8: unknown experiment 'not-a-recipe'" in capsys.readouterr().err


@pytest.mark.parametrize("recipe", ["elliptic-regularity", "regularity-sweep"])
@pytest.mark.parametrize("text, bound, where, message", [
    ("[probe]\nlevels = 1000\n", None, ":4:10:",
     "levels must be at most 16 from n = 129 in 1D"),
    # without [probe] levels, the error sits at the base grid's n
    ("[grid]\nn = 129\n", 500, ":4:5:", "levels must be at most 2 from n = 129 in 1D"),
], ids=["levels", "default-levels"])
def test_cli_run_probe_ladder_past_the_node_bound_exits_2(tmp_path, capsys, monkeypatch,
                                                         recipe, text, bound, where, message):
    # Grid.refine fails after two calls, so a regressed guard cannot run the ladder far
    refined = refine_at_most(monkeypatch, 2)
    if bound is not None:
        monkeypatch.setattr(probe, "_MAX_LADDER_NODES", bound)
    cfg_path = tmp_path / "deep.cfg"
    cfg_path.write_text(f"[experiment]\nname = {recipe}\n{text}")
    with pytest.raises(ConfigError, match=message):
        experiments.run_experiment(recipe, parse_config_text(cfg_path.read_text()),
                                   str(tmp_path / "direct"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}{where} {message}" in capsys.readouterr().err
    assert refined == []


def test_cli_run_numerical_failure_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text("""
[experiment]
name = parabolic-energy
[grid]
n = 12001
[time]
nt = 2
""")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def _child_env(**extra):
    src = str(SRC_DIR.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def test_cli_runs_agree_across_hash_seeds(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_RUN)
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        done = subprocess.run(
            [sys.executable, "-m", "fraclab.cli", "run", "--config", str(cfg_path),
             "--out", str(out)],
            env=_child_env(PYTHONHASHSEED=seed, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "solution.csv" in names
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


@pytest.mark.parametrize("command", [["run", "--config", "exp.cfg"], ["check"]])
def test_cli_threads_option_is_gone(command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", "1"])
    assert exc.value.code == 2


def test_import_path_loads_no_scipy():
    # the two former scipy call sites run too: an eigendecomposition and the symbol oracle
    probe = ("import sys, fraclab, fraclab.cli, fraclab.acceptance, fraclab.reference; "
             "from fraclab.experiments import _symbol_oracle; "
             "from fraclab.operator import FractionalParams, assemble_operator_matrix; "
             "from fraclab.gridfn import build_grid; from fraclab.regions import Ball; "
             "grid = build_grid(1, ((-2.0, 2.0),), 17, Ball((0.0,), 1.0)); "
             "assemble_operator_matrix(grid, FractionalParams(1, 0.5)).spectrum; "
             "_symbol_oracle(1.0, 1.5, 0.5, 1.0, (7.0, 16.0, 5), 0.1); "
             "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_2d_kernel_build_runs_no_linear_algebra():
    # the Gauss rules come from a Newton iteration: a cold 2D kernel build and the symbol
    # oracle call no numpy.linalg routine and never import numpy.polynomial, whose leggauss
    # takes the eigenvalues of a companion matrix
    probe = "\n".join([
        "import sys",
        "import numpy.linalg as la",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('numpy.linalg ran')",
        "for name in la.__all__:",
        "    if not isinstance(getattr(la, name), type):",
        "        setattr(la, name, refuse)",
        "import fraclab",
        "from fraclab.experiments import _symbol_oracle",
        "from fraclab.operator import toeplitz_operator",
        "toeplitz_operator(2, 33, 0.5)",
        "_symbol_oracle(1.0, 1.5, 0.5, 1.0, (7.0, 16.0, 5), 0.1)",
        "print(sorted(k for k in sys.modules if k.split('.')[:2] == ['numpy', 'polynomial']))",
    ])
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_runtime_dependency_is_numpy_alone():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = [name for name in names if name.split(".")[0] not in allowed]
            assert not outside, f"{path.name}:{node.lineno} imports {outside}"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC_DIR.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def test_cli_check_subset(tmp_path, capsys):
    rc = main(["check", "--out", str(tmp_path / "acc"), "--criteria", "9"])
    out = capsys.readouterr().out
    assert "criterion  9" in out
    assert rc == 0


def test_cli_check_rejects_bad_criteria(tmp_path):
    assert main(["check", "--criteria", "abc"]) == 2
    assert main(["check", "--criteria", "0,11"]) == 2


def _blocked_out_dirs(tmp_path):
    """An existing file, and a path below it that no directory can take."""
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    return taken, taken / "sub"


def test_cli_run_out_that_names_a_file_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_RUN)
    for out in _blocked_out_dirs(tmp_path):
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err


def test_cli_run_without_experiment_name_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("[params]\ns = 0.5\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: config needs [experiment] name = <recipe>\n"
    assert not (tmp_path / "out").exists()


def test_cli_check_out_that_names_a_file_exits_2(tmp_path, capsys):
    for out in _blocked_out_dirs(tmp_path):
        assert main(["check", "--out", str(out), "--criteria", "9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err


@pytest.mark.parametrize("text, where", [
    ("[experiment]\nname = getoor\n[params]\ns = 0.5, 1.5\n", ":4:5:"),
    ("[experiment]\nname = getoor\n[params]\nndim = 3\n", ":4:8:"),
    ("[experiment]\nname = parabolic-energy\n[time]\nnt = 1\n", ":4:6:"),
    ("[experiment]\nname = parabolic-energy\n[time]\ntheta = 0.3\n", ":4:9:"),
    ("[experiment]\nname = semigroup-contraction\n[semigroup]\nnt = 0\n", ":4:6:"),
    ("[experiment]\nname = semigroup-contraction\n[semigroup]\nnt = -3\n", ":4:6:"),
    ("[experiment]\nname = semigroup-contraction\n[semigroup]\ncount = 0\n", ":4:9:"),
    ("[experiment]\nname = semigroup-contraction\n[semigroup]\nt = 0.1, -0.5\n", ":4:5:"),
    ("[experiment]\nname = getoor\n[grid]\nn = 17, 5\n", ":4:5:"),
    ("[experiment]\nname = getoor\n[grid]\nbox = 2.0, -2.0\n", ":4:7:"),
    ("[experiment]\nname = getoor\n[params]\nndim = 2\n[grid]\nbox = -2, 2\n", ":6:7:"),
    ("[experiment]\nname = getoor\n[params]\nndim = 2\n[grid]\nbox = -2, -2, 2, 3\n", ":6:7:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = ball\ncenter = 0, 0\nradius = 1\n",
     ":5:10:"),
    ("[experiment]\nname = getoor\n[params]\nndim = 2\n[omega]\nkind = box\nbounds = -1, 1\n",
     ":7:10:"),
    ("[experiment]\nname = elliptic-regularity\n[params]\ns = 0.5\n[grid]\nn = 33\n"
     "[boundary]\nkind = ball\ncenter = 0.0, 0.0\nradius = 0.5\n", ":9:10:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nmethod = besvo\n", ":4:10:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\np = inf\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\np = 1\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\np = 0.5\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nmethod = besov\np = 0.5\n", ":5:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nlevels = 2\n", ":4:10:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nsweep = 0.5, 2.5\n", ":4:9:"),
    ("[experiment]\nname = product-rule\n[params]\nndim = 2\n", ":4:8:"),
    ("[experiment]\nname = boundary-profile\n[params]\nndim = 2\n", ":4:8:"),
    ("[experiment]\nname = regularity-sweep\n[params]\nndim = 2\n", ":4:8:"),
    ("[experiment]\nname = elliptic-regularity\n[grid]\nn = 33\n[probe]\nmethod = besov\n"
     "p = inf\n", ":7:5:"),
    ("[experiment]\nname = g-bound\n[grid]\nn = 33, 65\n[probe]\nmethod = besov\np = 1\n",
     ":7:5:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[probe]\nmethod = besov\n"
     "p = inf\n[inner]\nkind = box\nbounds = 0.5, 1.5\n", ":7:5:"),
    ("[experiment]\nname = elliptic-regularity\n[grid]\nn = 33\n[probe]\nmethod = besov\n",
     ":6:10:"),
    ("[experiment]\nname = g-bound\n[grid]\nn = 33, 65\n[probe]\nmethod = besov\n", ":6:10:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[probe]\nmethod = besov\n"
     "[inner]\nkind = box\nbounds = 0.5, 1.5\n", ":6:10:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = ball\ncenter = 0.0\nradius = abc\n",
     ":6:10:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = ball\ncenter = 0.0\nradius = -1\n",
     ":6:10:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = box\nbounds = 1.0, -1.0\n", ":5:10:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = box\nbounds = -1, 0, 1\n", ":5:10:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = triangle\n", ":4:8:"),
    ("[experiment]\nname = getoor\n[grid]\nn = inf\n", ":4:5:"),
    ("[experiment]\nname = getoor\n[grid]\nn = nan\n", ":4:5:"),
    ("[experiment]\nname = getoor\n[grid]\nn = 1e400\n", ":4:5:"),
    ("[experiment]\nname = getoor\n[omgea]\nkind = ball\n", ":3:1:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nrate_treshold = 0.2\n", ":4:1:"),
    ("[experiment]\nname = symbol\n[symbol]\nk = 0\n", ":4:5:"),
    ("[experiment]\nname = parabolic-energy\n[time]\nT = -1\n", ":4:5:"),
    ("[experiment]\nname = parabolic-energy\n[params]\ns = 0.3, 0.5\n", ":4:5:"),
    ("[experiment]\nname = parabolic-energy\n[grid]\nn = 17\n[time]\nT = inf\nnt = 4\n",
     ":6:5:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = ball\ncenter = 0.0\nradius = nan\n",
     ":6:10:"),
    ("[experiment]\nname = getoor\n[omega]\nkind = ball\ncenter = nan\nradius = 1\n",
     ":5:10:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nmethod = besov\np = nan\n", ":5:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nmethod = besov\np = -inf\n", ":5:5:"),
    ("[experiment]\nname = parabolic-energy\n[time]\nslack = -2\n", ":4:9:"),
    ("[experiment]\nname = symbol\n[symbol]\nwindow_order = -1\n", ":4:16:"),
    ("[experiment]\nname = symbol\n[symbol]\nwindow_order = 6\n", ":4:16:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[source]\nprofile = power\n"
     "center = 0.3, 0.3\n", ":7:10:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[source]\nprofile = bump\n"
     "inner_fraction = -0.2\n", ":7:18:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[source]\nprofile = bump\n"
     "inner_fraction = 0.9\nouter_fraction = 0.5\n", ":7:18:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[source]\nprofile = bump\n"
     "outer_fraction = 1.5\n", ":7:18:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[source]\nprofile = bump\n"
     "outer_fraction = 0.2\n", ":7:18:"),
    ("[experiment]\nname = getoor\n[grid]\nn = ,\n", ":4:5:"),
    ("[experiment]\nname = elliptic-regularity\n[params]\ns = , ,\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[grid]\nn = 33\n[probe]\nmethod = besov\n"
     "sweep = 1.0\n", ":7:9:"),
    ("[experiment]\nname = parabolic-energy\n[grid]\nn = 17\n[omega]\nkind = ball\n"
     "center = 0\nradius = 3\n[source]\nprofile = jmup\n", ":10:11:"),
    ("[experiment]\nname = parabolic-energy\n[grid]\nn = 17\n[source]\nprofile = csv\n",
     ":6:11:"),
    ("[experiment]\nname = getoor\n[grid]\nn = 17\n[omega]\nkind = box\nbounds = -1, 1\n",
     ":6:8:"),
], ids=["s", "ndim", "nt", "theta", "semigroup-nt-0", "semigroup-nt-negative",
        "semigroup-count", "semigroup-t", "grid-n", "box-extent", "box-length", "box-square",
        "omega-ball-dim", "omega-box-dim", "boundary-ball-dim", "probe-method", "probe-p-inf",
        "probe-p-1", "probe-p-half", "probe-besov-p-half", "probe-levels", "probe-sweep",
        "ndim-product-rule", "ndim-boundary-profile", "ndim-regularity-sweep",
        "besov-p-elliptic-regularity", "besov-p-g-bound", "besov-p-region-mode",
        "besov-method-elliptic-regularity", "besov-method-g-bound",
        "besov-method-region-mode", "omega-radius-text", "omega-radius-negative",
        "omega-box-extent", "omega-box-odd-bounds", "omega-kind", "grid-n-inf", "grid-n-nan",
        "grid-n-overflow", "unknown-section", "unknown-key", "symbol-k-zero",
        "time-T", "one-value-list", "time-T-inf", "omega-radius-nan",
        "omega-center-nan", "probe-p-nan", "probe-p-minus-inf", "time-slack-negative",
        "symbol-window-order-negative", "symbol-window-order-above-5", "source-center-length",
        "bump-inner-negative", "bump-inner-above-outer", "bump-outer-above-1",
        "bump-outer-below-default-inner",
        "grid-n-empty-list", "params-s-empty-list", "besov-sweep-sigma-1",
        "source-profile-unknown", "source-csv-without-path", "getoor-omega-box"])
def test_cli_run_out_of_range_value_exits_2(tmp_path, capsys, text, where):
    cfg_path = tmp_path / "range.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("[symbol]\nwindow_outer = -5\n", ":4:16:"),
    ("[symbol]\nwindow_inner = 9\nwindow_outer = 5\n", ":4:16:"),
    ("[grid]\nn = 65, 129\n", ":4:5:"),
    ("[symbol]\nk = 4\n[grid]\nn = 65, 129\n", ":4:5:"),
    ("[grid]\nn = 129\n", ":4:5:"),
    ("[symbol]\nk = 0.05\n", ":4:5:"),
    ("[symbol]\nk = 1, 0.5\n", ":4:5:"),
], ids=["window-outer-negative", "window-inner-above-outer", "kh-above-pi-default-k",
        "kh-above-pi", "one-level", "window-center-outside-box", "window-leaves-omega"])
def test_cli_run_symbol_fault_exits_2_before_any_apply(tmp_path, capsys, monkeypatch,
                                                       text, where):
    # at h0 = 0.875 and k = 4 the node nearest pi/8 is x = 0, where sin(kx) = 0
    def no_apply(*args, **kwargs):
        raise AssertionError("applied the operator before the config was rejected")

    monkeypatch.setattr(experiments, "apply_fractional_laplacian", no_apply)
    monkeypatch.setattr(experiments, "_symbol_oracle", no_apply)
    cfg_path = tmp_path / "symbol.cfg"
    cfg_path.write_text("[experiment]\nname = symbol\n" + text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("[symbol]\nwindow_outer = 20\n", ":4:16:"),
    ("[grid]\nbox = -26, 26\n", ":4:7:"),
    ("[symbol]\nwindow_outer = 20\n[grid]\nbox = -30, 30\n", ":6:7:"),
], ids=["window-outer", "box", "both-set"])
def test_cli_run_symbol_collar_exits_2_before_any_grid(tmp_path, capsys, no_grid,
                                                       text, where):
    # Omega is (-(window_outer + 2), window_outer + 2); its collar needs a
    # box of at least 1.5 (window_outer + 2) each way, which the config alone decides
    cfg_path = tmp_path / "symbol.cfg"
    cfg_path.write_text("[experiment]\nname = symbol\n" + text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}{where}" in err
    assert "below 25% of omega's diameter" in err
    assert "Omega is {'kind': 'ball', 'center': [0.0], 'radius': " in err


@pytest.mark.parametrize("text, where", [
    ("[experiment]\nname = getoor\n[grid]\nbox = -1.2, 1.2\n", ":4:7:"),
    ("[experiment]\nname = boundary-profile\n[omega]\nkind = box\nbounds = -1.9, 1.9\n",
     ":4:8:"),
], ids=["grid-box", "omega"])
def test_cli_run_collar_exits_2_before_any_grid(tmp_path, capsys, no_grid, text, where):
    # the collar rule reads only the box and Omega, which the config alone decides
    cfg_path = tmp_path / "collar.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}{where}" in err and "below 25% of omega's diameter" in err


def test_cli_run_symbol_reads_grid_box_and_omega(tmp_path):
    cfg_path = tmp_path / "symbol.cfg"
    cfg_path.write_text("[experiment]\nname = symbol\n[params]\ns = 0.5\n[symbol]\nk = 1\n"
                        "[grid]\nn = 65, 129\nbox = -30, 30\n"
                        "[omega]\nkind = ball\ncenter = 0\nradius = 19\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "symbol.csv") as fh:
        h = [float(row["h"]) for row in csv.DictReader(fh)]
    assert h == [60 / 64, 60 / 128]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["regions"]["omega"] == {"kind": "ball", "center": [0.0], "radius": 19.0}


REGIONS = ("omega", "inner", "boundary")

# a valid value of each schema key but [experiment] name and a region's kind,
# whatever its section
VALUE = {"seed": "5", "s": "0.5", "ndim": "1", "n": "33", "box": "-2, 2",
         "center": "0.1", "radius": "0.2", "bounds": "-0.4, 0.4",
         "k": "1", "window_inner": "7", "window_outer": "16", "window_order": "5",
         "profile": "constant", "value": "2", "threshold": "0.2", "exponent": "0.5",
         "inner_fraction": "0.2", "outer_fraction": "0.6", "path": "f.csv",
         "T": "1", "nt": "4", "theta": "1", "slack": "0.05", "t": "0.1", "count": "2",
         "method": "gagliardo", "p": "2", "levels": "3", "sweep": "0.3",
         "rate_threshold": "0.2"}


def _declared(recipe, profile=None, kind=None):
    """The (section, key) pairs that the READS row of `recipe` declares.

    [source] is read at `profile`, the row's default when None, and a region
    section at `kind`, every region key when None.
    """
    row = experiments.READS[recipe]
    sections = {**experiments.FRONT, **row.sections}
    if row.profile:
        sections["source"] = ("profile",) + PROFILE_KEYS[profile or row.profile]
    pairs = set()
    for section, keys in sections.items():
        if keys is experiments.ALL:
            keys = (("kind",) + REGION_KEYS[kind] if kind and section in REGIONS
                    else _SCHEMA[section])
        pairs.update((section, key) for key in keys)
    return pairs


def _region_lines(kind, first=None):
    """The lines of a `kind` region, `first` (a key of the region) leading."""
    keys = ("kind",) + REGION_KEYS[kind]
    if first is not None:
        keys = (first,) + tuple(k for k in keys if k != first)
    return "".join(f"{k} = {kind if k == 'kind' else VALUE[k]}\n" for k in keys)


def _unread_cases():
    """A config per recipe and schema key its row does not declare, that key first in
    its section and otherwise valid, with the location of the key's value."""
    for recipe in experiments.READS:
        declared = _declared(recipe)
        for section, keys in _SCHEMA.items():
            for key in keys:
                if (section, key) in declared:
                    continue
                if section in REGIONS:
                    kind = next(k for k in REGION_KEYS if key in ("kind",) + REGION_KEYS[k])
                    lines = _region_lines(kind, key)
                else:
                    lines = f"{key} = {VALUE[key]}\n"
                if section == "experiment":
                    text, row = f"[experiment]\n{lines}name = {recipe}\n", 2
                else:
                    text, row = f"[experiment]\nname = {recipe}\n[{section}]\n{lines}", 4
                yield pytest.param(text, f":{row}:{len(key) + 4}:",
                                   id=f"{recipe}-{section}.{key}")


HAND_WRITTEN_UNREAD = [
    ("[experiment]\nname = getoor\n[source]\nprofile = jump\n", ":4:11:"),
    ("[experiment]\nname = boundary-profile\n[source]\nvalue = 2\n", ":4:9:"),
    ("[experiment]\nname = semigroup-contraction\n[source]\nprofile = jump\n", ":4:11:"),
    ("[experiment]\nname = semigroup-contraction\n[time]\nT = 2\n", ":4:5:"),
    ("[experiment]\nname = product-rule\n[grid]\nn = 65\n[inner]\nkind = ball\n"
     "center = 0\nradius = 0.2\n", ":6:8:"),
    ("[experiment]\nname = g-bound\n[probe]\nlevels = 9\n", ":4:10:"),
    ("[experiment]\nname = g-bound\n[probe]\np = 2\nsweep = 0.1\n", ":5:9:"),
    ("[experiment]\nname = g-bound\n[probe]\nmethod = gagliardo\nrate_threshold = 0.2\n",
     ":5:18:"),
    ("[experiment]\nname = getoor\nseed = 5\n", ":3:8:"),
    ("[experiment]\nseed = 5\nname = parabolic-energy\n", ":2:8:"),
    ("[experiment]\nname = parabolic-energy\n[source]\nprofile = bump\nexponent = 1\n",
     ":5:12:"),
    ("[experiment]\nname = parabolic-energy\n[source]\nthreshold = 0.2\n", ":4:13:"),
    ("[experiment]\nname = g-bound\n[source]\nprofile = power\nvalue = 2\n", ":5:9:"),
    ("[experiment]\nname = elliptic-regularity\n[source]\ninner_fraction = 0.2\n",
     ":4:18:"),
    ("[experiment]\nname = regularity-sweep\n[source]\nprofile = csv\npath = f.csv\n"
     "value = 1\n", ":6:9:"),
]
HAND_WRITTEN_UNREAD_IDS = [
    "getoor-source", "boundary-profile-source", "semigroup-source", "semigroup-time",
    "product-rule-inner", "g-bound-probe-levels", "g-bound-probe-sweep",
    "g-bound-probe-rate-threshold", "getoor-seed", "parabolic-energy-seed",
    "bump-exponent", "constant-by-default-threshold", "power-value",
    "jump-by-default-inner-fraction", "csv-value"]


@pytest.mark.parametrize("text, where", [
    pytest.param(*case, id=name)
    for case, name in zip(HAND_WRITTEN_UNREAD, HAND_WRITTEN_UNREAD_IDS)]
    + list(_unread_cases()))
def test_cli_run_section_the_recipe_does_not_read_exits_2(tmp_path, capsys, no_grid,
                                                          text, where):
    cfg_path = tmp_path / "unread.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[experiment]\nname = semigroup-contraction\nseed = 5\n",
    "[experiment]\nname = elliptic-regularity\n[source]\nthreshold = 0.2\nvalue = 2\n",
    "[experiment]\nname = parabolic-energy\n[source]\nprofile = bump\n"
    "inner_fraction = 0.2\nouter_fraction = 0.6\n",
    "[experiment]\nname = g-bound\n[source]\nprofile = power\nexponent = 0.3\ncenter = 0.1\n",
    "[experiment]\nname = regularity-sweep\n[source]\nvalue = 3\n",
], ids=["semigroup-seed", "jump-by-default", "bump", "power", "constant-by-default"])
def test_cli_run_keys_the_recipe_reads_pass_to_the_grid(tmp_path, no_grid, text):
    cfg_path = tmp_path / "read.cfg"
    cfg_path.write_text(text)
    with pytest.raises(GridBuilt):
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])


def test_front_end_tables_agree():
    # every recipe has a row, and every section is read by some recipe
    rows = experiments.READS.values()
    assert set(experiments.READS) == set(experiments.RECIPES)
    read = set(experiments.FRONT).union(*(row.sections for row in rows))
    assert read | {"source" for row in rows if row.profile} == set(_SCHEMA)


@pytest.mark.parametrize("kind, stray", [
    (kind, stray) for kind in REGION_KEYS for other in REGION_KEYS if other != kind
    for stray in REGION_KEYS[other]])
@pytest.mark.parametrize("section", REGIONS)
def test_region_key_of_the_other_kind_exits_2_at_load(tmp_path, capsys, no_grid,
                                                      section, kind, stray):
    text = (f"[experiment]\nname = elliptic-regularity\n[{section}]\n"
            + _region_lines(kind) + f"{stray} = {VALUE[stray]}\n")
    where = (text.count("\n"), len(stray) + 4)
    with pytest.raises(ConfigError, match=f"a {kind} region does not read {stray}") as err:
        parse_config_text(text)
    assert (err.value.line, err.value.column) == where
    cfg_path = tmp_path / "region.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}:{where[0]}:{where[1]}:" in capsys.readouterr().err


# the values of the read-set runs, where they differ from VALUE: small, and each
# region where the recipe's default puts it; symbol's Omega holds its window
RUN_VALUE = {("experiment", "seed"): "1", ("omega", "center"): "0", ("omega", "radius"): "1",
             ("omega", "bounds"): "-1, 1", ("inner", "center"): "0",
             ("inner", "radius"): "0.4", ("boundary", "center"): "1",
             ("boundary", "radius"): "0.5", ("boundary", "bounds"): "0.5, 1.5",
             ("source", "value"): "1", ("source", "threshold"): "0",
             ("source", "inner_fraction"): "0.3", ("source", "outer_fraction"): "0.8",
             ("time", "T"): "0.1", ("semigroup", "nt"): "2", ("probe", "sweep"): "0.4, 0.6"}
SYMBOL_RUN_VALUE = {("grid", "n"): "65, 129", ("grid", "box"): "-30, 30",
                    ("omega", "radius"): "19", ("omega", "bounds"): "-19, 19"}


@pytest.mark.parametrize("recipe", list(experiments.RECIPES))
def test_recipe_reads_the_keys_its_row_declares(tmp_path, monkeypatch, recipe):
    # a recipe run on a config that sets every key its row declares reads each of
    # them and no other: once per [source] profile it accepts (the probe refines its
    # grid, so it rejects a CSV source) and once per region kind (getoor's closed
    # form needs a ball Omega)
    row = experiments.READS[recipe]
    (tmp_path / "f.csv").write_text(", ".join(["1"] * 15) + "\n")  # the Omega nodes at n = 33
    profiles = [profile for profile in PROFILE_KEYS if not (
        profile == "csv" and recipe in ("elliptic-regularity", "regularity-sweep"))]
    runs = [(profile, "ball") for profile in (profiles if row.profile else [None])]
    runs += [(None, kind) for kind in REGION_KEYS if kind != "ball" and recipe != "getoor"]
    values = {**RUN_VALUE, **(SYMBOL_RUN_VALUE if recipe == "symbol" else {}),
              ("experiment", "name"): recipe, ("source", "path"): str(tmp_path / "f.csv")}
    read = set()

    def recorded(getter):
        def get(self, section, key, default=None):
            read.add((section, key))
            return getter(self, section, key, default)
        return get

    for name in ("get_str", "get_floats"):  # every other getter calls one of these
        monkeypatch.setattr(RunConfig, name, recorded(getattr(RunConfig, name)))
    for profile, kind in runs:
        declared = _declared(recipe, profile, kind)
        value = {**values, ("source", "profile"): profile or row.profile}
        by_section = {}
        for section, key in sorted(declared):
            by_section.setdefault(section, []).append(
                f"{key} = {kind if key == 'kind' else value.get((section, key)) or VALUE[key]}")
        cfg = parse_config_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                        for section, lines in by_section.items()))
        read.clear()  # of what loading the config read
        experiments.run_experiment(recipe, cfg, str(tmp_path / f"{profile}-{kind}"))
        assert read | {("experiment", "name")} == declared, (profile, kind)


def test_cli_run_config_not_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(b"[experiment]\nname = getoor\n\xff\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and str(cfg_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [",", "", " , "], ids=["comma", "empty", "blank"])
def test_cli_check_rejects_criteria_without_numbers(tmp_path, capsys, value):
    out = tmp_path / "acc"
    assert main(["check", "--out", str(out), "--criteria", value]) == 2
    assert capsys.readouterr().err.startswith("error: --criteria needs numbers")
    assert not out.exists()  # nothing ran


def test_cli_run_csv_source_of_wrong_length_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("1, 2, 3\n")
    cfg_path = tmp_path / "csv.cfg"
    cfg_path.write_text(f"""[experiment]
name = parabolic-energy
[grid]
n = 17
[time]
nt = 4
[source]
profile = csv
path = {csv_path}
""")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}:9:8:" in err
    assert "holds 3 values for 7 Omega nodes" in err


@pytest.mark.parametrize("content", [None, "a, b\n"], ids=["missing", "unparsable"])
def test_cli_run_unreadable_csv_source_exits_2(tmp_path, capsys, content):
    csv_path = tmp_path / "f.csv"
    if content is not None:
        csv_path.write_text(content)
    cfg_path = tmp_path / "csv.cfg"
    cfg_path.write_text(f"""[experiment]
name = parabolic-energy
[grid]
n = 17
[time]
nt = 4
[source]
profile = csv
path = {csv_path}
""")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}:9:8: cannot read CSV source" in err


@pytest.mark.parametrize("recipe, source", [
    ("parabolic-energy", "csv inf"), ("parabolic-energy", "csv nan"), ("g-bound", "csv nan"),
    ("regularity-sweep", "power")])
def test_cli_run_non_finite_source_exits_3(tmp_path, capsys, recipe, source):
    # n = 33 puts a node at the center of the unit ball, where r^-0.5 is inf
    grid = build_grid(1, ((-2.0, 2.0),), 33, Ball((0.0,), 1.0))
    if source == "power":
        section = "profile = power\nexponent = -0.5\n"
    else:
        values = ["1"] * grid.n_omega
        values[3] = source.split()[1]
        csv_path = tmp_path / "f.csv"
        csv_path.write_text(", ".join(values) + "\n")
        section = f"profile = csv\npath = {csv_path}\n"
    time = "[time]\nnt = 4\n" if recipe == "parabolic-energy" else ""
    cfg_path = tmp_path / "nonfinite.cfg"
    cfg_path.write_text(f"[experiment]\nname = {recipe}\n[grid]\nn = 33\n{time}"
                        f"[source]\n{section}")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"numerical failure: 1 of {grid.n_omega} Omega values are not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("recipe, grid", [
    ("regularity-sweep", "[grid]\nn = 33\n"), ("elliptic-regularity", "[grid]\nn = 33\n"),
    ("g-bound", "[grid]\nn = 33, 65\n"), ("g-bound", "")],
    ids=["regularity-sweep", "elliptic-regularity", "g-bound-two-n", "g-bound-default-n"])
def test_cli_run_csv_source_in_refining_recipe_exits_2(tmp_path, capsys, monkeypatch,
                                                       recipe, grid):
    # a CSV fits one grid: rejected at the profile value, before any solve (a g-bound
    # with one n accepts it: test_cli_run_non_finite_source_exits_3 reaches its solve)
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the CSV source was rejected")

    monkeypatch.setattr(experiments, "solve_dirichlet", no_solve)
    csv_path = tmp_path / "f.csv"
    csv_path.write_text(", ".join(["1"] * 15) + "\n")  # the 15 Omega nodes at n = 33
    cfg_path = tmp_path / "csv.cfg"
    cfg_path.write_text(f"[experiment]\nname = {recipe}\n[source]\nprofile = csv\n"
                        f"path = {csv_path}\n{grid}")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}:4:11:" in err and "a CSV source holds values for one grid" in err


@pytest.mark.parametrize("recipe", ["getoor", "elliptic-regularity"])
def test_cli_run_reads_integral_float_n(tmp_path, recipe):
    # every recipe reads [grid] n through get_ints, as a list or as one value
    cfg_path = tmp_path / "n.cfg"
    cfg_path.write_text(f"[experiment]\nname = {recipe}\n[params]\ns = 0.5\n[grid]\nn = 33.0\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["grid"]["n"] == "33.0"


def _literal_args(call):
    """The call's constant string arguments, up to the first one that is not."""
    out = []
    for arg in call.args:
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            break
        out.append(arg.value)
    return out


def test_schema_lists_every_key_a_recipe_reads():
    getters = {"get_str", "get_int", "get_float", "get_ints", "get_floats", "has", "error"}
    seen = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "cfg"):
                continue
            args = _literal_args(node)
            if node.func.attr == "region" and args:
                assert args[0] in ("omega", "inner", "boundary"), (path.name, args)
            elif node.func.attr in getters and len(args) >= 2:
                section, key = args[:2]
                assert key in _SCHEMA.get(section, {}), (path.name, section, key)
                seen.add((section, key))
    assert ("experiment", "name") in seen and ("probe", "rate_threshold") in seen


def _embedded_configs(path):
    """Text of every _cfg(...) call in the module; f-string fields read as 0."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_cfg"):
            arg = node.args[0]
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            yield "".join(p.value if isinstance(p, ast.Constant) else "0" for p in parts)


@pytest.mark.parametrize("path", [SRC_DIR / "acceptance.py", WORKLOADS_PATH],
                         ids=["acceptance", "workloads"])
def test_embedded_configs_parse(path):
    texts = list(_embedded_configs(path))
    assert texts
    for text in texts:
        parse_config_text(text)
