import filecmp
import json
import os

import pytest

from fraclab.cli import main
from fraclab.errors import ConfigError
from fraclab.regions import Ball, region_to_mapping
from fraclab.runconfig import parse_config_text

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
        parse_config_text("[a]\nkey =\n")
    assert err.value.line == 2
    assert err.value.column >= 5
    with pytest.raises(ConfigError) as err:
        parse_config_text("[a]\nx = 1\nx = 2\n")
    assert err.value.line == 3
    with pytest.raises(ConfigError):
        parse_config_text("[a]\njust a line\n")


def test_typed_getters_raise_config_errors():
    cfg = parse_config_text("[a]\nx = hello\n")
    with pytest.raises(ConfigError):
        cfg.get_int("a", "x")
    with pytest.raises(ConfigError):
        cfg.get_floats("a", "x")
    with pytest.raises(ConfigError):
        cfg.get_str("a", "missing", required=True)


def test_region_serialization_round_trip():
    region = Ball((0.5,), 0.75)
    kv = region_to_mapping(region)
    text = "[omega]\n" + "\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n"
    cfg = parse_config_text(text)
    back = cfg.region("omega")
    assert back.describe() == region.describe()


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


def test_cli_run_unknown_experiment_exits_2(tmp_path):
    cfg_path = tmp_path / "u.cfg"
    cfg_path.write_text("[experiment]\nname = not-a-recipe\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


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


def test_cli_determinism_across_threads(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_RUN)
    out1 = tmp_path / "t1"
    out8 = tmp_path / "t8"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out8), "--threads", "8"]) == 0
    for name in sorted(os.listdir(out1)):
        assert filecmp.cmp(out1 / name, out8 / name, shallow=False), name


def test_cli_run_check_mode(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("""
[experiment]
name = product-rule
[params]
s = 0.5
[grid]
n = 33, 65, 129
""")
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--check"])
    out = capsys.readouterr().out
    assert "criterion  3" in out
    assert rc == 0


def test_cli_check_subset(tmp_path, capsys):
    rc = main(["check", "--out", str(tmp_path / "acc"), "--criteria", "9"])
    out = capsys.readouterr().out
    assert "criterion  9" in out
    assert rc == 0


def test_cli_check_rejects_bad_criteria(tmp_path):
    assert main(["check", "--criteria", "abc"]) == 2
    assert main(["check", "--criteria", "0,11"]) == 2


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
    ("[experiment]\nname = regularity-sweep\n[probe]\nmethod = besvo\n", ":4:10:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\np = inf\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\np = 1\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\np = 0.5\n", ":4:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nmethod = besov\np = 0.5\n", ":5:5:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nlevels = 2\n", ":4:10:"),
    ("[experiment]\nname = regularity-sweep\n[probe]\nsweep = 0.5, 2.5\n", ":4:9:"),
    ("[experiment]\nname = product-rule\n[params]\nndim = 2\n", ":4:8:"),
    ("[experiment]\nname = identity-check\n[params]\nndim = 2\n", ":4:8:"),
    ("[experiment]\nname = regularity-sweep\n[params]\nndim = 2\n", ":4:8:"),
], ids=["s", "ndim", "nt", "theta", "semigroup-nt-0", "semigroup-nt-negative",
        "semigroup-count", "semigroup-t", "grid-n", "box-extent", "box-length", "box-square",
        "omega-ball-dim", "omega-box-dim", "probe-method", "probe-p-inf", "probe-p-1",
        "probe-p-half", "probe-besov-p-half", "probe-levels", "probe-sweep",
        "ndim-product-rule", "ndim-alias", "ndim-regularity-sweep"])
def test_cli_run_out_of_range_value_exits_2(tmp_path, capsys, text, where):
    cfg_path = tmp_path / "range.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg_path}{where}" in capsys.readouterr().err


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


def test_cli_run_check_resolves_alias(tmp_path, capsys):
    cfg_path = tmp_path / "alias.cfg"
    cfg_path.write_text("[experiment]\nname = identity-check\n[params]\ns = 0.5\n"
                        "[grid]\nn = 33, 65, 129\n")
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--check"])
    assert "criterion  3" in capsys.readouterr().out
    assert rc == 0
