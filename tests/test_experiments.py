import csv
import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fraclab import experiments, operator
from fraclab.elliptic import solve_dirichlet
from fraclab.errors import ConfigError
from fraclab.experiments import (
    _write_csv,
    getoor_constant,
    run_experiment,
    source_profile,
)
from fraclab.gridfn import build_grid, extend_by_zero
from fraclab.operator import FractionalParams
from fraclab.parabolic import semigroup_apply
from fraclab.probe import estimate_local_exponent
from fraclab.regions import Ball, Box
from fraclab.runconfig import parse_config_text
from fraclab.spaces import lp_norm


F17 = "{:.17g}".format


def _cfg(text):
    return parse_config_text(text)


def test_getoor_constant_values():
    assert getoor_constant(1, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert getoor_constant(2, 0.5) == pytest.approx(np.pi / 2, rel=1e-12)
    assert getoor_constant(1, 0.3) == pytest.approx(0.8935153492876903, rel=1e-12)


def test_write_csv_array_and_rows_give_the_same_bytes(tmp_path):
    table = np.array([[-0.0, np.inf, -np.inf],
                      [3.0, -2.0, 1e300],
                      [0.1, 1.0 / 3.0, -2.220446049250313e-16],
                      [123456789.12345678, 5e-324, 0.30000000000000004]])
    header = ("a", "b", "c")
    _write_csv(tmp_path / "array.csv", header, table)
    _write_csv(tmp_path / "rows.csv", header, [tuple(float(v) for v in row) for row in table])
    data = (tmp_path / "array.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.splitlines()[1] == b"-0,inf,-inf"
    assert data.count(b"\r\n") == 5


@pytest.mark.parametrize("table", [
    [(1.0, "ball")],                                 # a text field
    [(1.0, 2.0), (3.0,)],                            # ragged rows
    np.zeros((2, 3)),                                # a column more than the header
    np.zeros(2),                                     # one row, not a table
    np.array([[True, False]]),                       # booleans
], ids=["text", "ragged", "columns", "1-d", "bool"])
def test_write_csv_rejects_anything_but_a_numeric_table(tmp_path, table):
    with pytest.raises((TypeError, ValueError)):
        _write_csv(tmp_path / "bad.csv", ("a", "b"), table)


def _percent_write(path, header, table):
    """Write as _write_csv wrote arrays before its blocks: one % over the whole array."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        fh.write(line * table.shape[0] % tuple(table.ravel().tolist()))


def _awkward_table(rows, cols, seed):
    """Signed zeros, infinities, nan, subnormals and values repeated across rows and blocks."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308 / 3, 0.1, 1.0 / 3.0, -2.0, 1e300])
    table = rng.choice(np.concatenate([pool, rng.standard_normal(7)]), size=(rows, cols))
    return np.ascontiguousarray(table)


@pytest.mark.parametrize("rows, cols", [(0, 3), (1, 5), (9, 1), (37, 4),
                                        (experiments._CSV_ROWS + 3, 2)],
                         ids=["zero-rows", "one-row", "one-column", "small", "two-blocks"])
def test_write_csv_array_blocks_match_the_percent_formula(tmp_path, rows, cols):
    table = _awkward_table(rows, cols, rows * 10 + cols)
    header = tuple(f"c{j}" for j in range(cols))
    # a strided view and an integer array are written as their float values
    for name, head, array in (("out", header, table), ("view", header[::-1], table[:, ::-1]),
                              ("ints", header, np.arange(rows * cols).reshape(rows, cols))):
        _write_csv(tmp_path / f"{name}.csv", head, array)
        _percent_write(tmp_path / f"{name}_percent.csv", head, array.astype(float))
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_percent.csv").read_bytes())


def test_write_csv_array_peak_stays_below_the_percent_formula(tmp_path):
    # getoor's 2D n = 129 solution.csv: 16641 rows of 4, few distinct values per column
    x = np.linspace(-2.0, 2.0, 129)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    u = np.clip(1.0 - (pts ** 2).sum(axis=1), 0.0, None) ** 0.5
    table = np.column_stack([pts, u, u + 1e-3 * np.round(pts[:, 0], 1)])
    peaks = []
    for write, name in ((_write_csv, "blocks.csv"), (_percent_write, "percent.csv")):
        tracemalloc.start()
        try:
            write(tmp_path / name, ("a", "b", "c", "d"), table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= min(peaks[1], 3.08e6)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()


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


def test_getoor_compares_with_the_closed_form_on_its_own_ball(tmp_path):
    cfg = _cfg("""
[experiment]
name = getoor
[params]
s = 0.5
[grid]
n = 65, 129
[omega]
kind = ball
center = 0.5
radius = 0.5
""")
    errs = [row[2] for row in run_experiment("getoor", cfg, str(tmp_path))["errors"]]
    assert errs[0] < 0.06 and errs[1] < 0.6 * errs[0]


def _windowed_sine_operator_mp(kf, center, s, r1, r2, order):
    """The operator on sin(kf y) W(|y - center|) at y = center, by mpmath at 30 digits."""
    kf, c, s, r1, r2 = (mp.mpf(v) for v in (kf, center, s, r1, r2))

    def u(y):
        t = min(max((r2 - abs(y - c)) / (r2 - r1), 0), 1)
        return mp.sin(kf * y) * t ** (order + 1) * sum(
            math.comb(order + k, k) * math.comb(2 * order + 1, order - k) * (-t) ** k
            for k in range(order + 1))

    u0, p = u(c), 2 - 2 * s
    # up to r1, u(c + z) + u(c - z) = 2 u0 cos(kf z); z = t^(1/p) there takes up z^(1-2s)
    inner = mp.quad(lambda t: 4 * u0 * mp.sin(kf * t ** (1 / p) / 2) ** 2 * t ** (-2 / p) / p,
                    [0, r1 ** p])
    ramp = mp.quad(lambda z: (2 * u0 - u(c + z) - u(c - z)) * z ** (-1 - 2 * s), [r1, r2])
    cns = s * 4 ** s * mp.gamma(s + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(1 - s))
    return cns * (inner + ramp + u0 * r2 ** (-2 * s) / s)


@pytest.mark.parametrize("s, kf", [(0.7, 1.0), (0.3, 4.0), (0.5, 2.0), (0.1, 8.0), (0.9, 1.0),
                                   (0.95, 28.0)])
def test_symbol_oracle_matches_mpmath(s, kf):
    # the symbol recipe's default first spacing; k h0 < pi up to k = 28
    h0 = 56 / 512
    center = round((math.pi / (2 * kf)) / h0) * h0
    with mp.workdps(30):
        exact = _windowed_sine_operator_mp(kf, center, s, 7.0, 16.0, 5)
        got = experiments._symbol_oracle(kf, center, s, FractionalParams(1, s).cns,
                                         (7.0, 16.0, 5), h0)
        assert abs(got - exact) <= 1e-9 * abs(exact)


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


def test_g_bound_rerun_into_same_directory_rewrites_csv(tmp_path):
    cfg = _cfg("""
[experiment]
name = g-bound
[grid]
n = 33, 65
""")
    run_experiment("g-bound", cfg, str(tmp_path))
    once = (tmp_path / "g_bound.csv").read_bytes()
    run_experiment("g-bound", cfg, str(tmp_path))
    assert (tmp_path / "g_bound.csv").read_bytes() == once


def test_cutoff_regularity_sweep_runs_besov_at_p_inf(tmp_path):
    cfg = _cfg("""
[experiment]
name = regularity-sweep
[grid]
n = 33
[probe]
method = besov
p = inf
sweep = 0.5, 1.5
""")
    summary = run_experiment("regularity-sweep", cfg, str(tmp_path))
    assert summary["mode"] == "cutoff"
    assert json.loads((tmp_path / "estimate.json").read_text())["p"] == math.inf


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


def test_contraction_norms_equal_per_datum_lp_norm_bit_for_bit(tmp_path):
    # the oracle: one lp_norm per datum and image, on the images of one batch
    cfg = _cfg("""
[experiment]
name = semigroup-contraction
seed = 3
[grid]
n = 129
[semigroup]
count = 20
""")
    summary = run_experiment("semigroup-contraction", cfg, str(tmp_path))
    with open(tmp_path / "contraction.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    grid = build_grid(1, ((-2.0, 2.0),), 129, Ball((0.0,), 1.0))
    params = FractionalParams(1, 0.5)
    rng = np.random.default_rng(3)
    data = [rng.standard_normal(grid.n_omega) for _ in range(20)]
    data = [np.abs(phi) if trial % 2 == 0 else phi for trial, phi in enumerate(data)]
    images = {t: semigroup_apply(data, t, 32, params, grid) for t in (0.1, 1.0)}
    expected, growths = [], []
    for trial, phi in enumerate(data):
        for t in (0.1, 1.0):
            for p in (1.0, 1.5, 2.0, 4.0, math.inf):
                before = lp_norm(extend_by_zero(phi, grid), p, "omega")
                after = lp_norm(extend_by_zero(images[t][trial], grid), p, "omega")
                growths.append(after - before)
                expected.append([str(trial), F17(t), "inf" if math.isinf(p) else F17(p),
                                 F17(before), F17(after), F17(after - before)])
    assert rows == expected
    assert summary["worst_growth"] == max(growths)


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


def test_elliptic_regularity_reads_probe_sweep_and_source(tmp_path):
    # the interior estimate is regularity-sweep's for the same s, n, region and source
    text = """
[experiment]
name = {}
[params]
s = 0.5
[grid]
n = 33
[probe]
sweep = 0.5, 0.9
[source]
profile = constant
"""
    run_experiment("elliptic-regularity", _cfg(text.format("elliptic-regularity")),
                   str(tmp_path / "er"))
    run_experiment("regularity-sweep", _cfg(text.format("regularity-sweep")),
                   str(tmp_path / "rs"))
    interior = json.loads((tmp_path / "er" / "estimate_s0.5_interior.json").read_text())
    boundary = json.loads((tmp_path / "er" / "estimate_s0.5_boundary.json").read_text())
    assert interior["sweep"] == boundary["sweep"] == [0.5, 0.9]
    assert interior == json.loads((tmp_path / "rs" / "estimate.json").read_text())


def test_elliptic_regularity_runs_besov_on_cutoff_regions(tmp_path):
    cfg = _cfg("""
[experiment]
name = elliptic-regularity
[params]
s = 0.5
[grid]
n = 33
[probe]
method = besov
[boundary]
kind = box
bounds = -0.7, -0.5
""")
    run_experiment("elliptic-regularity", cfg, str(tmp_path))
    for tag in ("interior", "boundary"):
        payload = json.loads((tmp_path / f"estimate_s0.5_{tag}.json").read_text())
        assert (payload["method"], payload["mode"]) == ("besov", "cutoff")


def test_probe_solves_each_level_once(tmp_path, monkeypatch):
    # both regions read one solve per level; each estimate is the one an unshared resolve gives
    cfg = _cfg("[experiment]\nname = elliptic-regularity\n[params]\ns = 0.3, 0.5\n"
               "[grid]\nn = 17\n")
    solved = []

    def counted(f, params, grid, matrix=None):
        solved.append((params.s, grid.n))
        return solve_dirichlet(f, params, grid, matrix)

    monkeypatch.setattr(experiments, "solve_dirichlet", counted)
    run_experiment("elliptic-regularity", cfg, str(tmp_path))
    assert sorted(solved) == [(s, n) for s in (0.3, 0.5) for n in (17, 33, 65)]
    grid = build_grid(1, ((-2.0, 2.0),), 17, Ball((0.0,), 1.0))
    for s in (0.3, 0.5):
        params = FractionalParams(1, s)

        def resolve(g):
            return solve_dirichlet(source_profile(cfg, g, "jump"), params, g)

        for tag, region in (("interior", Box((-0.4,), (0.4,))),
                            ("boundary", Box((0.5,), (1.5,)))):
            unshared = estimate_local_exponent(resolve, grid, 2.0, region).to_json() + "\n"
            assert (tmp_path / f"estimate_s{s:g}_{tag}.json").read_text() == unshared


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


@pytest.mark.parametrize("name, grid_n, builds", [
    ("boundary-profile", "65", 1),  # its default three s
    ("product-rule", "33, 65", 2),
])
def test_recipe_builds_each_grid_once(tmp_path, monkeypatch, name, grid_n, builds):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_grid(*args)

    monkeypatch.setattr(experiments, "build_grid", counted)
    run_experiment(name, _cfg(f"[experiment]\nname = {name}\n[grid]\nn = {grid_n}\n"),
                   str(tmp_path))
    assert len(calls) == builds


def test_time_recipes_on_one_grid_decompose_once_and_never_gather_the_matrix(
        tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    def gathered(self):
        raise AssertionError("the time layer gathered the dense matrix")

    real = operator._parity_eigh
    monkeypatch.setattr(operator, "_parity_eigh", counted)
    monkeypatch.setattr(operator.OperatorMatrix, "matrix", property(gathered))
    shared = "[params]\ns = 0.4567\n[grid]\nn = 41\n"  # a kernel no other test builds
    run_experiment("parabolic-energy", _cfg(
        "[experiment]\nname = parabolic-energy\n" + shared + "[time]\nnt = 8, 16\n"),
        str(tmp_path / "energy"))
    run_experiment("semigroup-contraction", _cfg(
        "[experiment]\nname = semigroup-contraction\n" + shared + "[semigroup]\ncount = 3\n"),
        str(tmp_path / "contraction"))
    assert len(calls) == 1


def test_experiment_product_rule_and_unknown(tmp_path):
    cfg = _cfg("""
[experiment]
name = product-rule
[params]
s = 0.5
[grid]
n = 65, 129
""")
    summary = run_experiment("product-rule", cfg, str(tmp_path))
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


# a small config per recipe, each key beside [experiment] name
SMALL = {
    "getoor": "[grid]\nn = 17, 33\n",
    "symbol": "[params]\ns = 0.5\n[symbol]\nk = 1\n[grid]\nn = 129, 257\n",
    "elliptic-regularity": "[params]\ns = 0.5\n[grid]\nn = 17\n",
    "parabolic-energy": "[grid]\nn = 17\n[time]\nnt = 4\n",
    "semigroup-contraction": "[grid]\nn = 17\n[semigroup]\ncount = 2\nnt = 4\n",
    "product-rule": "[params]\ns = 0.5\n[grid]\nn = 17, 33\n",
    "g-bound": "[grid]\nn = 33, 65\n",
    "regularity-sweep": "[grid]\nn = 17\n",
    "boundary-profile": "[params]\ns = 0.5\n[grid]\nn = 33\n",
}


def test_every_recipe_writes_one_table_format_and_one_json_format(tmp_path):
    assert set(SMALL) == set(experiments.RECIPES)
    for name, body in SMALL.items():
        out = tmp_path / name
        run_experiment(name, _cfg(f"[experiment]\nname = {name}\n" + body), str(out))
        written = sorted(out.iterdir())
        assert len(written) >= 2, name  # the manifest and at least one table or estimate
        for path in written:
            data = path.read_bytes()
            if path.suffix == ".json":
                with open(path) as fh:
                    canonical = json.dumps(json.load(fh), sort_keys=True, indent=1) + "\n"
                assert data.decode() == canonical, path
                continue
            assert path.suffix == ".csv", path
            # CRLF after every line and nowhere else; %.17g floats under the header
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path
            header, *lines = data.decode().split("\r\n")[:-1]
            assert lines, path
            for line in lines:
                fields = line.split(",")
                assert len(fields) == len(header.split(",")), path
                assert fields == [F17(float(v)) for v in fields], path


OFF_CENTRE = {  # each Omega the recipe's unit-ball defaults did not fit
    "product-rule": ("[grid]\nn = 33, 65\nbox = -2, 3\n", (0.5,), 1.0),
    "g-bound": ("[grid]\nn = 33, 65\n", (0.0,), 0.7),
    "elliptic-regularity": ("[params]\ns = 0.5\n[grid]\nn = 33\n", (0.0,), 0.5),
    "regularity-sweep": ("[grid]\nn = 33\n", (1.0,), 0.5),
}


@pytest.mark.parametrize("name", sorted(OFF_CENTRE))
def test_recipe_default_regions_follow_omega(tmp_path, capsys, name):
    from fraclab.cli import main

    body, center, radius = OFF_CENTRE[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nname = {name}\n{body}[omega]\nkind = ball\n"
                   f"center = {center[0]:g}\nradius = {radius:g}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0, \
        capsys.readouterr().err
    regions = json.loads((tmp_path / "out" / "manifest.json").read_text())["regions"]
    c, r = center[0], radius
    box = {"kind": "box", "lo": [c - 0.4 * r], "hi": [c + 0.4 * r]}
    expected = {
        "product-rule": {},
        "g-bound": {"eta_outer": Ball(center, 0.6 * r).describe(),
                    "omega2": Ball(center, 0.8 * r).describe()},
        "elliptic-regularity": {"interior": box, "boundary": {
            "kind": "box", "lo": [c + 0.5 * r], "hi": [c + 1.5 * r]}},
        "regularity-sweep": {"inner": box},
    }[name]
    assert {k: v for k, v in regions.items() if k != "omega"} == expected


def test_parabolic_energy_slack_defaults_to_the_ledgers_own(tmp_path):
    # theta = 1/2 at nt = 4, 8 on (0, 1): worst ratios 1.15 and 1.10, within
    # energy_report's max(0.05, 2 tau) = 0.5 and 0.25 but above 1.05
    body = "[grid]\nn = 17\n[time]\ntheta = 0.5\nnt = 4, 8\n"
    summary = run_experiment("parabolic-energy",
                             _cfg("[experiment]\nname = parabolic-energy\n" + body),
                             str(tmp_path / "unset"))
    ledgers = summary["ledgers"]
    assert [ledgers[nt]["slack"] for nt in (4, 8)] == [0.5, 0.25]
    assert not any(led["violation"] for led in ledgers.values())
    assert min(led["worst_ratio"] for led in ledgers.values()) > 1.05
    summary = run_experiment("parabolic-energy", _cfg(
        "[experiment]\nname = parabolic-energy\n" + body + "slack = 0.05\n"),
        str(tmp_path / "set"))
    assert all(led["violation"] and led["slack"] == 0.05
               for led in summary["ledgers"].values())
