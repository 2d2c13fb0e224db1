"""Command-line interface: subcommands, exit codes and output files."""

import argparse
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from raycanopy import simulate as simulate_mod
from raycanopy.cli import _build_config, _parser, main
from raycanopy.pipeline import STAGE_NAMES, PipelineConfig
from raycanopy.raycloud import load_raycloud, save_raycloud
from raycanopy.synthetic import VineyardSpec, simulate_scan

from conftest import make_cloud


@pytest.fixture(scope="module")
def scan_file(tmp_path_factory):
    spec = VineyardSpec(row_length=10.0, max_range=12.0)
    cloud = simulate_scan(spec, spacing=0.1, rays_per_position=80, seed=2)
    path = tmp_path_factory.mktemp("scan") / "scan.ply"
    save_raycloud(cloud, path)
    return path


def test_ingest_roundtrip(tmp_path, capsys):
    cloud = make_cloud([[0, 0, 2]], [[1, 0, 0]])
    save_raycloud(cloud, tmp_path / "in.ply")
    assert main(["ingest", str(tmp_path / "in.ply"), str(tmp_path / "out.ply")]) == 0
    assert "1 rays" in capsys.readouterr().out
    assert len(load_raycloud(tmp_path / "out.ply")) == 1


def test_ingest_missing_file_fails(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.ply"), str(tmp_path / "o.ply")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "pipeline"])
def test_invalid_scan_fails_on_load(tmp_path, capsys, command):
    # a non-contact ray must run to max_range; this one stops short
    save_raycloud(make_cloud([[0, 0, 2]], [[1, 0, 0]], contact=[False]), tmp_path / "in.ply")
    assert main([command, str(tmp_path / "in.ply"), str(tmp_path / "out")]) == 1
    assert "non-contact ray 0 has length " in capsys.readouterr().err


def test_pipeline_two_row_vineyard(scan_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pipeline", str(scan_file), str(out)]) == 0
    densities = sorted(out.glob("row*_density.rcdf"))
    assert len(densities) == 2   # one per vine row
    assert len(sorted(out.glob("row*_series.csv"))) == 2


@pytest.mark.slow
def test_pipeline_rerun_byte_identical(scan_file, tmp_path):
    for tag in ("a", "b"):
        assert main(["pipeline", str(scan_file), str(tmp_path / tag)]) == 0
    names_a = {p.name for p in (tmp_path / "a").iterdir()} - {"timings.txt"}
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.slow
def test_stagewise_matches_pipeline(scan_file, tmp_path):
    whole, stages = tmp_path / "whole", tmp_path / "stages"
    assert main(["pipeline", str(scan_file), str(whole)]) == 0
    for stage in ("ground", "rows", "voxelize", "density", "integrate"):
        assert main([stage, str(scan_file), str(stages)]) == 0
    names = {p.name for p in whole.iterdir()} - {"timings.txt"}
    assert names == {p.name for p in stages.iterdir()} - {"timings.txt"}
    for name in names:
        assert (whole / name).read_bytes() == (stages / name).read_bytes(), name


def test_unknown_experiment_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "leaf-party", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_simulate_minimal_trials_writes_valid_csv(tmp_path):
    assert main(["simulate", "triangle-bias", str(tmp_path), "--trials", "2",
                 "--seed", "4"]) == 0
    table = np.genfromtxt(tmp_path / "triangle_bias.csv", delimiter=",",
                          skip_header=1)
    assert table.shape[0] == 7          # six configs plus the reference row
    assert np.isfinite(table[-1, 1:]).all()
    se = np.genfromtxt(tmp_path / "triangle_bias_se.csv", delimiter=",", skip_header=1)
    assert se.shape == (6, table.shape[1])   # no standard error for the reference row


def _fresh_process(code: str) -> str:
    """What `code` prints when run by a new interpreter on this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_leaves_monte_carlo_modules_unloaded():
    code = ("import sys, raycanopy.cli; "
            "print(sorted(m for m in ('raycanopy.simulate', 'raycanopy.synthetic') "
            "if m in sys.modules))")
    assert _fresh_process(code) == "[]"


def test_scipy_loads_only_when_the_ground_stage_runs(tmp_path):
    code = ("import sys, raycanopy.cli, raycanopy.pipeline, raycanopy.simulate, "
            "raycanopy.synthetic; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_process(code) == "[]"
    cloud = simulate_scan(VineyardSpec(row_length=6, max_range=6), spacing=0.2,
                          rays_per_position=30, seed=3)
    save_raycloud(cloud, tmp_path / "scan.ply")
    run = ("import sys; from raycanopy.pipeline import PipelineConfig, run_pipeline; "
           f"run_pipeline({str(tmp_path / 'scan.ply')!r}, {str(tmp_path / 'out')!r}, "
           "PipelineConfig(panel_length={})); print('scipy.spatial' in sys.modules)")
    assert _fresh_process(run.format(5.0)) == "True"    # the check sees a ground run
    assert _fresh_process(run.format(3.5)) == "False"   # ground cached: no Qhull


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_simulate_rejects_trials_below_one(tmp_path, capsys, trials):
    assert main(["simulate", "trawl-vs-spin", str(tmp_path / "out"), "--trials", trials]) == 1
    assert f"error: trials must be at least 2, got {trials}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_one_trial(tmp_path, capsys):
    # one trial has no standard error: the turbid tables' SD would divide by zero
    assert main(["simulate", "turbid-bias", str(tmp_path / "out"), "--trials", "1"]) == 1
    assert "error: trials must be at least 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_error_surface_outputs(tmp_path):
    assert main(["simulate", "error-surface", str(tmp_path), "--trials", "40"]) == 0
    assert (tmp_path / "error_surface.csv").exists()
    assert (tmp_path / "error_surface_se.csv").exists()
    assert (tmp_path / "error_surface.png").read_bytes().startswith(b"\x89PNG")


def _png_pixels(path) -> np.ndarray:
    """(H, W, 3) pixels of an 8-bit RGB PNG whose rows carry no filter."""
    data, pos, idat = path.read_bytes(), 8, b""
    while pos < len(data):
        length, tag = struct.unpack(">I4s", data[pos:pos + 8])
        if tag == b"IHDR":
            w, h = struct.unpack(">2I", data[pos + 8:pos + 16])
        elif tag == b"IDAT":
            idat += data[pos + 8:pos + 8 + length]
        pos += 12 + length
    rows = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, 1 + 3 * w)
    assert not rows[:, 0].any()
    return rows[:, 1:].reshape(h, w, 3)


def test_simulate_error_surface_draws_cells_without_error_black(tmp_path):
    # at 3 trials some cells draw no leaf area in any trial: their error is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "error-surface", str(tmp_path), "--trials", "3",
                     "--seed", "5"]) == 0
    missing = np.isnan(simulate_mod.debiased_error_surface(trials=3, seed=5)["error"])
    assert missing.any() and not missing.all()
    pixels = _png_pixels(tmp_path / "error_surface.png")
    black = ~pixels.any(axis=2)
    # render_colormap draws the second array axis top-down
    np.testing.assert_array_equal(black, missing.T[::-1])


def test_simulate_rerun_byte_identical(tmp_path):
    for tag in ("a", "b"):
        (tmp_path / tag).mkdir()
        assert main(["simulate", "trawl-vs-spin", str(tmp_path / tag),
                     "--trials", "20", "--seed", "6"]) == 0
    for name in ("trawl_vs_spin.csv", "trawl_vs_spin_se.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _library_standard_errors(experiment: str, **kw) -> dict:
    """Each table name of `raycanopy simulate EXPERIMENT` and the standard
    errors the library gives for it."""
    if experiment == "turbid-bias":
        lam, ns = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0], [2, 4, 8, 16, 32]
        return {f"turbid_{e}": simulate_mod.bias_curves(lam, ns, estimator=e, **kw)[1]
                for e in ("ml-mode", "debiased")}
    run, name = {"triangle-bias": (simulate_mod.triangle_bias_experiment, "triangle_bias"),
                 "error-surface": (simulate_mod.debiased_error_surface, "error_surface"),
                 "trawl-vs-spin": (simulate_mod.trawl_vs_spin, "trawl_vs_spin")}[experiment]
    return {name: run(**kw)["se"]}


@pytest.mark.parametrize("experiment", ["turbid-bias", "triangle-bias", "error-surface",
                                        "trawl-vs-spin"])
def test_simulate_writes_each_standard_error_table(tmp_path, experiment):
    # at 5 trials some error-surface cells have fewer than two trials with
    # leaves, so their standard errors are written as nan
    assert main(["simulate", experiment, str(tmp_path), "--trials", "5", "--seed", "5"]) == 0
    for name, se in _library_standard_errors(experiment, trials=5, seed=5).items():
        with open(tmp_path / f"{name}_se.csv") as f:
            head = f.readline()
            rows = [line.rstrip("\n").split(",")[1:] for line in f]
        with open(tmp_path / f"{name}.csv") as f:
            assert head == f.readline()
        assert rows == [[f"{v:.9g}" for v in row] for row in np.atleast_2d(se)]


def test_compare_reports_rrmse(tmp_path, capsys):
    for name, scale in (("a.csv", 1.0), ("b.csv", 1.02)):
        lines = ["y_m,density_m2_per_m"]
        lines += [f"{(i + 0.5) * 0.1:.3f},{scale * (2.0 + 0.1 * (i % 5)):.6f}"
                  for i in range(300)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--output", str(tmp_path / "cmp.csv"), "--panel-length", "7"]) == 0
    out = capsys.readouterr().out
    assert "panel RRMSE" in out
    assert (tmp_path / "cmp.csv").read_text().count("\n") >= 4


def _write_series(path, values, step=0.1) -> None:
    lines = [f"{(i + 0.5) * step:.3f},{v:.6f}" for i, v in enumerate(values)]
    path.write_text("y_m,density_m2_per_m\n" + "\n".join(lines) + "\n")


def test_compare_pairs_only_panels_of_the_same_extent(tmp_path, capsys):
    # agree on their first 12 m: 1 m^2/m for 10 m, then 3 m^2/m
    _write_series(tmp_path / "a.csv", [1.0] * 100 + [3.0] * 20)
    _write_series(tmp_path / "b.csv", [1.0] * 100 + [3.0] * 60)
    # 10 m panels: a has one merged 12 m panel, b a 10 m and a 6 m one
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--panel-length", "10"]) == 1
    assert ("error: no panels to compare: 0 panels paired, 2 skipped"
            in capsys.readouterr().err)
    # 4 m panels: a's three all meet b's first three; b's fourth has no partner
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--panel-length", "4", "--output", str(tmp_path / "cmp.csv")]) == 0
    assert "panel RRMSE 0.0000; 3 panels paired, 1 skipped" in capsys.readouterr().out
    assert [line.split(",")[0] for line in
            (tmp_path / "cmp.csv").read_text().splitlines()[1:-1]] == ["0", "1", "2"]


HEADER = "y_m,density_m2_per_m\n"


@pytest.mark.parametrize("body, fault", [
    (HEADER + "0.05,1\n0.15,abc\n", r"b\.csv:3: '0\.15,abc': expected two finite numbers"),
    (HEADER + "0.05,1\n0.15\n", r"b\.csv:3: '0\.15': expected two finite numbers"),
    (HEADER + "0.05,1\n0.15,1,2\n", r"b\.csv:3: '0\.15,1,2': expected two finite numbers"),
    (HEADER + "0.05,1\n0.15,inf\n", r"b\.csv:3: '0\.15,inf': expected two finite numbers"),
    (HEADER + "0.05,1\n0.15,-1\n", r"b\.csv:3: negative value -1"),
    (HEADER, r"b\.csv: a series needs at least two data lines, found 0"),
    (HEADER + "0.05,1\n", r"b\.csv: a series needs at least two data lines, found 1"),
    (HEADER + "0.15,1\n0.05,1\n", r"b\.csv:3: y does not increase"),
    (HEADER + "0.06,1\n0.18,1\n0.5,1\n0.62,1\n", r"b\.csv:4: y step 0\.32 differs from 0\.12"),
    ("0.05,1\n0.15,2\n0.25,3\n",
     r"b\.csv:1: '0\.05,1': expected the header 'y_m,density_m2_per_m'"),
], ids=["text", "one-field", "three-fields", "inf", "negative", "header-only",
        "one-row", "decreasing-y", "uneven-step", "no-header"])
def test_compare_rejects_bad_series(tmp_path, capsys, body, fault):
    (tmp_path / "a.csv").write_text(HEADER + "0.05,1\n0.15,2\n")
    (tmp_path / "b.csv").write_text(body)
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1
    assert re.search("error: .*" + fault, capsys.readouterr().err)


def test_every_config_field_set_by_its_flag():
    flags = {"voxel_width": "0.09", "n_min": "4", "g": "1.5", "curvature": "0.2",
             "bin_width": "0.3", "panel_length": "3.5", "row_spacing": "2.5",
             "max_density": "8", "estimator": "mode", "direction": "0,1"}
    argv = ["pipeline", "scan.ply", "out"]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), value]
    config = _build_config(_parser().parse_args(argv))
    assert config == PipelineConfig(voxel_width=0.09, n_min=4, g=1.5, curvature=0.2,
                                     bin_width=0.3, panel_length=3.5, row_spacing=2.5,
                                     max_density=8.0, estimator="mode",
                                     direction=(0.0, 1.0))
    for f in dataclasses.fields(PipelineConfig):
        assert getattr(config, f.name) != f.default, f.name
    expected = {"--config"} | {"--" + f.name.replace("_", "-")
                               for f in dataclasses.fields(PipelineConfig)}
    subcommands = next(a for a in _parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("pipeline", *STAGE_NAMES):
        options = {o for a in subcommands[command]._actions for o in a.option_strings}
        assert options - {"-h", "--help"} == expected, command


@pytest.mark.parametrize("flag, value, fault", [
    ("--voxel-width", "abc", "could not convert string to float"),
    ("--n-min", "2.5", "invalid literal for int"),
    ("--estimator", "median", "estimator must be 'mean' or 'mode'"),
])
def test_malformed_flag_value_exits_1(tmp_path, capsys, flag, value, fault):
    assert main(["rows", str(tmp_path / "scan.ply"), str(tmp_path / "out"), flag, value]) == 1
    assert f"error: {fault}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--voxel-width", "abc", "voxel_width"),
    ("--n-min", "2.5", "n_min"),
    ("--direction", "1,x", "direction"),
])
def test_malformed_flag_value_names_field(tmp_path, capsys, flag, value, field):
    assert main(["rows", str(tmp_path / "scan.ply"), str(tmp_path / "out"), flag, value]) == 1
    assert capsys.readouterr().err.rstrip().endswith(f" for {field}")


def test_direction_override(scan_file, tmp_path):
    out = tmp_path / "rows"
    assert main(["rows", str(scan_file), str(out), "--direction", "0,1"]) == 0
    assert not list(out.glob("*_voxels.rcvs"))   # stops after the rows stage
    assert not list(out.glob("row*.ply"))   # rows are frames on flattened.ply
    meta = json.loads((out / "rows.json").read_text())
    assert meta["direction"] == [0.0, 1.0]
    assert len(meta["rows"]) >= 1
    assert [m["index"] for m in meta["rows"]] == list(range(len(meta["rows"])))
    for m in meta["rows"]:
        assert set(m) == {"index", "interval", "fallback"}
        assert m["interval"][0] < m["interval"][1]
