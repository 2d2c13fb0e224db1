"""Command-line interface: subcommands, exit codes and output files."""

import json

import numpy as np
import pytest

from raycanopy.cli import main
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
    assert main(["simulate", "triangle-bias", str(tmp_path), "--trials", "1",
                 "--seed", "4"]) == 0
    table = np.genfromtxt(tmp_path / "triangle_bias.csv", delimiter=",",
                          skip_header=1)
    assert table.shape[0] == 7          # six configs plus the reference row
    assert np.isfinite(table[-1, 1:]).all()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_simulate_rejects_trials_below_one(tmp_path, capsys, trials):
    assert main(["simulate", "trawl-vs-spin", str(tmp_path / "out"), "--trials", trials]) == 1
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_error_surface_outputs(tmp_path):
    assert main(["simulate", "error-surface", str(tmp_path), "--trials", "40"]) == 0
    assert (tmp_path / "error_surface.csv").exists()
    assert (tmp_path / "error_surface.png").read_bytes().startswith(b"\x89PNG")


def test_simulate_rerun_byte_identical(tmp_path):
    for tag in ("a", "b"):
        (tmp_path / tag).mkdir()
        assert main(["simulate", "trawl-vs-spin", str(tmp_path / tag),
                     "--trials", "20", "--seed", "6"]) == 0
    assert (tmp_path / "a" / "trawl_vs_spin.csv").read_bytes() == \
        (tmp_path / "b" / "trawl_vs_spin.csv").read_bytes()


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


def test_direction_override(scan_file, tmp_path):
    out = tmp_path / "rows"
    assert main(["rows", str(scan_file), str(out), "--direction", "0,1"]) == 0
    assert len(list(out.glob("row[0-9][0-9].ply"))) >= 1
    assert not list(out.glob("*_voxels.csv"))   # stops after the rows stage
    assert json.loads((out / "rows.json").read_text())["direction"] == [0.0, 1.0]
