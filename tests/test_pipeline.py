"""End-to-end pipeline: staging, caching, determinism and failure handling."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from raycanopy import density, pipeline
from raycanopy.pipeline import (STAGES, PipelineConfig, PipelineError, apply_overrides,
                                load_config, run_pipeline)
from raycanopy.raycloud import save_raycloud
from raycanopy.synthetic import VineyardSpec, simulate_scan
from raycanopy.voxels import VoxelStats

from conftest import make_cloud


@pytest.fixture(scope="module")
def scan_file(tmp_path_factory):
    spec = VineyardSpec(row_length=10.0, max_range=12.0)
    cloud = simulate_scan(spec, spacing=0.08, rays_per_position=80, seed=5)
    path = tmp_path_factory.mktemp("scan") / "scan.ply"
    save_raycloud(cloud, path)
    return spec, path


def _output_bytes(out_dir, skip=("timings.txt",)):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name not in skip}


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig()

    def test_overrides(self):
        c = apply_overrides(PipelineConfig(), {"voxel_width": "0.1", "n_min": "5",
                                               "direction": "0,1"})
        assert c.voxel_width == 0.1 and c.n_min == 5
        assert c.direction == (0.0, 1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(PipelineConfig(), {"voxel_size": "0.1"})

    def test_file_round_trip(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            "voxel_width=0.15\nrow_spacing=2.5\ndirection=1,0\npanel_mode=sum\n")
        assert load_config(tmp_path / "c.cfg") == PipelineConfig(
            voxel_width=0.15, row_spacing=2.5, direction=(1.0, 0.0), panel_mode="sum")

    @pytest.mark.parametrize("line, fault", [
        ("voxel_width 0.2", "expected key=value"),
        ("voxel_width=abc", "could not convert string to float: 'abc'"),
        ("bogus=1", "unknown config key 'bogus'"),
        ("n_min=2.5", "invalid literal for int"),
        ("voxel_width=-1", "voxel_width must be positive"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, fault):
        (tmp_path / "c.cfg").write_text("# comment\ng=2.5\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"c\.cfg:3: {fault}"):
            load_config(tmp_path / "c.cfg")

    @pytest.mark.parametrize("line, field", [
        ("voxel_width=abc", "voxel_width"),
        ("n_min=2.5", "n_min"),
        ("direction=1,x", "direction"),
        ("direction=1", "direction"),
    ])
    def test_bad_value_names_field(self, tmp_path, line, field):
        (tmp_path / "c.cfg").write_text(line + "\n")
        with pytest.raises(ValueError, match=rf"c\.cfg:1: .+ for {field}$"):
            load_config(tmp_path / "c.cfg")

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "c.cfg").write_text("# comment\n\nvoxel_width=0.2  # inline\n")
        assert load_config(tmp_path / "c.cfg").voxel_width == 0.2

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(voxel_width=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(n_min=0)
        with pytest.raises(ValueError, match="estimator"):
            PipelineConfig(estimator="bogus")
        with pytest.raises(ValueError, match="panel_mode"):
            PipelineConfig(panel_mode="median")

    @pytest.mark.parametrize("field", ["voxel_width", "panel_length", "row_spacing"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("direction", [(0.0, 0.0), (float("nan"), 1.0),
                                           (1.0, float("inf")), (1.0, 0.0, 0.0)])
    def test_degenerate_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="direction must be two finite numbers"):
            PipelineConfig(direction=direction)

    def test_tuple_direction_override(self):
        c = apply_overrides(PipelineConfig(), {"direction": (1.0, 0.0)})
        assert c.direction == (1.0, 0.0)

    @pytest.mark.parametrize("n_min", [2.7, "2.7", True], ids=["float", "str", "bool"])
    def test_non_integral_n_min_rejected(self, n_min):
        with pytest.raises(ValueError):
            apply_overrides(PipelineConfig(), {"n_min": n_min})
        if not isinstance(n_min, str):
            with pytest.raises(ValueError, match="n_min must be an integer"):
                PipelineConfig(n_min=n_min)

    def test_every_field_read_by_one_stage(self):
        read = [name for stage in STAGES for name in stage.fields]
        assert sorted(read) == sorted(f.name for f in dataclasses.fields(PipelineConfig))


class TestRunPipeline:
    def test_full_run_produces_row_products(self, scan_file, tmp_path):
        spec, path = scan_file
        manifest = run_pipeline(path, tmp_path / "out", PipelineConfig())
        assert set(manifest["stages"]) == {"ground", "rows", "voxelize",
                                           "density", "integrate"}
        out = tmp_path / "out"
        assert (out / "ground_mesh.obj").exists()
        assert (out / "flattened.ply").exists()
        assert (out / "rows.json").exists()
        rows = json.loads((out / "rows.json").read_text())
        # two vine rows between three drive lanes
        canopy_rows = [m["index"] for m in rows["rows"]
                       if (out / f"row{m['index']:02d}_density.rcdf").exists()]
        assert len(canopy_rows) == 2
        for idx in canopy_rows:
            for suffix in ("_side.png", "_top.png", "_series.csv", "_panels.csv"):
                assert (out / f"row{idx:02d}{suffix}").exists()
        assert (out / "manifest.json").exists()
        assert (out / "timings.txt").exists()

    def test_row_direction_recovered(self, scan_file, tmp_path):
        spec, path = scan_file
        run_pipeline(path, tmp_path / "out", PipelineConfig())
        rows = json.loads((tmp_path / "out" / "rows.json").read_text())
        d = np.asarray(rows["direction"])
        assert abs(abs(d @ np.array([0.0, 1.0])) - 1.0) < 5e-3   # rows run along y

    def test_products_match_recorded_digest(self, tmp_path):
        # the density files, series and panels of a small scan, pinned across
        # commits; a change that moves products on purpose records the new value
        cloud = simulate_scan(VineyardSpec(row_length=6, max_range=6), spacing=0.2,
                              rays_per_position=30, seed=3)
        out = tmp_path / "out"
        save_raycloud(cloud, tmp_path / "scan.ply")
        run_pipeline(tmp_path / "scan.ply", out)
        products = [*out.glob("row*_density.rcdf"), *out.glob("row*_series.csv"),
                    *out.glob("row*_panels.csv")]
        digest = hashlib.sha256()
        for path in sorted(products):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == \
            "ceb4e24f9190f44cff9bd61a7a7a73e24ded53b28f7175a1975a58feba548110"

    @pytest.mark.slow
    def test_reruns_byte_identical(self, scan_file, tmp_path):
        _, path = scan_file
        config = PipelineConfig()
        run_pipeline(path, tmp_path / "a", config)
        run_pipeline(path, tmp_path / "b", config)
        a = _output_bytes(tmp_path / "a")
        b = _output_bytes(tmp_path / "b")
        assert set(a) == set(b)
        for name in a:
            assert a[name] == b[name], f"{name} differs between reruns"

    def test_cached_rerun_skips_stages(self, scan_file, tmp_path):
        _, path = scan_file
        out = tmp_path / "out"
        run_pipeline(path, out, PipelineConfig())
        before = _output_bytes(out)
        run_pipeline(path, out, PipelineConfig())
        timings = (out / "timings.txt").read_text()
        assert all(line.endswith("0.000s") for line in timings.splitlines())
        assert _output_bytes(out) == before

    def test_config_change_invalidates_downstream(self, scan_file, tmp_path):
        _, path = scan_file
        out = tmp_path / "out"
        run_pipeline(path, out, PipelineConfig())
        run_pipeline(path, out, PipelineConfig(g=1.5))
        timings = dict(line.split("\t") for line in
                       (out / "timings.txt").read_text().splitlines())
        assert timings["ground"] == "0.000s"      # unchanged upstream: cached
        assert timings["rows"] == "0.000s"
        assert timings["voxelize"] == "0.000s"
        assert timings["density"] != "0.000s"     # g feeds the estimator

    def test_n_min_change_reruns_only_density_and_integrate(self, scan_file, tmp_path):
        # voxelize stores the raw statistics; pooling runs in the density stage
        _, path = scan_file
        out, config = tmp_path / "out", PipelineConfig(n_min=4)
        run_pipeline(path, out, PipelineConfig())
        run_pipeline(path, out, config)
        timings = dict(line.split("\t") for line in
                       (out / "timings.txt").read_text().splitlines())
        assert [timings[s] for s in ("ground", "rows", "voxelize")] == ["0.000s"] * 3
        assert timings["density"] != "0.000s" and timings["integrate"] != "0.000s"
        run_pipeline(path, tmp_path / "fresh", config)
        products = sorted(p.name for p in out.iterdir() if p.suffix in (".rcdf", ".csv"))
        assert len(products) == 6
        for name in products:
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_source_change_reruns_every_stage(self, scan_file, tmp_path, monkeypatch):
        _, path = scan_file
        out = tmp_path / "out"
        run_pipeline(path, out, PipelineConfig())
        monkeypatch.setattr(pipeline, "_source_digest", lambda: "edited")
        run_pipeline(path, out, PipelineConfig())
        timings = dict(line.split("\t") for line in
                       (out / "timings.txt").read_text().splitlines())
        assert list(timings) == [s.name for s in STAGES]
        assert "0.000s" not in timings.values()

    def test_directory_of_older_code_reruns_voxelize(self, scan_file, tmp_path, monkeypatch):
        # as an older package left it: voxelize's manifest entry names a CSV
        _, path = scan_file
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_source_digest", lambda: "older")
            run_pipeline(path, out, PipelineConfig(), until="voxelize")
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["stages"]["voxelize"]["outputs"]:
            (out / name).unlink()
        (out / "row01_voxels.csv").write_text("# grid 0 0 0.3 0.12 2 2 2 1\n"
                                              "row,i,j,k,n,m,sum_x,sum_y\n")
        manifest["stages"]["voxelize"]["outputs"] = ["row01_voxels.csv"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        manifest = run_pipeline(path, out, PipelineConfig())
        assert manifest["stages"]["voxelize"]["outputs"] == sorted(
            p.name for p in out.glob("row*_voxels.rcvs"))
        assert list(out.glob("row*_density.rcdf"))

    @pytest.mark.slow
    def test_failed_run_leaves_no_stale_cache(self, scan_file, tmp_path, monkeypatch):
        _, path = scan_file
        out = tmp_path / "out"
        run_pipeline(path, out, PipelineConfig())

        def fail(*args, **kwargs):
            raise density.DensityError("estimator failed")

        # the failed run overwrites row*_voxels.rcvs with a 0.2 m grid
        with monkeypatch.context() as m:
            m.setattr(density, "estimate_field", fail)
            with pytest.raises(PipelineError) as err:
                run_pipeline(path, out, PipelineConfig(voxel_width=0.2))
        assert err.value.stage == "density"
        run_pipeline(path, out, PipelineConfig(g=1.0))
        run_pipeline(path, tmp_path / "fresh", PipelineConfig(g=1.0))
        fields = sorted(p.name for p in out.glob("row*_density.rcdf"))
        assert fields
        for name in fields:
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_partial_run_stops_after_stage(self, scan_file, tmp_path):
        _, path = scan_file
        out = tmp_path / "out"
        manifest = run_pipeline(path, out, PipelineConfig(), until="rows")
        assert set(manifest["stages"]) == {"ground", "rows"}
        assert not list(out.glob("row*_voxels.rcvs"))
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(path, out, PipelineConfig(), until="voxels")

    def test_failed_stage_cleans_partial_outputs(self, tmp_path):
        # three contact endpoints: ground extraction cannot build a hull
        cloud = make_cloud([[0, 0, 2], [1, 0, 2], [0, 1, 2]],
                           [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        save_raycloud(cloud, tmp_path / "tiny.ply")
        out = tmp_path / "out"
        with pytest.raises(PipelineError) as err:
            run_pipeline(tmp_path / "tiny.ply", out, PipelineConfig())
        assert err.value.stage == "ground"
        assert not (out / "ground_mesh.obj").exists()
        assert not (out / "flattened.ply").exists()

    def test_run_builds_no_per_voxel_stats(self, scan_file, tmp_path, monkeypatch):
        # voxel statistics stay grid-shaped arrays from the walk to the .rcvs
        # file; a scalar VoxelStats is built only when a voxel is looked up
        init = VoxelStats.__init__
        scalar = []

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            scalar.append(np.ndim(self.n) == 0)

        monkeypatch.setattr(VoxelStats, "__init__", counting_init)
        run_pipeline(scan_file[1], tmp_path / "out")
        assert scalar, "the run built no VoxelStats at all"
        assert sum(scalar) == 0

    def test_manifest_records_config(self, scan_file, tmp_path):
        _, path = scan_file
        manifest = run_pipeline(path, tmp_path / "out",
                                PipelineConfig(voxel_width=0.15))
        assert manifest["config"]["voxel_width"] == 0.15
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk == manifest
