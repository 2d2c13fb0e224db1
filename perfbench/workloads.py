"""The benchmark's workloads: their inputs, the measured work and its checks.

Every workload derives its inputs from the seed alone. The pipeline
workload runs on one synthetic vineyard scan, made by `prepare_inputs` in a
set-up process of its own, so the generator's memory never counts against
the measuring process.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from raycanopy import density, pipeline, raycloud, simulate, synthetic

# Two 6 m rows seen from three lanes: about 9.1k rays, 4.2k of them contacts.
SPEC = synthetic.VineyardSpec(row_length=6.0, max_range=6.0)
SPACING = 0.1
RAYS_PER_POSITION = 40

SWEEP_FINE = pipeline.PipelineConfig(voxel_width=0.09)
SWEEP_PANELS = replace(SWEEP_FINE, panel_length=3.5)

# acceptance-6 limits on a pipeline run
DIRECTION_TOL = 5e-3
LEAF_AREA_TOL = 0.10

TURBID_LAMBDAS = (0.1, 0.2, 0.5, 1.0, 2.0, 3.0)
TURBID_NS = (2, 4, 8, 16, 32)
TURBID_TRIALS = 20_000
TRIANGLE_TRIALS = 150
SURFACE_N, SURFACE_TRIALS = 20, 80
TRAWL_N, TRAWL_TRIALS = 50, 150


class CheckFailed(RuntimeError):
    pass


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def make_scan(seed: int):
    return synthetic.simulate_scan(SPEC, spacing=SPACING,
                                   rays_per_position=RAYS_PER_POSITION, seed=seed)


def prepare_inputs(workload: str, seed: int, out: Path) -> dict:
    """Set-up work of one run: the input scan of `scan-and-sweep`."""
    out.mkdir(parents=True)
    if workload == "validation":
        return {"rays": 0}   # its inputs are the seed and the constants above
    cloud = make_scan(seed)
    scan = out / "scan.ply"
    raycloud.save_raycloud(cloud, scan)
    return {"rays": len(cloud), "sha256": hashlib.sha256(scan.read_bytes()).hexdigest()}


def check_products(out: Path) -> tuple[str, float]:
    """Acceptance-6 checks on a pipeline output directory.

    Returns the sha256 of the series, panel and density files, and the
    relative error of their total leaf area against the generator's truth.
    """
    manifest = json.loads((out / "manifest.json").read_text())
    missing = [name for stage in manifest["stages"].values()
               for name in stage["outputs"] if not (out / name).is_file()]
    fields = sorted(out.glob("row*_density.rcdf"))
    products = []
    for field in fields:
        tag = field.name[:len("row00")]
        for path in (out / f"{tag}_series.csv", out / f"{tag}_panels.csv", field):
            if path.is_file():
                products.append(path)
            else:
                missing.append(path.name)
    if missing or not fields:
        raise CheckFailed(f"missing products: {missing or 'no density field'}")
    d = json.loads((out / "rows.json").read_text())["direction"]
    if not abs(abs(d[1]) - 1.0) < DIRECTION_TOL:
        raise CheckFailed(f"row direction {d} is not the generator's +y axis")
    truth = SPEC.total_leaf_area()
    total = sum(density.load_field(f).total_leaf_area() for f in fields)
    rel_err = abs(total - truth) / truth
    if not rel_err < LEAF_AREA_TOL:
        raise CheckFailed(f"leaf area {total:.3f} m^2 is {rel_err:.1%} off {truth:.3f}")
    return _sha256_files(products), rel_err


class ScanAndSweep:
    """A grower's run from scan file to panel CSVs, then an analyst's reruns.

    The grower runs the default pipeline into an empty directory. The analyst
    copies that warm directory and reruns it twice: on a finer grid, which
    reruns voxelize, density and integrate from the cached row clouds, then
    with new panels, which reruns only integrate after reading every cached
    product back.
    """

    def __init__(self, setup: Path, info: dict, seed: int):
        self.scan = setup / "scan.ply"
        self.rays = info["rays"]

    def run(self, out: Path):
        grower, analyst = out / "grower", out / "analyst"
        pipeline.run_pipeline(self.scan, grower)
        shutil.copytree(grower, analyst)
        pipeline.run_pipeline(self.scan, analyst, SWEEP_FINE)
        pipeline.run_pipeline(self.scan, analyst, SWEEP_PANELS)

    def check(self, out: Path, result) -> tuple[str, int, float]:
        checked = [check_products(out / name) for name in ("grower", "analyst")]
        digest = hashlib.sha256("".join(d for d, _ in checked).encode()).hexdigest()
        return digest, self.rays, max(rel_err for _, rel_err in checked)


class Validation:
    """The Monte Carlo suite at reduced trials, plus one generated scan."""

    def __init__(self, setup: Path, info: dict, seed: int):
        self.seed = seed

    def run(self, out: Path) -> dict:
        s = self.seed
        turbid = simulate.bias_curves(TURBID_LAMBDAS, TURBID_NS, TURBID_TRIALS,
                                      "debiased", seed=s)
        return {
            "turbid": turbid,
            "triangle": simulate.triangle_bias_experiment(trials=TRIANGLE_TRIALS, seed=s),
            "surface": simulate.debiased_error_surface(n=SURFACE_N, trials=SURFACE_TRIALS,
                                                       seed=s),
            "trawl": simulate.trawl_vs_spin(n=TRAWL_N, trials=TRAWL_TRIALS, seed=s),
            "scan": make_scan(s),
        }

    def check(self, out: Path, result: dict) -> tuple[str, int, float | None]:
        tri, surf, trawl, scan = (result[k] for k in ("triangle", "surface", "trawl", "scan"))
        tables = {"turbid.error": result["turbid"][0], "turbid.se": result["turbid"][1],
                  "triangle.error": tri["error"], "triangle.reference": tri["reference"],
                  "surface.error": surf["error"], "trawl.error_percent": trawl["error_percent"]}
        for name, table in tables.items():
            if not np.all(np.isfinite(table)):
                raise CheckFailed(f"{name} has non-finite cells")
        if len(scan) == 0:
            raise CheckFailed("generated scan is empty")
        h = hashlib.sha256()
        for array in [*tables.values(), scan.origins, scan.endpoints, scan.times, scan.contact]:
            h.update(np.ascontiguousarray(array).tobytes())
        rays = (len(tri["configs"]) * sum(tri["n_values"]) * TRIANGLE_TRIALS
                + surf["error"].size * SURFACE_N * SURFACE_TRIALS
                + trawl["error_percent"].size * TRAWL_N * TRAWL_TRIALS
                + len(scan))
        return h.hexdigest(), rays, None


WORKLOADS = {"scan-and-sweep": ScanAndSweep, "validation": Validation}
