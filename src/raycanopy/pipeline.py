"""End-to-end pipeline: ray cloud in, per-row density products out.

`STAGES` is the one table of stages: ground -> rows -> voxelize -> density ->
integrate. Each entry names the config fields the stage reads; each stage
reads its input back from the files of the stage before it. A stage's
outputs are cached under a hash of the input file, the package source and
the fields of that stage and every stage before it, so reruns skip unchanged
upstream stages. manifest.json vouches only for files that a finished stage
wrote: before a stage runs, its entry and every later one are removed from
it. A failed stage aborts with its name and removes its new partial outputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import density as density_mod
from . import ground as ground_mod
from . import report as report_mod
from . import rows as rows_mod
from . import voxels as voxels_mod
from .raycloud import RayCloud, load_raycloud, save_raycloud


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the pipeline; each is read by exactly one stage."""

    voxel_width: float = voxels_mod.DEFAULT_VOXEL_WIDTH
    n_min: int = voxels_mod.DEFAULT_N_MIN
    g: float = density_mod.DEFAULT_G
    curvature: float = ground_mod.DEFAULT_CURVATURE
    bin_width: float = rows_mod.DEFAULT_BIN_WIDTH
    panel_length: float = report_mod.DEFAULT_PANEL_LENGTH
    row_spacing: float | None = None
    max_density: float = report_mod.DEFAULT_MAX_DENSITY
    estimator: str = "mean"
    panel_mode: str = "mean"
    direction: tuple[float, float] | None = None   # fixed row direction override

    def __post_init__(self):
        optional = () if self.row_spacing is None else ("row_spacing",)
        for name in ("voxel_width", "g", "curvature", "bin_width",
                     "panel_length", "max_density") + optional:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, not {value!r}")
        if isinstance(self.n_min, bool) or not isinstance(self.n_min, (int, np.integer)):
            raise ValueError(f"n_min must be an integer, not {self.n_min!r}")
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.direction is not None:
            d = np.asarray(self.direction, dtype=float)
            if d.shape != (2,) or not np.all(np.isfinite(d)) or not np.any(d):
                raise ValueError(f"direction must be two finite numbers, not both zero: "
                                 f"{self.direction!r}")
        if self.estimator not in ("mean", "mode"):
            raise ValueError(f"estimator must be 'mean' or 'mode', not {self.estimator!r}")
        if self.panel_mode not in ("mean", "sum"):
            raise ValueError(f"panel_mode must be 'mean' or 'sum', not {self.panel_mode!r}")


def load_config(path) -> PipelineConfig:
    """Flat key=value config file; '#' comments and blank lines ignored.

    A bad line raises ValueError naming `file:line`.
    """
    config = PipelineConfig()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, raw = line.partition("=")
            try:
                if not eq:
                    raise ValueError("expected key=value")
                config = apply_overrides(config, {key.strip(): raw.strip()})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return config


def apply_overrides(config: PipelineConfig, values: dict) -> PipelineConfig:
    """`config` with `values` set; a value that fails to convert names its field."""
    fields = {"voxel_width": float, "n_min": int, "g": float, "curvature": float,
              "bin_width": float, "panel_length": float, "row_spacing": float,
              "max_density": float, "estimator": str, "panel_mode": str}
    kwargs = {}
    for key, raw in values.items():
        if key != "direction" and key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        try:
            if key == "direction":
                parts = raw.replace(",", " ").split() if isinstance(raw, str) else list(raw)
                if len(parts) != 2:
                    raise ValueError("expected two numbers dx,dy")
                kwargs["direction"] = (float(parts[0]), float(parts[1]))
            elif key == "n_min" and not isinstance(raw, str):
                kwargs[key] = raw   # PipelineConfig rejects a non-integral count
            else:
                kwargs[key] = fields[key](raw) if not isinstance(raw, fields[key]) else raw
        except ValueError as exc:
            raise ValueError(f"{exc} for {key}") from None
    return replace(config, **kwargs)


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode() if not isinstance(p, bytes) else p)
        h.update(b"\x1f")
    return h.hexdigest()[:16]


def _ground(scan: Path, out: Path, c: PipelineConfig) -> list[str]:
    """extract the ground mesh and flatten the cloud"""
    cloud = load_raycloud(scan)
    mesh = ground_mod.extract_ground(cloud, k=c.curvature)
    flat, dropped = ground_mod.subtract_ground(mesh, cloud)
    ground_mod.export_obj(mesh, out / "ground_mesh.obj")
    save_raycloud(flat, out / "flattened.ply")
    return ["ground_mesh.obj", "flattened.ply"]


def _load_ground(out: Path, outputs: list[str]) -> RayCloud:
    return load_raycloud(out / "flattened.ply")


def _rows(flat: RayCloud, out: Path, c: PipelineConfig) -> list[str]:
    """estimate the row direction and split the cloud into row bands"""
    if c.direction is not None:
        direction = np.asarray(c.direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
    else:
        traj = rows_mod.Trajectory.from_raycloud(flat)
        traj.validate()
        direction = rows_mod.row_direction(traj)
    segments = rows_mod.split_rows(flat, direction, bin_width=c.bin_width)
    meta = {"direction": [float(direction[0]), float(direction[1])], "rows": []}
    for seg in segments:
        name = f"row{seg.index:02d}.ply"
        save_raycloud(rows_mod.to_row_coordinates(seg), out / name)
        meta["rows"].append({"index": seg.index, "file": name,
                             "interval": [seg.lateral_interval[0],
                                          seg.lateral_interval[1]],
                             "fallback": seg.fallback})
    (out / "rows.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    return [m["file"] for m in meta["rows"]] + ["rows.json"]


def _load_rows(out: Path, outputs: list[str]) -> list[tuple[dict, RayCloud]]:
    rows = json.loads((out / "rows.json").read_text())["rows"]
    return [(m, load_raycloud(out / m["file"])) for m in rows]


def _voxelize(rows: list[tuple[dict, RayCloud]], out: Path, c: PipelineConfig) -> list[str]:
    """accumulate per-voxel ray statistics for each row"""
    outputs = []
    for meta, cloud in rows:
        lo, hi = meta["interval"]
        half = (hi - lo) / 2
        try:
            grid = voxels_mod.build_grid(cloud, voxel_width=c.voxel_width,
                                         row_index=meta["index"],
                                         lateral_bounds=(-half, half))
        except voxels_mod.VoxelGridError:
            continue   # band without canopy returns (lane or edge strip)
        name = f"row{grid.row_index:02d}_voxels.rcvs"
        voxels_mod.save_stats(voxels_mod.accumulate(cloud, grid), grid, out / name)
        outputs.append(name)
    if not outputs:
        raise voxels_mod.VoxelGridError("no row produced a voxel grid")
    return outputs


def _load_voxels(out: Path, outputs: list[str]) -> list[tuple]:
    return [voxels_mod.load_stats(out / name) for name in outputs]


def _density(voxels: list[tuple], out: Path, c: PipelineConfig) -> list[str]:
    """pool undersampled voxels, then estimate each row's density field"""
    outputs = []
    for stats, grid in voxels:
        full = voxels_mod.expand_undersampled(stats, grid, n_min=c.n_min)
        f = density_mod.estimate_field(full.dense, grid, g=c.g, estimator=c.estimator)
        name = f"row{grid.row_index:02d}_density.rcdf"
        density_mod.save_field(f, out / name)
        outputs.append(name)
    return outputs


def _load_fields(out: Path, outputs: list[str]) -> list[density_mod.DensityField]:
    return [density_mod.load_field(out / name) for name in outputs]


def _integrate(fields: list[density_mod.DensityField], out: Path,
               c: PipelineConfig) -> list[str]:
    """images, along-row series and panels from each density field"""
    outputs = []
    for f in fields:
        idx = f.grid.row_index
        tag = f"row{idx:02d}"
        image = report_mod.integrate_axis(f, "x")
        report_mod.render_colormap(image, c.max_density, out / f"{tag}_side.png")
        top = report_mod.integrate_axis(f, "z")
        report_mod.render_colormap(top, c.max_density, out / f"{tag}_top.png")
        series = report_mod.along_row_series(f)
        report_mod.export_series_csv(series, out / f"{tag}_series.csv")
        panels = report_mod.panel_aggregate(series, c.panel_length, mode=c.panel_mode)
        if c.row_spacing is not None:
            panels = report_mod.with_lai(panels, c.panel_length, c.row_spacing)
        report_mod.export_panels_csv(panels, out / f"{tag}_panels.csv", row_index=idx)
        outputs += [f"{tag}_side.png", f"{tag}_top.png",
                    f"{tag}_series.csv", f"{tag}_panels.csv"]
    return outputs


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `run(inputs, out_dir, config)` writes the stage's outputs and returns
    their file names. `inputs` is what the previous stage's
    `load(out_dir, names)` reads back from that stage's outputs, or the
    scan's path for the first stage.
    """

    name: str
    fields: tuple[str, ...]   # the PipelineConfig fields it reads
    run: Callable[[object, Path, PipelineConfig], list[str]]
    load: Callable[[Path, list[str]], object] | None


STAGES = (
    Stage("ground", ("curvature",), _ground, _load_ground),
    Stage("rows", ("bin_width", "direction"), _rows, _load_rows),
    Stage("voxelize", ("voxel_width",), _voxelize, _load_voxels),
    Stage("density", ("n_min", "g", "estimator"), _density, _load_fields),
    Stage("integrate", ("panel_length", "row_spacing", "panel_mode", "max_density"),
          _integrate, None),
)
STAGE_NAMES = tuple(s.name for s in STAGES)


def _source_digest() -> str:
    """Hash of the package's source files: any code change reruns every stage."""
    return _hash(*(p.read_bytes() for p in sorted(Path(__file__).parent.glob("*.py"))))


def _stage_keys(input_hash: str, config: PipelineConfig) -> list[str]:
    """Cache key of each stage: input, source and the fields read up to it."""
    keys, read, source = [], [], _source_digest()
    for stage in STAGES:
        read += [(name, getattr(config, name)) for name in stage.fields]
        keys.append(_hash(input_hash, source, stage.name, read))
    return keys


def run_pipeline(input_path, out_dir, config: PipelineConfig | None = None,
                 until: str = "integrate") -> dict:
    """Run the stages up to and including `until`; returns the manifest dict.

    Output files land in out_dir: ground mesh and flattened cloud, per-row
    clouds and density fields, integrated images, series and panel CSVs,
    manifest.json (deterministic) and timings.txt (wall-clock, separate so the
    manifest stays byte-identical across reruns). Each stage reads its input
    back from the previous stage's files, so a run that reuses cached stages,
    or runs them one at a time, writes the same bytes as a fresh run.
    """
    config = config or PipelineConfig()
    if until not in STAGE_NAMES:
        raise ValueError(f"unknown stage {until!r}; expected one of {STAGE_NAMES}")
    stages = STAGES[:STAGE_NAMES.index(until) + 1]
    input_path, out = Path(input_path), Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    previous = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    manifest = {"input": input_path.name, "config": asdict(config),
                "stages": previous.get("stages", {})}
    keys = _stage_keys(_hash(input_path.read_bytes()), config)

    def cached(stage: Stage, key: str) -> bool:
        entry = manifest["stages"].get(stage.name)
        return (entry is not None and entry["hash"] == key
                and all((out / name).exists() for name in entry["outputs"]))

    def save_manifest() -> None:
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

    first = next((i for i, s in enumerate(stages) if not cached(s, keys[i])), len(stages))
    timings = {s.name: 0.0 for s in stages[:first]}
    if first < len(stages):
        for stage in STAGES[first:]:
            manifest["stages"].pop(stage.name, None)
    save_manifest()
    for i in range(first, len(stages)):
        stage, before = stages[i], stages[i - 1] if i else None
        start = time.perf_counter()
        existing = {p.name for p in out.iterdir()}
        try:
            inputs = (before.load(out, manifest["stages"][before.name]["outputs"])
                      if before else input_path)
            outputs = stage.run(inputs, out, config)
        except Exception as exc:
            # drop new partial outputs; the manifest no longer vouches for
            # any file this stage may have overwritten
            for p in out.iterdir():
                if p.name not in existing:
                    p.unlink()
            raise PipelineError(stage.name, exc) from exc
        manifest["stages"][stage.name] = {"hash": keys[i], "outputs": sorted(outputs)}
        save_manifest()
        timings[stage.name] = time.perf_counter() - start
    (out / "timings.txt").write_text(
        "".join(f"{k}\t{v:.3f}s\n" for k, v in timings.items()))
    return manifest
