"""Per-layer spans around raycanopy's public functions, installed from outside.

`Tracer.install()` replaces every function named in TARGETS with a wrapper,
on each loaded `raycanopy` module (or class) that holds it, so by-name
imports such as `raycanopy.pipeline.load_raycloud` are wrapped where their
caller looks them up. `uninstall()` puts the originals back. No file of the
package is edited.

Each call becomes a span: name, start, end, parent span and run id. Spans
stay in memory until `dump()` writes them out. A layer metric is the sum of
its spans' self times (duration minus the time covered by child spans);
counts are read from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _load(c, a, cloud):
    c["raycloud.rays"] += len(cloud)
    c["raycloud.contacts"] += int(cloud.contact.sum())


def _extract(c, a, mesh):
    c["ground.triangles"] += len(mesh.triangles)


def _subtract(c, a, result):
    flat, dropped = result
    c["ground.rays_dropped"] += dropped
    c["_ground.kept"] += len(flat)
    c["_ground.input"] += len(a["cloud"])


def _trajectory(c, a, traj):
    c["rows.trajectory_positions"] += len(traj.positions)
    c["_rows.trajectory_input"] += len(a["cloud"])


def _split(c, a, segments):
    c["rows.count"] += len(segments)
    c["rows.fallback"] += int(any(s.fallback for s in segments))


def _grid(c, a, grid):
    c["voxels.voxels"] += grid.voxel_count


def _accumulate(c, a, stats):
    c["voxels.crossed"] += len(stats)
    c["voxels.crossings"] += sum(s.n for s in stats.values())


def _expand(c, a, full):
    own = a["stats"]
    observed = sum(1 for key, s in full.items() if s is own.get(key))
    unobserved = sum(1 for s in full.values() if s.n == 0)
    c["_voxels.observed"] += observed
    c["_voxels.expanded_total"] += len(full)
    c["voxels.expanded"] += len(full) - observed - unobserved
    c["voxels.unobserved"] += unobserved


def _pipeline(c, a, manifest):
    timings = Path(a["out_dir"]) / "timings.txt"
    for line in timings.read_text().splitlines():
        stage, seconds = line.split("\t")
        c[f"pipeline.{stage}_s"] += float(seconds.rstrip("s"))


# (module, attribute or Class.attribute, metric, count hook)
TARGETS = [
    ("raycloud", "load_raycloud", "raycloud.load_s", _load),
    ("raycloud", "save_raycloud", "raycloud.save_s", None),
    ("raycloud", "RayCloud.validate", "raycloud.validate_s", None),
    ("ground", "extract_ground", "ground.extract_s", _extract),
    ("ground", "subtract_ground", "ground.subtract_s", _subtract),
    ("ground", "export_obj", "ground.export_obj_s", None),
    ("rows", "Trajectory.from_raycloud", "rows.trajectory_s", _trajectory),
    ("rows", "Trajectory.validate", "rows.trajectory_s", None),
    ("rows", "row_direction", "rows.direction_s", None),
    ("rows", "split_rows", "rows.split_s", _split),
    ("rows", "to_row_coordinates", "rows.to_row_s", None),
    ("voxels", "build_grid", "voxels.grid_s", _grid),
    ("voxels", "accumulate", "voxels.accumulate_s", _accumulate),
    ("voxels", "expand_undersampled", "voxels.expand_s", _expand),
    ("voxels", "dump_stats_csv", "voxels.dump_csv_s", None),
    ("voxels", "load_stats_csv", "voxels.load_csv_s", None),
    ("density", "estimate_field", "density.estimate_s", None),
    ("density", "save_field", "density.save_s", None),
    ("density", "load_field", "density.load_s", None),
    ("report", "integrate_axis", "report.integrate_s", None),
    ("report", "along_row_series", "report.integrate_s", None),
    ("report", "panel_aggregate", "report.integrate_s", None),
    ("report", "with_lai", "report.integrate_s", None),
    ("report", "render_colormap", "report.render_s", None),
    ("report", "export_series_csv", "report.csv_s", None),
    ("report", "export_panels_csv", "report.csv_s", None),
    ("pipeline", "run_pipeline", "pipeline.self_s", _pipeline),
    ("synthetic", "simulate_scan", "synthetic.simulate_scan_s", None),
    ("simulate", "bias_curves", "simulate.turbid_s", None),
    ("simulate", "sample_turbid", "simulate.turbid_s", None),
    ("simulate", "triangle_bias_experiment", "simulate.triangle_bias_s", None),
    ("simulate", "debiased_error_surface", "simulate.error_surface_s", None),
    ("simulate", "trawl_vs_spin", "simulate.trawl_vs_spin_s", None),
    ("simulate", "clipped_area", "simulate.clipped_area_s", None),
]

TIME_METRICS = list(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
STAGE_METRICS = [f"pipeline.{s}_s" for s in
                 ("ground", "rows", "voxelize", "density", "integrate")]
COUNT_METRICS = [
    "raycloud.rays", "raycloud.contacts",
    "ground.triangles", "ground.rays_dropped", "ground.kept_ratio",
    "rows.trajectory_positions", "rows.trajectory_ratio", "rows.count", "rows.fallback",
    "voxels.voxels", "voxels.crossed", "voxels.crossings", "voxels.expanded",
    "voxels.unobserved", "voxels.observed_ratio",
]
# the spans of count hooks; subtracted from their parents, reported nowhere
HOOK_SPAN = "tracing.hooks"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class Tracer:
    """Spans and counts of raycanopy calls, grouped by the run id given to begin()."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = None
        self.run_counts: dict[str, dict[str, float]] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        # a worker thread's first span belongs to the main thread's open call
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "run": self.run_id, "start": time.perf_counter(), "end": None}
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, metric: str, hook):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook_span = self._open(HOOK_SPAN)
                try:
                    with self._lock:
                        hook(self.counts, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self._close(hook_span)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _replace(self, owner, name: str, new) -> None:
        self._installed.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items()
                  if n == "raycanopy" or n.startswith("raycanopy.")]
        for module_name, attr, metric, hook in TARGETS:
            module = sys.modules[f"raycanopy.{module_name}"]
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    self._replace(cls, name, classmethod(self._wrap(raw.__func__, metric, hook)))
                else:
                    self._replace(cls, name, self._wrap(raw, metric, hook))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, metric, hook)
            for holder in loaded:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, name, traced)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def run_metrics(self, run_id) -> dict[str, float]:
        """Layer self times and counts of one run (one benchmark iteration)."""
        spans = [s for s in self.spans if s["run"] == run_id]
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append((s["start"], s["end"]))
        out = {name: 0.0 for name in TIME_METRICS + STAGE_METRICS + COUNT_METRICS}
        for s in spans:
            if s["name"] == HOOK_SPAN:
                continue
            self_time = (s["end"] - s["start"]) - _covered(children[s["id"]])
            out[s["name"]] += self_time
        counts = self.run_counts.get(run_id, {})
        for name, value in counts.items():
            if not name.startswith("_"):
                out[name] = value
        out["ground.kept_ratio"] = _ratio(counts.get("_ground.kept", 0),
                                          counts.get("_ground.input", 0))
        out["rows.trajectory_ratio"] = _ratio(counts.get("rows.trajectory_positions", 0),
                                              counts.get("_rows.trajectory_input", 0))
        out["voxels.observed_ratio"] = _ratio(counts.get("_voxels.observed", 0),
                                              counts.get("_voxels.expanded_total", 0))
        return out

    def begin(self, run_id) -> None:
        self.run_id = run_id
        self.counts = self.run_counts[run_id] = defaultdict(float)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))
