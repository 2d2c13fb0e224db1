"""The benchmark's tracer finds every function it wraps, by the names it uses,
and reads every count from a traced pipeline run.

`perfbench/spans.py` looks each traced function up by module and attribute
name, binds the arguments its count hooks read by parameter name, and reads
the hooked functions' return values and the run's `timings.txt`; a rename
or a new return type in the package would otherwise show only in a traced
benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

from raycanopy import pipeline
from raycanopy.raycloud import load_raycloud, save_raycloud
from raycanopy.synthetic import VineyardSpec, simulate_scan
from raycanopy.voxels import accumulate, load_stats

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing, unbound = [], []
    for module, attr, _metric, hook in _spans().TARGETS:
        obj = importlib.import_module(f"raycanopy.{module}")
        try:
            for part in attr.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        if hook is not None:
            params = inspect.signature(obj).parameters
            read = re.findall(r'\ba\["(\w+)"\]', inspect.getsource(hook))
            unbound += [f"{module}.{attr}({name})" for name in read if name not in params]
    assert not missing, f"TARGETS name functions the package lacks: {missing}"
    assert not unbound, f"count hooks read parameters the functions lack: {unbound}"


def _bindings(targets) -> dict:
    """Every name a traced function is held under: loaded package modules'
    globals, and the class attributes that TARGETS names."""
    held = {(name, key): value for name, module in list(sys.modules.items())
            if name == "raycanopy" or name.startswith("raycanopy.")
            for key, value in vars(module).items()}
    for module, attr, _metric, _hook in targets:
        if "." in attr:
            cls_name, key = attr.split(".")
            cls = getattr(importlib.import_module(f"raycanopy.{module}"), cls_name)
            held[(cls_name, key)] = cls.__dict__[key]
    return held


def test_traced_pipeline_run_reads_every_count(tmp_path):
    spans = _spans()
    cloud = simulate_scan(VineyardSpec(row_length=6, max_range=6), spacing=0.2,
                          rays_per_position=30, seed=3)
    save_raycloud(cloud, tmp_path / "scan.ply")
    before = _bindings(spans.TARGETS)
    tracer = spans.Tracer()
    tracer.begin("run")
    tracer.install()
    try:
        # by module attribute, where the tracer put its wrapper, as the benchmark calls it
        pipeline.run_pipeline(tmp_path / "scan.ply", tmp_path / "out")
    finally:
        tracer.uninstall()
    metrics = tracer.run_metrics("run")

    for name in ("raycloud.rays", "ground.triangles", "rows.trajectory_positions",
                 "rows.count", "voxels.voxels", "voxels.crossed", "voxels.crossings"):
        assert metrics[name] > 0, name
    assert metrics["voxels.crossed"] <= metrics["voxels.voxels"]
    for name in spans.STAGE_METRICS:   # read from the run's timings file
        assert metrics[name] > 0, name
    layers = ("raycloud.", "ground.", "rows.", "voxels.", "density.", "report.")
    for name in spans.TIME_METRICS:   # each pipeline layer's calls reached its wrapper
        if name.startswith(layers):
            assert metrics[name] > 0, name
    after = _bindings(spans.TARGETS)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []

    # the expansion hook counts, by object identity, the voxels that keep
    # their own statistics: those with n >= n_min before expansion
    n_min = pipeline.PipelineConfig().n_min
    own = 0
    for path in sorted((tmp_path / "out").glob("row*_voxels.rcvs")):
        _, grid = load_stats(path)
        stats = accumulate(load_raycloud(tmp_path / "out" / f"row{grid.row_index:02d}.ply"), grid)
        own += sum(s.n >= n_min for s in stats.values())
    assert own > 0
    assert tracer.run_counts["run"]["_voxels.observed"] == own
