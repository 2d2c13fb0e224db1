"""Command-line interface for the canopy density toolkit.

Each pipeline stage is a subcommand, `raycanopy <stage> SCAN OUT_DIR`, that
runs the pipeline up to and including that stage; `pipeline` runs every
stage. `simulate` dispatches the Monte Carlo validation experiments;
`compare` reports repeatability between two runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import report as report_mod
from . import simulate as simulate_mod
from .pipeline import (STAGE_NAMES, STAGES, PipelineConfig, apply_overrides,
                       load_config, run_pipeline)
from .raycloud import load_raycloud, save_raycloud

EXPERIMENTS = ("turbid-bias", "triangle-bias", "error-surface", "trawl-vs-spin")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--voxel-width", type=float)
    p.add_argument("--n-min", type=int)
    p.add_argument("--g", type=float)
    p.add_argument("--curvature", type=float)
    p.add_argument("--bin-width", type=float)
    p.add_argument("--panel-length", type=float)
    p.add_argument("--row-spacing", type=float)
    p.add_argument("--max-density", type=float)
    p.add_argument("--estimator", choices=("mean", "mode"))
    p.add_argument("--sum", action="store_true",
                   help="aggregate panels by sum instead of mean")
    p.add_argument("--direction", help="fixed row direction as dx,dy")


def _build_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    for key in ("voxel_width", "n_min", "g", "curvature", "bin_width",
                "panel_length", "row_spacing", "max_density", "estimator",
                "direction"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "sum", False):
        overrides["panel_mode"] = "sum"
    return apply_overrides(config, overrides)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="raycanopy",
                                description="Canopy density estimation from lidar ray clouds")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ingest", help="validate and normalise a ray cloud file")
    s.add_argument("input")
    s.add_argument("output")

    runs = {st.name: f"{st.run.__doc__}, after the stages before it" for st in STAGES}
    runs["pipeline"] = "run every stage end to end"
    for name, text in runs.items():
        s = sub.add_parser(name, help=text)
        s.add_argument("input", help="ray cloud of the scan")
        s.add_argument("output_dir")
        _add_config_flags(s)

    s = sub.add_parser("simulate", help="Monte Carlo validation experiments")
    s.add_argument("experiment", choices=EXPERIMENTS)
    s.add_argument("output_dir")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int)

    s = sub.add_parser("compare", help="repeatability metrics between two runs")
    s.add_argument("series_a", help="along-row series CSV")
    s.add_argument("series_b")
    s.add_argument("--output", help="comparison CSV path")
    s.add_argument("--panel-length", type=float, default=7.0)
    return p


def _load_series_csv(path) -> report_mod.RowSeries:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    step = data[1, 0] - data[0, 0] if len(data) > 1 else 1.0
    return report_mod.RowSeries(values=data[:, 1], step=float(step))


def _cmd_ingest(args) -> int:
    cloud = load_raycloud(args.input)
    cloud.validate()
    save_raycloud(cloud, args.output)
    print(f"{len(cloud)} rays ({int(cloud.contact.sum())} contacts) -> {args.output}")
    return 0


def _cmd_run(args) -> int:
    until = STAGE_NAMES[-1] if args.command == "pipeline" else args.command
    run_pipeline(args.input, args.output_dir, _build_config(args), until=until)
    print(f"stages up to {until} complete -> {args.output_dir}")
    return 0


def _write_table(path, col_names, row_names, table) -> None:
    with open(path, "w") as f:
        f.write("," + ",".join(str(c) for c in col_names) + "\n")
        for name, row in zip(row_names, np.atleast_2d(table)):
            f.write(str(name) + "," + ",".join(f"{v:.9g}" for v in row) + "\n")


def _cmd_simulate(args) -> int:
    kw = {"seed": args.seed}
    if args.trials is not None:   # otherwise each experiment's own default
        if args.trials < 1:
            raise simulate_mod.SimulationError("--trials must be at least 1")
        kw["trials"] = args.trials
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.experiment == "turbid-bias":
        lam = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0]
        ns = [2, 4, 8, 16, 32]
        for estimator in ("ml-mode", "debiased"):
            err, _ = simulate_mod.bias_curves(lam, ns, estimator=estimator, **kw)
            _write_table(out / f"turbid_{estimator}.csv", ns, lam, err)
        print(f"turbid bias tables -> {out}")
    elif args.experiment == "triangle-bias":
        res = simulate_mod.triangle_bias_experiment(**kw)
        names = [f"l={l}_A={a}" for l, a in res["configs"]] + ["reference"]
        table = np.vstack([res["error"], res["reference"]])
        _write_table(out / "triangle_bias.csv", res["n_values"], names, table)
        print(f"triangle bias table -> {out}")
    elif args.experiment == "error-surface":
        res = simulate_mod.debiased_error_surface(**kw)
        _write_table(out / "error_surface.csv", np.round(res["a_values"], 4),
                     np.round(res["l_values"], 4), res["error"])
        img = report_mod.DensityImage(values=np.abs(res["error"]), axis="z",
                                      pixel_size=1.0)
        report_mod.render_colormap(img, 0.10, out / "error_surface.png")
        print(f"error surface -> {out}")
    else:
        res = simulate_mod.trawl_vs_spin(**kw)
        names = ["-".join(str(v) for v in s) for s in res["normal_specs"]]
        _write_table(out / "trawl_vs_spin.csv", res["distributions"], names,
                     res["error_percent"])
        print(f"trawl vs spin table -> {out}")
    return 0


def _cmd_compare(args) -> int:
    a = _load_series_csv(args.series_a)
    b = _load_series_csv(args.series_b)
    pa = report_mod.panel_aggregate(a, args.panel_length)
    pb = report_mod.panel_aggregate(b, args.panel_length)
    count = min(len(pa), len(pb))
    va = [p.integrated_density for p in pa[:count]]
    vb = [p.integrated_density for p in pb[:count]]
    value = report_mod.rrmse(va, vb)
    print(f"panel RRMSE over {count} panels: {value:.4f}")
    if args.output:
        report_mod.export_comparison_csv(range(count), va, vb, args.output)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"ingest": _cmd_ingest, "pipeline": _cmd_run,
                "simulate": _cmd_simulate, "compare": _cmd_compare,
                **{name: _cmd_run for name in STAGE_NAMES}}
    try:
        return handlers[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
