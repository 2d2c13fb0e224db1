"""Command-line interface for the canopy density toolkit.

Each pipeline stage is a subcommand, `raycanopy <stage> SCAN OUT_DIR`, that
runs the pipeline up to and including that stage; `pipeline` runs every
stage. `simulate` dispatches the Monte Carlo validation experiments;
`compare` reports repeatability between two runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import report as report_mod
from .pipeline import (STAGE_NAMES, STAGES, PipelineConfig, apply_overrides,
                       load_config, run_pipeline)
from .raycloud import load_raycloud, save_raycloud

EXPERIMENTS = ("turbid-bias", "triangle-bias", "error-surface", "trawl-vs-spin")
EXTENT_TOL = 1e-9   # m; `compare` pairs panels whose start and length agree to this


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for f in fields(PipelineConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       help=f"default: {f.default}")


def _build_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name) is not None}
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
    s.add_argument("--panel-length", type=float, default=report_mod.DEFAULT_PANEL_LENGTH)
    return p


def _cmd_ingest(args) -> int:
    cloud = load_raycloud(args.input)
    save_raycloud(cloud, args.output)
    print(f"{len(cloud)} rays ({int(cloud.contact.sum())} contacts) -> {args.output}")
    return 0


def _cmd_run(args) -> int:
    until = STAGE_NAMES[-1] if args.command == "pipeline" else args.command
    run_pipeline(args.input, args.output_dir, _build_config(args), until=until)
    print(f"stages up to {until} complete -> {args.output_dir}")
    return 0


def _write_table(path, col_names, row_names, table) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("," + ",".join(str(c) for c in col_names) + "\n")
        for name, row in zip(row_names, np.atleast_2d(table)):
            f.write(str(name) + "," + ",".join(f"{v:.9g}" for v in row) + "\n")


def _cmd_simulate(args) -> int:
    """Each experiment's error table, and its standard errors in *_se.csv."""
    from . import simulate as simulate_mod   # only this command loads the Monte Carlo suite

    kw = {"seed": args.seed}
    if args.trials is not None:   # otherwise each experiment's own default
        kw["trials"] = args.trials
    out = Path(args.output_dir)   # made by the first table written, after its experiment ran
    if args.experiment == "turbid-bias":
        lam = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0]
        ns = [2, 4, 8, 16, 32]
        for estimator in ("ml-mode", "debiased"):
            err, se = simulate_mod.bias_curves(lam, ns, estimator=estimator, **kw)
            _write_table(out / f"turbid_{estimator}.csv", ns, lam, err)
            _write_table(out / f"turbid_{estimator}_se.csv", ns, lam, se)
        print(f"turbid bias tables -> {out}")
    elif args.experiment == "triangle-bias":
        res = simulate_mod.triangle_bias_experiment(**kw)
        names = [f"l={l}_A={a}" for l, a in res["configs"]]
        table = np.vstack([res["error"], res["reference"]])
        _write_table(out / "triangle_bias.csv", res["n_values"], names + ["reference"], table)
        _write_table(out / "triangle_bias_se.csv", res["n_values"], names, res["se"])
        print(f"triangle bias table -> {out}")
    elif args.experiment == "error-surface":
        res = simulate_mod.debiased_error_surface(**kw)
        for name, table in (("error_surface", res["error"]), ("error_surface_se", res["se"])):
            _write_table(out / f"{name}.csv", np.round(res["a_values"], 4),
                         np.round(res["l_values"], 4), table)
        # a cell without leaf area has no error; it is drawn black
        finite = np.isfinite(res["error"])
        img = report_mod.DensityImage(values=np.where(finite, np.abs(res["error"]), 0.0),
                                      pixel_size=1.0, observed=finite)
        report_mod.render_colormap(img, 0.10, out / "error_surface.png")
        print(f"error surface -> {out}")
    else:
        res = simulate_mod.trawl_vs_spin(**kw)
        names = ["-".join(str(v) for v in s) for s in res["normal_specs"]]
        for name, table in (("trawl_vs_spin", res["error_percent"]),
                            ("trawl_vs_spin_se", res["se"])):
            _write_table(out / f"{name}.csv", res["distributions"], names, table)
        print(f"trawl vs spin table -> {out}")
    return 0


def _cmd_compare(args) -> int:
    a = report_mod.load_series_csv(args.series_a)
    b = report_mod.load_series_csv(args.series_b)
    pa = report_mod.panel_aggregate(a, args.panel_length)
    pb = report_mod.panel_aggregate(b, args.panel_length)
    # panel i pairs only when both cover the same stretch of row, so a short
    # series' merged tail panel is never compared with a full-length one
    paired = [i for i, (p, q) in enumerate(zip(pa, pb))
              if abs(p.start - q.start) <= EXTENT_TOL and abs(p.length - q.length) <= EXTENT_TOL]
    counts = (f"{len(paired)} panels paired, {max(len(pa), len(pb)) - len(paired)} skipped "
              f"(no panel of the same start and length in the other series)")
    if not paired:
        raise report_mod.ReportError(f"no panels to compare: {counts}")
    va = [pa[i].integrated_density for i in paired]
    vb = [pb[i].integrated_density for i in paired]
    value = report_mod.rrmse(va, vb)
    print(f"panel RRMSE {value:.4f}; {counts}")
    if args.output:
        report_mod.export_comparison_csv(paired, va, vb, args.output)
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
