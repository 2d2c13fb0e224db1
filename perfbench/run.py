"""End-to-end and per-layer benchmark of raycanopy.

    python3 perfbench/run.py --workload scan-and-sweep --seed 9 --seconds 55 --trace 0

Run from the root of a checkout: the benchmark imports the package from
its `src/` and exits with code 2 when there is none. Per run it

1. times `prepare.py` three times in a process of its own (`setup_s` is the
   median) and checks the input scan's sha256 against `inputs.json`;
2. runs one untimed warm-up iteration, then iterations for `--seconds`;
3. checks the output of every iteration and counts failures;
4. prints a table of every metric with its unit and sample count, then, as
   the last line, one JSON object with the end-to-end metrics (`--trace 0`)
   or the per-layer metrics (`--trace 1`).

With `--trace 1` the measured iterations alternate between untraced and
traced; the traced ones run with `spans.Tracer` installed, give the layer
metrics (medians over traced iterations) and `tracing.overhead_s`, and their
spans are written to `.perfbench/traces/`.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_SAMPLES = 3
SETUP_TIMEOUT_S = 120
PINNED_ENV = {"RAYCANOPY_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_s": "s", "rays_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupFailed(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-and-sweep", "validation"))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_setups(args, work: Path) -> tuple[list[float], list[dict]]:
    """Time the set-up process SETUP_REPEATS times, each into its own directory."""
    env = dict(os.environ, **PINNED_ENV)
    times, infos = [], []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(work / f"setup{k}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        infos.append(json.loads(proc.stdout.splitlines()[-1]))
    return times, infos


def input_status(args, infos: list[dict]) -> tuple[bool, str]:
    """Whether the set-ups agree with each other and with the recorded digest."""
    digests = {info.get("sha256") for info in infos}
    if len(digests) > 1:
        return False, "set-up processes disagree: " + ", ".join(sorted(digests))
    digest = digests.pop()
    if digest is None:
        return True, "no input file"
    recorded = json.loads((HERE / "inputs.json").read_text())["sha256"].get(str(args.seed))
    if recorded is None:
        return True, f"{digest} (seed not recorded in inputs.json)"
    if recorded != digest:
        return False, f"{digest} differs from the recorded {recorded}"
    return True, f"{digest} (matches inputs.json)"


def measure(args, work: Path) -> int:
    setup_times, infos = run_setups(args, work)
    inputs_ok, inputs_note = input_status(args, infos)

    import raycanopy
    if Path(raycanopy.__file__).resolve().parent != SRC / "raycanopy":
        print(f"perfbench: imported raycanopy from {raycanopy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](work / "setup0", infos[0], args.seed)
    tracer = spans.Tracer() if args.trace else None
    reference = {}
    samples = []

    def iteration(index: int, traced: bool) -> dict:
        out = work / f"iter{index}"
        begin = time.perf_counter()
        gc.collect()
        run_id = f"{args.workload}/seed{args.seed}/iter{index}"
        if traced:
            tracer.begin(run_id)
            tracer.install()
        sample = {"traced": traced, "ok": False}
        start = time.perf_counter()
        try:
            result = workload.run(out)
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        finally:
            sample["wall"] = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        if not raised:
            try:
                digest, rays, rel_err = workload.check(out, result)
                reference.setdefault("digest", digest)
                if digest != reference["digest"]:
                    raise workloads.CheckFailed(
                        f"outputs {digest} differ from the first iteration's "
                        f"{reference['digest']}")
                sample.update(ok=True, digest=digest, rays=rays, rel_err=rel_err)
            except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                print(f"perfbench: iteration {index} failed its check: {exc}",
                      file=sys.stderr)
        if traced:
            sample["layers"] = tracer.run_metrics(run_id)
        shutil.rmtree(out, ignore_errors=True)
        sample["cost"] = time.perf_counter() - begin
        return sample

    warm_up = iteration(0, traced=False)
    begin = time.perf_counter()
    while True:
        index = len(samples) + 1
        samples.append(iteration(index, traced=bool(args.trace) and index % 2 == 0))
        untraced = [s for s in samples if not s["traced"]]
        traced = [s for s in samples if s["traced"]]
        enough = len(untraced) >= MIN_SAMPLES and (not args.trace or len(traced) >= MIN_SAMPLES)
        elapsed = time.perf_counter() - begin
        if enough and elapsed + samples[-1]["cost"] > args.seconds:
            break

    attempted = 1 + len(samples)
    failed = sum(not s["ok"] for s in [warm_up, *samples])
    untraced = [s for s in samples if not s["traced"]]
    wall_s = statistics.median(s["wall"] for s in untraced)
    ok_samples = [s for s in [warm_up, *samples] if s["ok"]]
    rays = ok_samples[0]["rays"] if ok_samples else infos[0]["rays"]
    rows = {  # name -> (value, unit, sample count)
        "wall_s": (wall_s, "s", len(untraced)),
        "rays_per_s": (rays / wall_s, "1/s", len(untraced)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "failed_frac": (failed / attempted, "1", attempted),
    }
    rel_errs = [s["rel_err"] for s in ok_samples if s["rel_err"] is not None]
    if rel_errs:
        rows["leaf_area_rel_err"] = (statistics.median(rel_errs), "1", len(rel_errs))
    metrics = {name: {"value": rows[name][0], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}

    if args.trace:
        traced = [s for s in samples if s["traced"]]
        for name in traced[0]["layers"]:
            value = statistics.median(s["layers"][name] for s in traced)
            unit = "s" if name.endswith("_s") else ("1" if name.endswith("_ratio") else "count")
            rows[name] = (value, unit, len(traced))
        overhead = statistics.median(s["wall"] for s in traced) - wall_s
        rows["tracing.overhead_s"] = (overhead, "s", len(traced))
        metrics = {name: {"value": rows[name][0], "unit": rows[name][1]}
                   for name in [*traced[0]["layers"], "tracing.overhead_s"]}
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")

    digests = sorted({s["digest"] for s in ok_samples})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(samples)} measured iterations after one warm-up")
    print(f"input sha256: {inputs_note}")
    print(f"output sha256: {', '.join(digests) or 'none'}")
    print("wall_s samples: " + " ".join(f"{s['wall']:.3f}" for s in untraced))
    print(f"{'metric':32} {'value':>16} {'unit':6} samples")
    for name, (value, unit, count) in rows.items():
        print(f"{name:32} {value:16.6g} {unit:6} {count}")
    print(json.dumps({"correct": failed == 0 and inputs_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "raycanopy" / "__init__.py").is_file():
        print(f"perfbench: no raycanopy package under {SRC}; "
              "run from the root of a raycanopy checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return measure(args, work)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
