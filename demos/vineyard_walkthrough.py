"""End-to-end walkthrough: synthetic vineyard scan to per-panel leaf area.

Generates a two-row vineyard on undulating terrain, scans it with a simulated
spinning lidar, runs the full pipeline (ground extraction, row splitting,
voxelisation, density estimation, integration) and prints per-row, per-panel
summaries next to the generator's ground truth.

Run from the repository root:

    python3 demos/vineyard_walkthrough.py [output_dir]
"""

import json
import sys
import tempfile
from pathlib import Path

from raycanopy.density import load_field
from raycanopy.pipeline import PipelineConfig, run_pipeline
from raycanopy.raycloud import save_raycloud
from raycanopy.report import along_row_series, panel_aggregate, with_lai
from raycanopy.synthetic import VineyardSpec, simulate_scan


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)

    spec = VineyardSpec()
    row_spacing = spec.row_positions[1] - spec.row_positions[0]
    print(f"vineyard: {len(spec.row_positions)} rows x {spec.row_length} m, "
          f"canopy density {spec.density} m^2/m^3, "
          f"true total leaf area {spec.total_leaf_area():.1f} m^2")

    print("scanning (spinning lidar, boustrophedon drive, 5 cm spacing)...")
    cloud = simulate_scan(spec, spacing=0.05, rays_per_position=120, seed=7)
    scan_path = out / "scan.ply"
    save_raycloud(cloud, scan_path)
    print(f"  {len(cloud)} rays, {int(cloud.contact.sum())} contacts -> {scan_path}")

    print("running pipeline...")
    manifest = run_pipeline(scan_path, out, PipelineConfig())
    rows_meta = json.loads((out / "rows.json").read_text())
    print(f"  estimated row direction: ({rows_meta['direction'][0]:+.3f}, "
          f"{rows_meta['direction'][1]:+.3f})")
    print(f"  stages: {', '.join(manifest['stages'])}")

    total = 0.0
    for path in sorted(out.glob("row*_density.rcdf")):
        field = load_field(path)
        area = field.total_leaf_area()
        total += area
        series = along_row_series(field)
        panels = with_lai(panel_aggregate(series, 7.0), row_spacing)
        print(f"\n{path.stem}: {area:.1f} m^2 leaf area")
        for p in panels:
            print(f"  panel {p.panel_index}: {p.integrated_density:.2f} m^2/m "
                  f"over {p.length:.1f} m  (LAI {p.lai:.2f})")

    truth = spec.total_leaf_area()
    print(f"\nrecovered total leaf area: {total:.1f} m^2 "
          f"(truth {truth:.1f}, error {100 * (total - truth) / truth:+.1f}%)")
    print(f"outputs in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
