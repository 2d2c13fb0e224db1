"""Spatial integration of density fields and derived agronomic summaries.

Turns per-voxel canopy densities into integrated images (m²/m²), along-row
series (m²/m), per-panel means (m²/m) with optional LAI, repeatability metrics
and colour-mapped rasters. It defines, writes and reads both tables of the
integrate stage: the series CSV and the panel CSV.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .density import DensityField

DEFAULT_PANEL_LENGTH = 7.0   # m, trellis post spacing
DEFAULT_MAX_DENSITY = 10.4   # m^2/m^2, colormap ceiling

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class DensityImage:
    """2D integrated canopy density, m^2/m^2."""

    values: np.ndarray
    pixel_size: float  # m
    observed: np.ndarray | None = None   # True where any voxel in the sum was observed

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ReportError("integrated densities cannot be negative")

    def total_leaf_area(self) -> float:
        """m^2; consistent with the source field by construction."""
        return float(self.values.sum() * self.pixel_size ** 2)


@dataclass(frozen=True)
class RowSeries:
    """Leaf area per metre along the row, m^2/m."""

    values: np.ndarray
    step: float        # m

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ReportError("series values cannot be negative")

    def total_leaf_area(self) -> float:
        return float(self.values.sum() * self.step)


@dataclass(frozen=True)
class PanelSummary:
    """Per-panel mean of the along-row series."""

    panel_index: int
    integrated_density: float   # m^2/m, mean leaf area per metre of row
    start: float                # m, from the series' first step
    length: float               # m
    lai: float | None = None    # set only when row spacing is configured


def integrate_axis(field: DensityField, axis: str) -> DensityImage:
    """Integrate the field over one axis: pixel = sum(rho_c * w), m^2/m^2."""
    if axis not in _AXIS_INDEX:
        raise ReportError(f"unknown axis {axis!r}")
    a = _AXIS_INDEX[axis]
    w = field.grid.voxel_width
    values = field.density.sum(axis=a) * w
    observed = field.observed.any(axis=a)
    return DensityImage(values=values, pixel_size=w, observed=observed)


def along_row_series(field: DensityField) -> RowSeries:
    """Integrate over both across-row axes: value = sum(rho_c * w^2), m^2/m."""
    w = field.grid.voxel_width
    values = field.density.sum(axis=(0, 2)) * w * w
    return RowSeries(values=values, step=w)


def panel_aggregate(series: RowSeries,
                    panel_length: float = DEFAULT_PANEL_LENGTH) -> list[PanelSummary]:
    """Mean of the series over consecutive panel windows from y = 0, m^2/m.

    A trailing partial panel is kept if at least half a panel long, otherwise
    merged into the previous one.
    """
    if not (np.isfinite(panel_length) and panel_length > 0):
        raise ReportError(f"panel_length must be positive and finite, not {panel_length!r}")
    per_panel = max(int(round(panel_length / series.step)), 1)
    count = len(series.values)
    if count == 0:
        return []
    starts = list(range(0, count, per_panel))
    # merge a short trailing window into its predecessor
    if len(starts) > 1 and count - starts[-1] < per_panel / 2:
        starts.pop()
    ends = starts[1:] + [count]
    return [PanelSummary(panel_index=idx, integrated_density=float(series.values[s:e].mean()),
                         start=s * series.step, length=(e - s) * series.step)
            for idx, (s, e) in enumerate(zip(starts, ends))]


def with_lai(panels: list[PanelSummary], row_spacing: float) -> list[PanelSummary]:
    """The panels with their leaf area index: each panel's leaf area over its
    own length x row spacing footprint, which is its mean over the spacing."""
    if not (np.isfinite(row_spacing) and row_spacing > 0):
        raise ReportError(f"row_spacing must be positive and finite, not {row_spacing!r}")
    return [replace(p, lai=p.integrated_density / row_spacing) for p in panels]


def rrmse(a, b) -> float:
    """Root mean square difference over the pooled mean of both samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ReportError("rrmse needs equal-length non-empty samples")
    pooled = np.concatenate([a, b]).mean()
    if pooled == 0:
        raise ReportError("rrmse undefined for zero pooled mean")
    return float(np.sqrt(np.mean((a - b) ** 2)) / pooled)


def trend_line(a, b) -> tuple[float, float]:
    """Least-squares slope and intercept of b against a.

    Degenerate (constant-a) input gets slope 0 through the mean, rather than a
    conditioning failure.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    var = float(np.var(a))
    if var < 1e-30:
        return 0.0, float(b.mean())
    slope = float(np.cov(a, b, bias=True)[0, 1] / var)
    return slope, float(b.mean() - slope * a.mean())


# ---------------------------------------------------------------------------
# rasters


def colormap_rgb(values: np.ndarray, max_value: float,
                 observed: np.ndarray | None = None) -> np.ndarray:
    """Linear red -> green -> blue gradient over [0, max_value], clamped above.

    Unobserved pixels are black. Returns (H, W, 3) uint8.
    """
    if not (np.isfinite(max_value) and max_value > 0):
        raise ReportError(f"max_value must be positive and finite, not {max_value!r}")
    t = np.clip(values / max_value, 0.0, 1.0)
    rgb = np.zeros(values.shape + (3,), dtype=float)
    lo = t <= 0.5
    s = np.where(lo, t * 2.0, (t - 0.5) * 2.0)
    rgb[..., 0] = np.where(lo, 1.0 - s, 0.0)
    rgb[..., 1] = np.where(lo, s, 1.0 - s)
    rgb[..., 2] = np.where(lo, 0.0, s)
    out = np.round(rgb * 255).astype(np.uint8)
    if observed is not None:
        out[~observed] = 0
    return out


def render_colormap(image: DensityImage, max_value: float = DEFAULT_MAX_DENSITY,
                    path=None) -> np.ndarray:
    """Colour-map the image; when a path is given, write it as PNG (its
    suffix must be .png, in either letter case)."""
    # image rows: second array axis rendered top-down
    rgb = colormap_rgb(image.values.T[::-1], max_value,
                       None if image.observed is None else image.observed.T[::-1])
    if path is not None:
        suffix = Path(path).suffix.lower()
        if suffix != ".png":
            raise ReportError(f"{path}: unknown image suffix {suffix!r}, expected .png")
        write_png(rgb, path)
    return rgb


def write_png(rgb: np.ndarray, path) -> None:
    """Minimal 8-bit RGB PNG encoder (zlib-compressed, no filtering)."""
    h, w = rgb.shape[:2]
    raw = b"".join(b"\x00" + np.ascontiguousarray(rgb[r]).tobytes() for r in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    header = struct.pack(">2I5B", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", header))
        f.write(chunk(b"IDAT", zlib.compress(raw, 9)))
        f.write(chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# CSV outputs


SERIES_HEADER = "y_m,density_m2_per_m"


def export_series_csv(series: RowSeries, path) -> None:
    with open(path, "w") as f:
        f.write(SERIES_HEADER + "\n")
        for i, v in enumerate(series.values):
            f.write(f"{(i + 0.5) * series.step:.6g},{v:.9g}\n")


def load_series_csv(path) -> RowSeries:
    """Read a series CSV: the header line, then one `y,value` line per step.

    A fault raises ReportError naming `file:line`, or the file for too few lines.
    """
    rows = []
    with open(path) as f:
        header = f.readline().strip()
        if header != SERIES_HEADER:
            raise ReportError(f"{path}:1: {header!r}: expected the header {SERIES_HEADER!r}")
        for ln, line in enumerate(f, 2):
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = []
            if len(row) != 2 or not np.all(np.isfinite(row)):
                raise ReportError(f"{path}:{ln}: {line.strip()!r}: expected two finite numbers")
            if row[1] < 0:
                raise ReportError(f"{path}:{ln}: negative value {row[1]:g}")
            rows.append(row)
    if len(rows) < 2:
        raise ReportError(f"{path}: a series needs at least two data lines, found {len(rows)}")
    data = np.array(rows)
    steps = np.diff(data[:, 0])
    step = float(steps[0])
    if not step > 0:
        raise ReportError(f"{path}:3: y does not increase from line 2")
    for ln, s in enumerate(steps[1:], 4):   # half a step: a line missing or repeated,
        if abs(s - step) > step / 2:         # not the writer's %.6g rounding
            raise ReportError(f"{path}:{ln}: y step {s:g} differs from {step:g}")
    return RowSeries(values=data[:, 1], step=step)


def export_panels_csv(panels: list[PanelSummary], path, row_index: int = 0) -> None:
    with open(path, "w") as f:
        f.write("row,panel,mean_density,lai\n")
        for p in panels:
            lai = f"{p.lai:.9g}" if p.lai is not None else ""
            f.write(f"{row_index},{p.panel_index},{p.integrated_density:.9g},{lai}\n")


def export_comparison_csv(ids, values_a, values_b, path) -> None:
    """Paired comparison table plus its least-squares trend line."""
    slope, intercept = trend_line(values_a, values_b)
    with open(path, "w") as f:
        f.write("id,value_a,value_b\n")
        for i, a, b in zip(ids, values_a, values_b):
            f.write(f"{i},{a:.9g},{b:.9g}\n")
        f.write(f"# trend slope={slope:.9g} intercept={intercept:.9g}\n")
