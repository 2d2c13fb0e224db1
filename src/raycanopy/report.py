"""Spatial integration of density fields and derived agronomic summaries.

Turns per-voxel canopy densities into integrated images (m²/m²), along-row
series (m²/m), per-panel aggregates with optional LAI, repeatability metrics
and colour-mapped rasters.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
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
    axis: str          # the axis integrated away
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
    """Per-panel aggregate of the along-row series."""

    panel_index: int
    integrated_density: float   # m^2/m (mean) or m^2 (sum), per aggregation mode
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
    return DensityImage(values=values, axis=axis, pixel_size=w, observed=observed)


def along_row_series(field: DensityField) -> RowSeries:
    """Integrate over both across-row axes: value = sum(rho_c * w^2), m^2/m."""
    w = field.grid.voxel_width
    values = field.density.sum(axis=(0, 2)) * w * w
    return RowSeries(values=values, step=w)


def panel_aggregate(series: RowSeries, panel_length: float = DEFAULT_PANEL_LENGTH,
                    mode: str = "mean") -> list[PanelSummary]:
    """Aggregate the series into consecutive panel windows from y = 0.

    A trailing partial panel is kept if at least half a panel long, otherwise
    merged into the previous one. `mode` selects the per-panel mean (m^2/m)
    or sum scaled by step (m^2).
    """
    if panel_length <= 0:
        raise ReportError("panel_length must be positive")
    if mode not in ("mean", "sum"):
        raise ReportError(f"unknown aggregation mode {mode!r}")
    per_panel = max(int(round(panel_length / series.step)), 1)
    count = len(series.values)
    if count == 0:
        return []
    starts = list(range(0, count, per_panel))
    # merge a short trailing window into its predecessor
    if len(starts) > 1 and count - starts[-1] < per_panel / 2:
        starts.pop()
    panels = []
    for idx, s in enumerate(starts):
        e = starts[idx + 1] if idx + 1 < len(starts) else count
        vals = series.values[s:e]
        length = (e - s) * series.step
        value = float(vals.mean()) if mode == "mean" else float(vals.sum() * series.step)
        panels.append(PanelSummary(panel_index=idx, integrated_density=value,
                                   length=length))
    return panels


def panel_lai(panel: PanelSummary, panel_length: float, row_spacing: float) -> float:
    """Leaf area index: panel leaf area over its ground footprint."""
    if panel_length <= 0 or row_spacing <= 0:
        raise ReportError("panel_length and row_spacing must be positive")
    leaf_area = panel.integrated_density * panel.length
    return leaf_area / (panel_length * row_spacing)


def with_lai(panels: list[PanelSummary], panel_length: float,
             row_spacing: float) -> list[PanelSummary]:
    return [PanelSummary(p.panel_index, p.integrated_density, p.length,
                         lai=panel_lai(p, panel_length, row_spacing)) for p in panels]


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
    if max_value <= 0:
        raise ReportError("max_value must be positive")
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


def export_series_csv(series: RowSeries, path) -> None:
    with open(path, "w") as f:
        f.write("y_m,density_m2_per_m\n")
        for i, v in enumerate(series.values):
            f.write(f"{(i + 0.5) * series.step:.6g},{v:.9g}\n")


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
