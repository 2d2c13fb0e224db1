"""Canopy density estimation from per-voxel ray statistics.

The interception model is censored-exponential. Under a flat prior, a
voxel's n entering rays, m contacts and summed penetration depths sum(x_i)
give a Gamma distribution of leaf density, with mean m / sum(x_i) and
variance m / sum(x_i)^2. The debias factor (n-1)/n corrects the finite-sample,
bounded-voxel bias. The scale factor g (2 for a spherical leaf-angle
distribution) converts interception density to one-sided leaf area per cubic
metre. `estimate_field` applies this to whole grids of n, m and sum_x at once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .voxels import VoxelGrid, VoxelGridError, VoxelStats

DEFAULT_G = 2.0


class DensityError(ValueError):
    pass


def debias_factor(n: int) -> float:
    return (n - 1) / n if n > 0 else 0.0


@dataclass
class DensityField:
    """3D grid of canopy densities, variances and observation flags."""

    grid: VoxelGrid
    density: np.ndarray    # dims, m^2/m^3
    variance: np.ndarray   # dims, (m^2/m^3)^2
    observed: np.ndarray   # dims, bool
    g: float = DEFAULT_G

    def total_leaf_area(self) -> float:
        """One-sided leaf area summed over the grid, m^2."""
        return float(self.density.sum() * self.grid.voxel_width ** 3)


def estimate_field(stats: VoxelStats, grid: VoxelGrid, g: float = DEFAULT_G,
                   estimator: str = "mean") -> DensityField:
    """Debiased density and variance of every voxel, from dense statistics.

    `stats` holds arrays of the grid's shape. Where m > 0 the density is
    g * ((n-1)/n) * m / sum(x_i), and the variance is the Gamma variance
    m / sum(x_i)^2 times the square of the same scale factor. `estimator`
    selects the Gamma mean (default) or its mode max((m-1)/sum(x_i), 0)
    in place of m / sum(x_i). Voxels with m = 0 get 0 and 0; a voxel is
    observed when n > 0.
    """
    if estimator not in ("mean", "mode"):
        raise DensityError(f"unknown estimator {estimator!r}")
    n, m, sum_x = stats.n, stats.m, stats.sum_x
    hit = m > 0
    impossible = hit & ~(sum_x > 0)
    if impossible.any():
        voxel = tuple(int(v) for v in np.argwhere(impossible)[0])
        raise DensityError(f"voxel {voxel}: contact with zero penetration is impossible")
    n, m, sum_x = n[hit], m[hit], sum_x[hit]
    lam = m / sum_x if estimator == "mean" else np.maximum((m - 1) / sum_x, 0.0)
    scale = g * ((n - 1) / n)
    density = np.zeros(grid.dims)
    variance = np.zeros(grid.dims)
    density[hit] = scale * lam
    variance[hit] = scale ** 2 * (m / sum_x ** 2)
    return DensityField(grid=grid, density=density, variance=variance,
                        observed=stats.n > 0, g=g)


# ---------------------------------------------------------------------------
# Density field file format: fixed header, then row-major float32 density and
# variance planes and a packed observed bitmask.

_MAGIC = b"RCDF\x01"
_HEADER = struct.Struct("<3id3ddi")   # dims, voxel width, origin, g, row index


def save_field(f: DensityField, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(*f.grid.dims, f.grid.voxel_width, *f.grid.origin,
                              f.g, f.grid.row_index))
        fh.write(f.density.astype("<f4").tobytes())
        fh.write(f.variance.astype("<f4").tobytes())
        fh.write(np.packbits(f.observed.reshape(-1)).tobytes())


def load_field(path) -> DensityField:
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        raise DensityError(f"{path}: not a density field file")
    start = len(_MAGIC) + _HEADER.size
    if len(data) < start:
        raise DensityError(f"{path}: truncated header ({len(data)} bytes)")
    *dims, width, ox, oy, oz, g, row_index = _HEADER.unpack_from(data, len(_MAGIC))
    try:
        grid = VoxelGrid(origin=np.array([ox, oy, oz]), voxel_width=width,
                         dims=tuple(dims), row_index=row_index)
    except VoxelGridError as exc:
        raise DensityError(f"{path}: {exc}") from None
    if not (np.isfinite(g) and g > 0):
        raise DensityError(f"{path}: g {g!r} is not finite and positive")
    count = grid.voxel_count
    expected = start + 8 * count + (count + 7) // 8
    if len(data) != expected:
        raise DensityError(f"{path}: {len(data)} bytes where grid {tuple(dims)} "
                           f"needs {expected}: truncated or corrupt")
    planes = np.frombuffer(data, dtype="<f4", count=2 * count, offset=start)
    density = planes[:count].astype(float).reshape(dims)
    variance = planes[count:].astype(float).reshape(dims)
    bits = np.frombuffer(data, dtype=np.uint8, offset=start + 8 * count)
    observed = np.unpackbits(bits, count=count).astype(bool).reshape(dims)
    return DensityField(grid=grid, density=density, variance=variance,
                        observed=observed, g=g)
