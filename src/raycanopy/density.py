"""Canopy density estimation from per-voxel ray statistics.

The interception model is censored-exponential. Under a flat prior, a
voxel's n entering rays, m contacts and summed penetration depths sum(x_i)
give a Gamma(m, sum(x_i)) posterior of interception density; the estimate is
its mean m / sum(x_i) (or its mode). The posterior's spread is not stored:
nothing reads it, and a Wald variance m / sum(x_i)^2 would call every m = 0
voxel certain. The debias factor (n-1)/n corrects the finite-sample,
bounded-voxel bias. The scale factor g (2 for a spherical leaf-angle
distribution) converts interception density to one-sided leaf area per cubic
metre. `estimate` is the one implementation: `estimate_field` applies it to
whole grids of n, m and sum_x, and `simulate` to its Monte Carlo trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voxels import VoxelGrid, VoxelStats, read_grid_file, write_grid_header

DEFAULT_G = 2.0
ESTIMATORS = ("mean", "mode")   # the Gamma posterior's mean or mode


class DensityError(ValueError):
    pass


@dataclass
class DensityField:
    """3D grid of canopy densities and observation flags."""

    grid: VoxelGrid
    density: np.ndarray    # dims, m^2/m^3
    observed: np.ndarray   # dims, bool

    def total_leaf_area(self) -> float:
        """One-sided leaf area summed over the grid, m^2."""
        return float(self.density.sum() * self.grid.voxel_width ** 3)


def estimate(n, m, sum_x, g: float = DEFAULT_G, estimator: str = "mean",
             debias: bool = True) -> np.ndarray:
    """Density of each voxel from its statistics.

    n, m and sum_x are arrays (or scalars) that broadcast together. Where
    m > 0 the density is g * ((n-1)/n) * m / sum(x_i). `estimator` selects
    the Gamma mean (default) or its mode max((m-1)/sum(x_i), 0) in place of
    m / sum(x_i); `debias=False` drops the (n-1)/n factor. Voxels with m = 0
    get 0.
    """
    if estimator not in ESTIMATORS:
        raise DensityError(f"unknown estimator {estimator!r}")
    n, m, sum_x = np.broadcast_arrays(n, m, sum_x)
    hit = m > 0
    impossible = hit & ~(sum_x > 0)
    if impossible.any():
        voxel = tuple(int(v) for v in np.argwhere(impossible)[0])
        raise DensityError(f"voxel {voxel}: contact with zero penetration is impossible")
    n, m, sum_x = n[hit], m[hit], sum_x[hit]
    lam = m / sum_x if estimator == "mean" else np.maximum((m - 1) / sum_x, 0.0)
    scale = g * ((n - 1) / n) if debias else g
    density = np.zeros(hit.shape)
    density[hit] = scale * lam
    return density


def estimate_field(stats: VoxelStats, grid: VoxelGrid, g: float = DEFAULT_G,
                   estimator: str = "mean") -> DensityField:
    """`estimate` of every voxel, from dense statistics (arrays of the grid's
    shape); a voxel is observed when n > 0."""
    return DensityField(grid=grid, density=estimate(stats.n, stats.m, stats.sum_x, g, estimator),
                        observed=stats.n > 0)


# ---------------------------------------------------------------------------
# Density field file format: the shared grid header (`voxels.write_grid_header`),
# then a row-major float32 density plane and a packed observed bitmask.

_MAGIC = b"RCDF\x02"


def save_field(f: DensityField, path) -> None:
    with open(path, "wb") as fh:
        write_grid_header(fh, _MAGIC, f.grid)
        fh.write(f.density.astype("<f4").tobytes())
        fh.write(np.packbits(f.observed.reshape(-1)).tobytes())


def load_field(path) -> DensityField:
    """Read a save_field file; each fault raises DensityError naming the file (and voxel)."""
    grid, body = read_grid_file(path, _MAGIC, "density field",
                                lambda count: 4 * count + (count + 7) // 8, DensityError)
    count, dims = grid.voxel_count, grid.dims
    density = np.frombuffer(body, dtype="<f4", count=count).astype(float).reshape(dims)
    bits = np.frombuffer(body, dtype=np.uint8, offset=4 * count)
    observed = np.unpackbits(bits, count=count).astype(bool).reshape(dims)
    bad = ~((density >= 0) & (density < np.inf)) | (~observed & (density != 0))
    if bad.any():
        v = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DensityError(f"{path}: voxel {v}: density={density[v]}, observed={observed[v]}: "
                           "needs a finite density >= 0, and 0 where unobserved")
    return DensityField(grid=grid, density=density, observed=observed)
