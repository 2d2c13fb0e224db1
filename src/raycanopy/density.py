"""Canopy density estimation from per-voxel ray statistics.

The interception model is censored-exponential: hit count m over total
penetration depth sum(x_i) gives the Gamma-posterior leaf density, and the
debias factor (n-1)/n corrects the finite-sample, bounded-voxel bias. The
scale factor g (2 for a spherical leaf-angle distribution) converts
interception density to one-sided leaf area per cubic metre.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .voxels import VoxelGrid, VoxelStats

DEFAULT_G = 2.0


class DensityError(ValueError):
    pass


@dataclass(frozen=True)
class GammaPosterior:
    """Conjugate Gamma posterior over leaf density lambda."""

    alpha: float   # shape
    beta: float    # rate, metres

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DensityError("Gamma parameters must be non-negative")


def posterior(stats: VoxelStats, prior_alpha: float = 0.0,
              prior_beta: float = 0.0) -> GammaPosterior:
    """Conjugate update: shape += m, rate += sum of penetration depths."""
    return GammaPosterior(prior_alpha + stats.m, prior_beta + stats.sum_x)


def lambda_stats(p: GammaPosterior) -> tuple[float, float, float]:
    """(mean, mode, variance) of the posterior; requires beta > 0."""
    if p.beta <= 0:
        raise DensityError("lambda statistics undefined for beta = 0")
    mean = p.alpha / p.beta
    mode = max((p.alpha - 1.0) / p.beta, 0.0)
    var = p.alpha / p.beta ** 2
    return mean, mode, var


def debias_factor(n: int) -> float:
    return (n - 1) / n if n > 0 else 0.0


def canopy_density(stats: VoxelStats, g: float = DEFAULT_G,
                   estimator: str = "mean") -> tuple[float, float] | None:
    """Debiased per-voxel canopy density and its variance, in (m^2/m^3) units.

    density = g * d(n) * m / sum(x_i) with d(n) = (n-1)/n; the variance is the
    posterior Var[lambda] propagated through the same deterministic scale
    factors. Returns None for an unobserved voxel (n = 0). `estimator`
    selects the posterior mean (default) or mode for m / sum(x_i).
    """
    if stats.n == 0:
        return None
    if stats.m > 0 and not stats.sum_x > 0:
        raise DensityError("contact with zero penetration is impossible")
    if stats.m == 0:
        return 0.0, 0.0
    mean, mode, var = lambda_stats(posterior(stats))
    if estimator == "mean":
        lam = mean
    elif estimator == "mode":
        lam = mode
    else:
        raise DensityError(f"unknown estimator {estimator!r}")
    scale = g * debias_factor(stats.n)
    return scale * lam, scale ** 2 * var


def uncensored_lambda(x: np.ndarray) -> tuple[float, float | None]:
    """Unbiased density estimate (n-1)/sum(x) for uncensored interception depths.

    Also returns the estimator's standard deviation lambda_hat/sqrt(n-2), or
    None at the n = 2 boundary where it is undefined.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise DensityError("uncensored estimator needs at least 2 samples")
    lam = (n - 1) / float(x.sum())
    std = lam / np.sqrt(n - 2) if n > 2 else None
    return lam, std


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


def estimate_field(stats_map: dict, grid: VoxelGrid, g: float = DEFAULT_G,
                   estimator: str = "mean") -> DensityField:
    """Apply the per-voxel estimator over the (already expanded) stats map."""
    density = np.zeros(grid.dims)
    variance = np.zeros(grid.dims)
    observed = np.zeros(grid.dims, dtype=bool)
    for key, stats in stats_map.items():
        result = canopy_density(stats, g=g, estimator=estimator)
        if result is None:
            continue
        density[key], variance[key] = result
        observed[key] = True
    return DensityField(grid=grid, density=density, variance=variance,
                        observed=observed, g=g)


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
    if min(dims) < 0:
        raise DensityError(f"{path}: negative grid dims {tuple(dims)}")
    count = int(np.prod(dims))
    expected = start + 8 * count + (count + 7) // 8
    if len(data) != expected:
        raise DensityError(f"{path}: {len(data)} bytes where grid {tuple(dims)} "
                           f"needs {expected}: truncated or corrupt")
    planes = np.frombuffer(data, dtype="<f4", count=2 * count, offset=start)
    density = planes[:count].astype(float).reshape(dims)
    variance = planes[count:].astype(float).reshape(dims)
    bits = np.frombuffer(data, dtype=np.uint8, offset=start + 8 * count)
    observed = np.unpackbits(bits, count=count).astype(bool).reshape(dims)
    grid = VoxelGrid(origin=np.array([ox, oy, oz]), voxel_width=width,
                     dims=tuple(dims), row_index=row_index)
    return DensityField(grid=grid, density=density, variance=variance,
                        observed=observed, g=g)
