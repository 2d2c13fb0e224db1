"""Synthetic vineyard scanner for end-to-end validation.

Generates ray clouds of a vineyard with known ground truth: undulating
terrain, parallel rows of a uniform turbid canopy (constant leaf density in a
terrain-following box per row), and a spinning sensor driven along the lanes
between rows. Because every quantity is known analytically, pipeline output
can be checked for absolute accuracy and scan-to-scan repeatability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raycloud import RayCloud

STEP = 0.025  # m, ray march resolution through the turbid canopy


class SyntheticError(ValueError):
    pass


@dataclass(frozen=True)
class VineyardSpec:
    """Ground-truth description of the simulated vineyard."""

    row_positions: tuple = (0.0, 2.5)   # x of each row centreline, m
    row_length: float = 28.0            # rows run along +y from y=0, m
    row_half_width: float = 0.35        # m
    canopy_base: float = 0.5            # above terrain, m
    canopy_top: float = 1.5             # above terrain, m
    density: float = 4.0                # one-sided leaf area, m^2/m^3
    g: float = 2.0
    terrain_amplitude: float = 0.12     # m
    max_range: float = 18.0             # m
    sensor_height: float = 1.0          # above terrain, m

    def __post_init__(self):
        if len(self.row_positions) == 0:
            raise SyntheticError("row_positions must name at least one row")
        if not np.all(np.isfinite(self.row_positions)):
            raise SyntheticError(f"row_positions must be finite, not {self.row_positions!r}")
        for name in ("row_length", "row_half_width", "canopy_base", "canopy_top", "density",
                     "g", "terrain_amplitude", "max_range", "sensor_height"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise SyntheticError(f"{name} must be finite, not {value!r}")
        for name in ("row_length", "row_half_width", "g", "max_range", "sensor_height"):
            value = getattr(self, name)
            if not value > 0:
                raise SyntheticError(f"{name} must be positive, not {value!r}")
        if self.canopy_top <= self.canopy_base or self.density < 0:
            raise SyntheticError("invalid canopy band")

    @property
    def interception_density(self) -> float:
        return self.density / self.g   # lambda, 1/m

    def canopy_volume(self) -> float:
        return (len(self.row_positions) * self.row_length
                * 2 * self.row_half_width * (self.canopy_top - self.canopy_base))

    def total_leaf_area(self) -> float:
        return self.density * self.canopy_volume()

    def lane_positions(self) -> list[float]:
        """Drive lanes: midpoints between rows plus one outside each edge row."""
        rows = sorted(self.row_positions)
        spacing = rows[1] - rows[0] if len(rows) > 1 else 2.5
        lanes = [rows[0] - spacing / 2]
        lanes += [(a + b) / 2 for a, b in zip(rows, rows[1:])]
        lanes.append(rows[-1] + spacing / 2)
        return lanes


def terrain_height(spec: VineyardSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Smooth undulating terrain; wavelengths well above the voxel scale."""
    a = spec.terrain_amplitude
    return (a * np.sin(2 * np.pi * np.asarray(x) / 19.0)
            + 0.7 * a * np.cos(2 * np.pi * np.asarray(y) / 13.0))


def _in_canopy(spec: VineyardSpec, x, y, h):
    """Boolean mask: inside any row's terrain-following canopy box.

    h is height above local terrain.
    """
    inside = (h >= spec.canopy_base) & (h < spec.canopy_top) \
        & (y >= 0.0) & (y < spec.row_length)
    lateral = np.zeros_like(np.asarray(x), dtype=bool)
    for rx in spec.row_positions:
        lateral |= np.abs(x - rx) < spec.row_half_width
    return inside & lateral


def scan_trajectory(spec: VineyardSpec, spacing: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Boustrophedon sensor positions over the lanes and their timestamps.

    `spacing` is the along-lane distance between scan positions: the knob that
    models vehicle speed at a fixed scanner rate.
    """
    if spacing <= 0:
        raise SyntheticError("spacing must be positive")
    margin = 1.0
    steps = int(np.ceil((spec.row_length + 2 * margin) / spacing)) + 1
    s = np.linspace(-margin, spec.row_length + margin, steps)
    positions = []
    for k, lane_x in enumerate(spec.lane_positions()):
        ys = s if k % 2 == 0 else s[::-1]
        xs = np.full_like(ys, lane_x)
        z = terrain_height(spec, xs, ys) + spec.sensor_height
        positions.append(np.column_stack([xs, ys, z]))
    positions = np.concatenate(positions)
    times = np.arange(len(positions)) * (spacing / 1.0)   # 1 m/s vehicle
    return positions, times


def _step_windows(spec: VineyardSpec, o: np.ndarray, d: np.ndarray,
                  n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the march steps [lo, hi) that can see canopy or first ground.

    One window per row's canopy box and one ground window, each a slab
    intersection widened by STEP in space and by one step at each end, so
    no rounding can drop a step. Windows are sorted and trimmed so that
    they do not overlap: the steps they cover are distinct and ascending.
    """
    b = 1.7 * abs(spec.terrain_amplitude) + STEP   # terrain never leaves [-1.7|a|, 1.7|a|]
    hw = spec.row_half_width + STEP
    lo = [(rx - hw, -STEP, spec.canopy_base - b) for rx in spec.row_positions]
    hi = [(rx + hw, spec.row_length + STEP, spec.canopy_top + b)
          for rx in spec.row_positions]
    lo = np.array(lo + [(-np.inf, -np.inf, -b)])[None]
    hi = np.array(hi + [(np.inf, np.inf, b)])[None]
    o, d = o[:, None], d[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1, t2 = (lo - o) / d, (hi - o) / d
    flat = d == 0   # a slab parallel to the ray holds all of it or none of it
    inside = np.where((lo <= o) & (o <= hi), -np.inf, np.inf)
    t_in = np.where(flat, inside, np.minimum(t1, t2)).max(axis=2)
    t_out = np.where(flat, -inside, np.maximum(t1, t2)).min(axis=2)
    t_max = (n_steps + 1) * STEP
    k_lo = np.ceil(np.clip(t_in, -STEP, t_max) / STEP - 0.5).astype(np.int64) - 1
    k_hi = np.floor(np.clip(t_out, -STEP, t_max) / STEP - 0.5).astype(np.int64) + 2
    k_lo, k_hi = np.clip(k_lo, 0, n_steps), np.clip(k_hi, 0, n_steps)

    order = np.argsort(k_lo, axis=1, kind="stable")
    k_lo = np.take_along_axis(k_lo, order, axis=1)
    k_hi = np.take_along_axis(k_hi, order, axis=1)
    covered = np.maximum.accumulate(k_hi, axis=1)
    k_lo[:, 1:] = np.maximum(k_lo[:, 1:], covered[:, :-1])
    return k_lo, np.maximum(k_hi, k_lo)


def _first_step(ray: np.ndarray, step: np.ndarray, mask: np.ndarray, n: int,
                n_steps: int) -> np.ndarray:
    """First masked step of each ray in ray-major, step-ascending pairs; n_steps if none."""
    r, s = ray[mask], step[mask]
    head = np.ones(len(r), dtype=bool)
    head[1:] = r[1:] != r[:-1]
    first = np.full(n, n_steps)
    first[r[head]] = s[head]
    return first


def _march_rays(spec: VineyardSpec, origins: np.ndarray, dirs: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Terminate each ray against terrain and the stochastic turbid canopy.

    Returns (endpoints, contact). A ray intercepts foliage where its
    accumulated optical depth first exceeds an Exp(1) draw, hits the ground
    where its height above terrain first drops to zero or below, or
    (pointing upward) escapes to max_range as a non-return.

    The march steps every STEP along the ray, but only through the windows
    of `_step_windows`: canopy lies inside a row's box with its z range
    widened by the terrain bound, and the first ground step inside
    |z| <= 1.7 |terrain_amplitude| or one step below it. Each evaluated step
    uses the same arithmetic as a march over every step. The optical depth
    is an integer count of canopy steps times interception_density * STEP,
    so counting over any superset of the canopy steps, in step order, gives
    the same depth at every canopy step, the same first hit and the same
    endpoint bits (for a positive draw; Exp(1) returns 0 with probability
    about 2^-53). Rays go in chunks, so memory follows the chunk's window
    steps.
    """
    n = len(origins)
    endpoints = origins + spec.max_range * dirs
    contact = np.zeros(n, dtype=bool)
    u = rng.exponential(1.0, n)
    n_steps = int(np.ceil(spec.max_range / STEP))
    t_grid = (np.arange(n_steps) + 0.5) * STEP
    depth_per_step = spec.interception_density * STEP

    chunk = 20_000
    for lo in range(0, n, chunk):
        o = origins[lo:lo + chunk]
        d = dirs[lo:lo + chunk]
        m = len(o)
        k_lo, k_hi = _step_windows(spec, o, d, n_steps)
        lengths = (k_hi - k_lo).ravel()
        ray = np.repeat(np.arange(m).repeat(k_lo.shape[1]), lengths)
        step = np.arange(lengths.sum()) + np.repeat(
            k_lo.ravel() - (np.cumsum(lengths) - lengths), lengths)

        t = t_grid[step]
        x = o[ray, 0] + t * d[ray, 0]
        y = o[ray, 1] + t * d[ray, 1]
        z = o[ray, 2] + t * d[ray, 2]
        h = z - terrain_height(spec, x, y)
        ground_step = _first_step(ray, step, h <= 0.0, m, n_steps)

        count = np.cumsum(_in_canopy(spec, x, y, h))
        ray_len = (k_hi - k_lo).sum(axis=1)
        before = np.concatenate([[0], count])[np.cumsum(ray_len) - ray_len]
        depth = (count - before[ray]) * depth_per_step
        hit_step = _first_step(ray, step, depth >= u[lo + ray], m, n_steps)

        first = np.minimum(ground_step, hit_step)
        ended = first < n_steps
        t_end = (first[ended] + 0.5) * STEP
        idx = np.arange(lo, lo + m)[ended]
        endpoints[idx] = origins[idx] + t_end[:, None] * dirs[idx]
        contact[idx] = True
    return endpoints, contact


def simulate_scan(spec: VineyardSpec, spacing: float = 0.05,
                  rays_per_position: int = 120, seed: int = 0) -> RayCloud:
    """Scan the vineyard: spinning-sensor ray fan from each trajectory position.

    Azimuth is uniform over the full circle and elevation uniform in
    [-40, 55] degrees, biased upward so the canopy top stays well sampled.
    Downward non-returns (rays that somehow end above ground at max_range)
    are discarded, mirroring live sensor ingestion.
    """
    if rays_per_position < 1:
        raise SyntheticError(f"rays_per_position must be >= 1, not {rays_per_position!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    positions, times = scan_trajectory(spec, spacing)
    n = len(positions) * rays_per_position
    origins = np.repeat(positions, rays_per_position, axis=0)
    ray_times = np.repeat(times, rays_per_position)
    ray_times = ray_times + np.tile(
        np.linspace(0.0, spacing * 0.9, rays_per_position), len(positions))

    az = rng.uniform(0.0, 2 * np.pi, n)
    el = rng.uniform(np.deg2rad(-40.0), np.deg2rad(55.0), n)
    dirs = np.column_stack([np.cos(el) * np.cos(az),
                            np.cos(el) * np.sin(az),
                            np.sin(el)])
    endpoints, contact = _march_rays(spec, origins, dirs, rng)

    keep = contact | (dirs[:, 2] > 0)
    order = np.argsort(ray_times[keep], kind="stable")
    return RayCloud(origins[keep][order], endpoints[keep][order],
                    ray_times[keep][order], contact[keep][order],
                    spec.max_range, "synthetic-vineyard")
