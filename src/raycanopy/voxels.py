"""Per-row voxel grid, ray traversal and sufficient-statistic accumulation.

Each voxel records four numbers, the sufficient statistics of the density
estimator: the entering-ray count n, the contact count m, the summed
penetration depths sum_x and the summed unimpeded path lengths sum_y. Voxel
intervals are half-open: a point exactly on a face belongs to the voxel with
the larger index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .raycloud import RayCloud

DEFAULT_VOXEL_WIDTH = 0.12  # m
DEFAULT_N_MIN = 10
MIN_CONTACTS = 100
_EPS = 1e-12


class VoxelGridError(ValueError):
    pass


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned cuboidal grid of cubic voxels."""

    origin: np.ndarray           # (3,) min corner, metres
    voxel_width: float
    dims: tuple[int, int, int]
    row_index: int = 0

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_width

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))

    def contains_index(self, ijk) -> bool:
        return all(0 <= v < d for v, d in zip(ijk, self.dims))


@dataclass
class VoxelStats:
    """Sufficient statistics of the rays crossing one voxel, or, as arrays of
    a grid's shape, of every voxel of the grid."""

    n: int | np.ndarray = 0          # rays entering the voxel
    m: int | np.ndarray = 0          # rays ending in a contact inside it
    sum_x: float | np.ndarray = 0.0  # summed penetration depths, m
    sum_y: float | np.ndarray = 0.0  # summed unimpeded chords, m


def build_grid(row_cloud: RayCloud, voxel_width: float = DEFAULT_VOXEL_WIDTH,
               row_index: int = 0,
               lateral_bounds: tuple[float, float] | None = None) -> VoxelGrid:
    """Build the row's voxel grid from endpoint percentiles.

    Vertical extent runs from 0.30 m up to the 97th percentile of contact
    endpoint heights, lateral from the 2nd to 98th percentile of contact
    endpoint x, along-row covering all contact endpoints; each extent is
    rounded outward (upward) to a whole number of voxels. `lateral_bounds`
    restricts the grid (and the percentile statistics) to the row's own
    across-row band, keeping neighbouring rows' returns out.
    """
    if voxel_width <= 0:
        raise VoxelGridError("voxel_width must be positive")
    pts = row_cloud.endpoints[row_cloud.contact]
    if lateral_bounds is not None:
        blo, bhi = lateral_bounds
        pts = pts[(pts[:, 0] >= blo) & (pts[:, 0] < bhi)]
    if len(pts) < MIN_CONTACTS:
        raise VoxelGridError(f"need >= {MIN_CONTACTS} contact endpoints, got {len(pts)}")
    z_lo = 0.30
    z_hi = float(np.percentile(pts[:, 2], 97))
    x_lo = float(np.percentile(pts[:, 0], 2))
    x_hi = float(np.percentile(pts[:, 0], 98))
    if lateral_bounds is not None:
        x_lo = max(x_lo, blo)
        x_hi = min(x_hi, bhi)
    y_lo = float(pts[:, 1].min())
    y_hi = float(pts[:, 1].max())
    spans = [(x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi)]
    dims = []
    for lo, hi in spans:
        if hi <= lo:
            raise VoxelGridError(f"non-positive grid extent [{lo}, {hi}]")
        dims.append(int(np.ceil((hi - lo) / voxel_width - 1e-9)))
    return VoxelGrid(origin=np.array([x_lo, y_lo, z_lo]), voxel_width=voxel_width,
                     dims=tuple(dims), row_index=row_index)


def _clip_to_grid(origins: np.ndarray, deltas: np.ndarray, grid: VoxelGrid):
    """Slab-clip rays (p = o + t*delta, t in [0,1]) to the grid box."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / deltas
        t_lo = (grid.origin - origins) * inv
        t_hi = (grid.upper - origins) * inv
    t_near = np.where(deltas != 0, np.minimum(t_lo, t_hi), -np.inf)
    t_far = np.where(deltas != 0, np.maximum(t_lo, t_hi), np.inf)
    # zero-direction axes hit nothing if the origin lies outside the slab
    outside = (deltas == 0) & ((origins < grid.origin) | (origins > grid.upper))
    t_near = np.where(outside, np.inf, t_near)
    t0 = np.maximum(t_near.max(axis=1), 0.0)
    t1 = np.minimum(t_far.min(axis=1), 1.0)
    return t0, t1


def traverse(ray, grid: VoxelGrid) -> list[tuple[tuple[int, int, int], float, float]]:
    """Amanatides-Woo walk of one ray through the grid.

    Returns ordered (voxel index, entry_param, exit_param) with parameters as
    fractions of the full ray; contiguous, and empty if the ray misses.
    """
    origin = np.asarray(ray.origin, dtype=float)
    delta = np.asarray(ray.endpoint, dtype=float) - origin
    t0, t1 = _clip_to_grid(origin[None, :], delta[None, :], grid)
    t0, t1 = float(t0[0]), float(t1[0])
    if t1 - t0 <= _EPS:
        return []
    w = grid.voxel_width
    p0 = origin + t0 * delta
    ijk = np.floor((p0 - grid.origin) / w).astype(int)
    ijk = np.clip(ijk, 0, np.asarray(grid.dims) - 1)

    step = np.where(delta > 0, 1, np.where(delta < 0, -1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta = np.where(delta != 0, np.abs(w / delta), np.inf)
        next_bound = grid.origin + (ijk + (step > 0)) * w
        t_max = np.where(delta != 0, (next_bound - origin) / delta, np.inf)

    out = []
    t = t0
    while True:
        t_exit = float(t_max.min())
        t_emit = min(t_exit, t1)
        if t_emit - t > _EPS:
            out.append((tuple(int(v) for v in ijk), t, t_emit))
        if t_exit >= t1:
            break
        # advance every axis tied at the minimum (diagonal face/corner crossing)
        for ax in range(3):
            if t_max[ax] == t_exit:
                ijk[ax] += step[ax]
                t_max[ax] += t_delta[ax]
        if not grid.contains_index(ijk):
            break
        t = t_exit
    return out


def accumulate(row_cloud: RayCloud, grid: VoxelGrid) -> dict[tuple[int, int, int], VoxelStats]:
    """Accumulate per-voxel statistics for every ray of the cloud.

    For each voxel a ray enters: n += 1, its unimpeded chord y through the
    voxel adds to sum_y and its penetration depth x adds to sum_x. x equals y
    except in the voxel where the ray ends, where it is the entry-to-end
    length; a contact ending inside the voxel increments m. The walk is
    batch-vectorised across rays, and the records are reduced per voxel in
    array operations: sum_x and sum_y equal, bit for bit, ndarray.sum over
    each voxel's x and y in ray order.
    """
    n_rays = len(row_cloud)
    if n_rays == 0:
        return {}
    origins = row_cloud.origins
    deltas = row_cloud.endpoints - origins
    lengths = np.linalg.norm(deltas, axis=1)
    w = grid.voxel_width
    dims = np.asarray(grid.dims)

    t0, t_end = _clip_to_grid(origins, deltas, grid)
    active = t_end - t0 > _EPS
    ids = np.nonzero(active)[0]
    if len(ids) == 0:
        return {}
    o = origins[ids]
    d = deltas[ids]
    t = t0[ids].copy()
    tend = t_end[ids]

    p0 = o + t[:, None] * d
    ijk = np.floor((p0 - grid.origin) / w).astype(np.int64)
    np.clip(ijk, 0, dims - 1, out=ijk)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta = np.where(d != 0, np.abs(w / d), np.inf)
        next_bound = grid.origin + (ijk + (step > 0)) * w
        t_max = np.where(d != 0, (next_bound - o) / d, np.inf)

    rec_ray: list[np.ndarray] = []
    rec_vox: list[np.ndarray] = []
    rec_t0: list[np.ndarray] = []
    rec_t1: list[np.ndarray] = []

    alive = np.ones(len(ids), dtype=bool)
    while np.any(alive):
        a = np.nonzero(alive)[0]
        t_exit = t_max[a].min(axis=1)
        t_emit = np.minimum(t_exit, tend[a])
        emit = t_emit - t[a] > _EPS
        if np.any(emit):
            e = a[emit]
            lin = (ijk[e, 0] * dims[1] + ijk[e, 1]) * dims[2] + ijk[e, 2]
            rec_ray.append(ids[e])
            rec_vox.append(lin)
            rec_t0.append(t[e])
            rec_t1.append(t_exit[emit])   # uncapped: unimpeded chord exit
        done = t_exit >= tend[a]
        adv = a[~done]
        if len(adv):
            tied = t_max[adv] == t_max[adv].min(axis=1, keepdims=True)
            ijk[adv] += np.where(tied, step[adv], 0)
            t_max[adv] += np.where(tied, t_delta[adv], 0.0)
            t[adv] = t_exit[~done]
            inside = np.all((ijk[adv] >= 0) & (ijk[adv] < dims), axis=1)
            alive[adv[~inside]] = False
        alive[a[done]] = False

    if not rec_ray:
        return {}
    ray_id = np.concatenate(rec_ray)
    vox = np.concatenate(rec_vox)
    ta = np.concatenate(rec_t0)
    tb = np.concatenate(rec_t1)

    L = lengths[ray_id]
    y = (tb - ta) * L
    x = (np.minimum(tb, t_end[ray_id]) - ta) * L
    np.clip(x, 0.0, y, out=x)
    end_lin = np.full(n_rays, -1, dtype=np.int64)
    in_grid = np.all((row_cloud.endpoints >= grid.origin)
                     & (row_cloud.endpoints < grid.upper), axis=1)
    if np.any(in_grid):
        eijk = np.floor((row_cloud.endpoints[in_grid] - grid.origin) / w).astype(np.int64)
        end_lin[in_grid] = (eijk[:, 0] * dims[1] + eijk[:, 1]) * dims[2] + eijk[:, 2]
    hits = row_cloud.contact[ray_id] & (vox == end_lin[ray_id])

    # stable, so each voxel sums its rays in ray order
    order = np.argsort(vox, kind="stable")
    vox, x, y, hits = vox[order], x[order], y[order], hits[order]
    uniq, starts = np.unique(vox, return_index=True)
    bounds = np.append(starts, len(vox))
    n = np.diff(bounds)
    m = np.add.reduceat(hits.astype(np.int64), starts)
    # bincount adds left to right from 0.0, as ndarray.sum does below 8 items;
    # from 8 up sum() switches to pairwise adds, so those voxels take it as is
    seg = np.repeat(np.arange(len(uniq)), n)
    sum_x = np.bincount(seg, weights=x)
    sum_y = np.bincount(seg, weights=y)
    for v in np.nonzero(n >= 8)[0]:
        s0, s1 = bounds[v], bounds[v + 1]
        sum_x[v], sum_y[v] = x[s0:s1].sum(), y[s0:s1].sum()
    keys = zip(*(a.tolist() for a in np.unravel_index(uniq, grid.dims)))
    return {key: VoxelStats(*row) for key, *row in
            zip(keys, n.tolist(), m.tolist(), sum_x.tolist(), sum_y.tolist())}


def _window_sums(prefix: np.ndarray, radius, dims, ijk) -> np.ndarray:
    """Sum over the cube of Chebyshev radius `radius` around each voxel of
    `ijk` (three index arrays), clamped to the grid, from an inclusive 3D
    prefix-sum array. `radius` is a scalar or one radius per voxel."""
    L0, L1, L2 = (np.clip(ix - radius, 0, d - 1) for ix, d in zip(ijk, dims))
    H0, H1, H2 = (np.clip(ix + radius, 0, d - 1) + 1 for ix, d in zip(ijk, dims))
    return (prefix[H0, H1, H2] - prefix[L0, H1, H2] - prefix[H0, L1, H2]
            - prefix[H0, H1, L2] + prefix[L0, L1, H2] + prefix[L0, H1, L2]
            + prefix[H0, L1, L2] - prefix[L0, L1, L2])


def expand_undersampled(stats: dict, grid: VoxelGrid,
                        n_min: int = DEFAULT_N_MIN) -> dict[tuple[int, int, int], VoxelStats]:
    """Merge growing cubic neighbourhoods into voxels with n < n_min.

    The merged statistics replace the voxel's own for density estimation only;
    neighbours keep theirs. Covers every voxel of the grid, so unsampled
    voxels deep in the canopy borrow from their surroundings; voxels with
    n = 0 after exhausting the grid stay empty (unobserved). Voxels with
    n >= n_min keep the caller's own VoxelStats object. The search uses
    prefix sums and, at each radius, evaluates only the voxels still short
    of n_min.
    """
    dims = grid.dims
    n_arr = np.zeros(dims, dtype=np.int64)
    m_arr = np.zeros(dims, dtype=np.int64)
    sx = np.zeros(dims)
    sy = np.zeros(dims)
    if stats:
        at = tuple(np.array(list(stats)).T)
        n_arr[at] = [s.n for s in stats.values()]
        m_arr[at] = [s.m for s in stats.values()]
        sx[at] = [s.sum_x for s in stats.values()]
        sy[at] = [s.sum_y for s in stats.values()]

    fields = [n_arr.astype(float), m_arr.astype(float), sx, sy]
    prefixes = [np.pad(f, (1, 0)).cumsum(0).cumsum(1).cumsum(2) for f in fields]

    own = n_arr >= n_min
    max_radius = max(dims) - 1
    # whole grid, unless a smaller cube reaches n_min
    radius = np.full(dims, max_radius, dtype=np.int64)
    pending = np.flatnonzero(~own)
    for r in range(1, max_radius):
        if len(pending) == 0:
            break
        enough = _window_sums(prefixes[0], r, dims, np.unravel_index(pending, dims)) >= n_min
        radius.flat[pending[enough]] = r
        pending = pending[~enough]

    short = np.nonzero(~own)
    wn, wm, wsx, wsy = (_window_sums(p, radius[short], dims, short) for p in prefixes)
    merged = [np.zeros(dims, dtype=np.int64), np.zeros(dims, dtype=np.int64),
              np.zeros(dims), np.zeros(dims)]
    for dense, w in zip(merged, (np.rint(wn), np.rint(wm), wsx, wsy)):
        dense[short] = w
    # n == 0 even over the whole grid: unobserved
    return {key: stats[key] if is_own else VoxelStats(n, m, x, y) if n else VoxelStats()
            for key, is_own, n, m, x, y in zip(itertools.product(*map(range, dims)),
                                               own.ravel().tolist(),
                                               *(a.ravel().tolist() for a in merged))}


def dump_stats_csv(stats: dict, grid: VoxelGrid, path) -> None:
    """One row per voxel with counts and depth/path sums, plus the grid header."""
    with open(path, "w") as f:
        f.write(f"# grid {grid.origin[0]:.9g} {grid.origin[1]:.9g} {grid.origin[2]:.9g} "
                f"{grid.voxel_width:.9g} {grid.dims[0]} {grid.dims[1]} {grid.dims[2]} "
                f"{grid.row_index}\n")
        f.write("row,i,j,k,n,m,sum_x,sum_y\n")
        for (i, j, k) in sorted(stats):
            s = stats[(i, j, k)]
            f.write(f"{grid.row_index},{i},{j},{k},{s.n},{s.m},"
                    f"{s.sum_x:.9g},{s.sum_y:.9g}\n")


def load_stats_csv(path) -> tuple[VoxelStats, VoxelGrid]:
    """Read a dump_stats_csv file back as dense statistics plus its grid.

    The statistics are one VoxelStats whose fields are arrays of the grid's
    shape: n and m int64, sum_x and sum_y float64, zero at every voxel the
    file does not list. Each line is checked as it is read; a fault raises
    VoxelGridError naming file:line.
    """
    with open(path) as f:
        header = f.readline().split()
        try:
            if len(header) != 10 or header[:2] != ["#", "grid"]:
                raise ValueError("missing grid header")
            origin = np.array([float(v) for v in header[2:5]])
            width = float(header[5])
            dims = tuple(int(v) for v in header[6:9])
            grid = VoxelGrid(origin=origin, voxel_width=width, dims=dims,
                             row_index=int(header[9]))
            stats = VoxelStats(np.zeros(dims, dtype=np.int64), np.zeros(dims, dtype=np.int64),
                               np.zeros(dims), np.zeros(dims))
        except ValueError as exc:   # includes negative dims
            raise VoxelGridError(f"{path}:1: {exc}") from None
        f.readline()   # column names
        di, dj, dk = dims
        for lineno, line in enumerate(f, 3):
            try:
                _, i, j, k, n, m, sum_x, sum_y = line.split(",")
                i, j, k, n, m = int(i), int(j), int(k), int(n), int(m)
                if not (0 <= i < di and 0 <= j < dj and 0 <= k < dk):
                    raise ValueError(f"voxel {(i, j, k)} outside grid {dims}")
                if not 0 <= m <= n:
                    raise ValueError(f"m={m} out of range for n={n}")
                stats.n[i, j, k], stats.m[i, j, k] = n, m
                stats.sum_x[i, j, k], stats.sum_y[i, j, k] = float(sum_x), float(sum_y)
            except (ValueError, OverflowError) as exc:   # overflow: a count past int64
                raise VoxelGridError(f"{path}:{lineno}: {exc}") from None
    return stats, grid
