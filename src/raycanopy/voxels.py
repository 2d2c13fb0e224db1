"""Per-row voxel grid, ray walk and sufficient-statistic accumulation.

Each voxel records three numbers, the sufficient statistics of the
censored-exponential density estimator: the entering-ray count n, the
contact count m and the summed penetration depths sum_x. Voxel intervals
are half-open: a point exactly on a face belongs to the voxel with the
larger index. One batched Amanatides & Woo walk (`_walk`) serves both
`accumulate` and the one-ray `traverse`.

A row's statistics are a dict of up to some 10^5 VoxelStats, one per voxel,
stored as a binary file of three dense planes (`save_stats`). The dicts are
built with cyclic garbage collection suspended (`gc_paused`): every few
hundred tracked allocations start a collection that walks the young
objects, and as the new objects hold only ints and floats, those
collections free nothing while taking a large share of the build time.

Both binary grid files, `.rcvs` here and `.rcdf` in `density`, start with
a magic and one `<3id3di` grid header (dims, voxel width, origin, row
index). `write_grid_header` writes it and `read_grid_file` checks it.
"""

from __future__ import annotations

import gc
import itertools
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raycloud import RayCloud

DEFAULT_VOXEL_WIDTH = 0.12  # m
DEFAULT_N_MIN = 10
MIN_CONTACTS = 100
_EPS = 1e-12


class VoxelGridError(ValueError):
    pass


@contextmanager
def gc_paused():
    """Suspend cyclic garbage collection; restore its previous state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned cuboidal grid of cubic voxels."""

    origin: np.ndarray           # (3,) min corner, metres
    voxel_width: float
    dims: tuple[int, int, int]
    row_index: int = 0

    def __post_init__(self):
        if min(self.dims) < 0:
            raise VoxelGridError(f"negative grid dims {tuple(self.dims)}")
        if not (np.isfinite(self.voxel_width) and self.voxel_width > 0):
            raise VoxelGridError(f"voxel width {self.voxel_width} is not finite and positive")
        if not np.all(np.isfinite(self.origin)):
            raise VoxelGridError(f"grid origin {[float(v) for v in self.origin]} is not finite")

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_width

    @property
    def voxel_count(self) -> int:
        return math.prod(self.dims)   # exact: np.prod wraps past 2^63


@dataclass
class VoxelStats:
    """Sufficient statistics of the rays crossing one voxel, or, as arrays of
    a grid's shape, of every voxel of the grid."""

    n: int | np.ndarray = 0          # rays entering the voxel
    m: int | np.ndarray = 0          # rays ending in a contact inside it
    sum_x: float | np.ndarray = 0.0  # summed penetration depths, m


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
    if not (np.isfinite(voxel_width) and voxel_width > 0):
        raise VoxelGridError(f"voxel_width {voxel_width} is not finite and positive")
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
        dims.append(max(1, int(np.ceil((hi - lo) / voxel_width - 1e-9))))
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


def _walk(origins: np.ndarray, deltas: np.ndarray, grid: VoxelGrid):
    """Amanatides & Woo (1987) walk of every ray p = o + t*delta, t in [0, 1],
    through the grid, batch-vectorised across rays.

    Returns, per record (a voxel a ray crosses for longer than _EPS), the ray
    id, linear voxel index, entry t and exit t (capped at the ray's end), each
    ray's records in walk order. All axes tied at an exit advance together,
    so an edge or corner crossing gives no zero-length record.
    """
    dims = np.asarray(grid.dims)
    w = grid.voxel_width
    t0, t_end = _clip_to_grid(origins, deltas, grid)
    ids = np.nonzero(t_end - t0 > _EPS)[0]
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

    empty = np.zeros(0, dtype=np.int64)
    records = [(empty, empty, empty.astype(float), empty.astype(float))]

    alive = np.ones(len(ids), dtype=bool)
    while np.any(alive):
        a = np.nonzero(alive)[0]
        t_exit = t_max[a].min(axis=1)
        t_emit = np.minimum(t_exit, tend[a])
        emit = t_emit - t[a] > _EPS
        if np.any(emit):
            e = a[emit]
            records.append((ids[e], np.ravel_multi_index(ijk[e].T, grid.dims),
                            t[e], t_emit[emit]))
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
    return tuple(map(np.concatenate, zip(*records)))


def traverse(ray, grid: VoxelGrid) -> list[tuple[tuple[int, int, int], float, float]]:
    """One ray's walk through the grid: `_walk`, the walk `accumulate` runs,
    called on this ray alone.

    Returns ordered (voxel index, entry_param, exit_param) with parameters as
    fractions of the full ray and the exit capped at the ray's clipped end;
    contiguous, and empty if the ray misses.
    """
    origin = np.asarray(ray.origin, dtype=float)[None, :]
    delta = np.asarray(ray.endpoint, dtype=float) - origin
    _, vox, t0, t1 = _walk(origin, delta, grid)
    keys = zip(*(a.tolist() for a in np.unravel_index(vox, grid.dims)))
    return list(zip(keys, t0.tolist(), t1.tolist()))


def accumulate(row_cloud: RayCloud, grid: VoxelGrid) -> dict[tuple[int, int, int], VoxelStats]:
    """Accumulate per-voxel statistics for every ray of the cloud.

    For each voxel a ray enters: n += 1 and its penetration depth x adds to
    sum_x. x is the ray's chord through the voxel, except in the voxel where
    the ray ends, where it is the entry-to-end length; a contact ending
    inside the voxel increments m. The rays are walked together (`_walk`) and
    the records are reduced onto the whole grid, one bincount per statistic:
    sum_x is a left-to-right sum from 0.0 over each voxel's records in walk
    order (by step, then by ray). Keys run in ascending linear voxel index.
    """
    origins = row_cloud.origins
    deltas = row_cloud.endpoints - origins
    lengths = np.linalg.norm(deltas, axis=1)
    ray_id, vox, ta, tb = _walk(origins, deltas, grid)
    x = (tb - ta) * lengths[ray_id]
    in_grid = np.all((row_cloud.endpoints >= grid.origin)
                     & (row_cloud.endpoints < grid.upper), axis=1)
    eijk = np.floor((row_cloud.endpoints[in_grid] - grid.origin) / grid.voxel_width)
    end_lin = np.full(len(row_cloud), -1, dtype=np.int64)
    # an endpoint just below an upper face can floor to dims: clip it into
    # the last voxel, as _walk clips its entry voxel
    end_lin[in_grid] = np.ravel_multi_index(eijk.astype(np.int64).T, grid.dims, mode="clip")
    hits = row_cloud.contact[ray_id] & (vox == end_lin[ray_id])

    count = grid.voxel_count
    n = np.bincount(vox, minlength=count)
    m = np.bincount(vox[hits], minlength=count)
    sum_x = np.bincount(vox, weights=x, minlength=count)
    crossed = np.flatnonzero(n)
    keys = zip(*(a.tolist() for a in np.unravel_index(crossed, grid.dims)))
    with gc_paused():
        return dict(zip(keys, map(VoxelStats, *(a[crossed].tolist() for a in (n, m, sum_x)))))


def _dense(stats: dict, dims) -> VoxelStats:
    """A dict of per-voxel VoxelStats as int64/float64 arrays of shape `dims`."""
    dense = VoxelStats(np.zeros(dims, dtype=np.int64), np.zeros(dims, dtype=np.int64),
                       np.zeros(dims))
    if stats:
        at = tuple(np.array(list(stats)).T)
        dense.n[at] = [s.n for s in stats.values()]
        dense.m[at] = [s.m for s in stats.values()]
        dense.sum_x[at] = [s.sum_x for s in stats.values()]
    return dense


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
    prefix sums (int64 for the counts) and, at each radius, evaluates only
    the voxels still short of n_min.
    """
    dims = grid.dims
    dense = _dense(stats, dims)
    prefixes = [np.pad(f, (1, 0)).cumsum(0).cumsum(1).cumsum(2)
                for f in (dense.n, dense.m, dense.sum_x)]

    own = dense.n >= n_min
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
    merged = [np.zeros(dims, dtype=p.dtype) for p in prefixes]
    for dense, p in zip(merged, prefixes):
        dense[short] = _window_sums(p, radius[short], dims, short)
    # n == 0 even over the whole grid: unobserved, all three fields zero
    unobserved = merged[0] == 0
    for dense in merged[1:]:
        dense[unobserved] = 0
    with gc_paused():
        full = dict(zip(itertools.product(*map(range, dims)),
                        map(VoxelStats, *(a.ravel().tolist() for a in merged))))
        full.update((key, stats[key]) for key in zip(*(a.tolist() for a in np.nonzero(own))))
    return full


_HEADER = struct.Struct("<3id3di")   # dims, voxel width, origin, row index


def write_grid_header(fh, magic: bytes, grid: VoxelGrid) -> None:
    """Start a grid file (`.rcvs` or `.rcdf`): its magic, then the grid header."""
    fh.write(magic)
    fh.write(_HEADER.pack(*grid.dims, grid.voxel_width, *grid.origin, grid.row_index))


def read_grid_file(path, magic: bytes, kind: str, body_size,
                   error: type[ValueError] = VoxelGridError) -> tuple[VoxelGrid, memoryview]:
    """The grid of a file that `write_grid_header` started, and the bytes after
    the header. Checks the magic, the header, the grid and that the body holds
    `body_size(voxel count)` bytes; each fault raises `error` naming the file."""
    data = Path(path).read_bytes()
    if not data.startswith(magic):
        raise error(f"{path}: not a {kind} file ({magic[:4].decode()} version {magic[4]})")
    start = len(magic) + _HEADER.size
    if len(data) < start:
        raise error(f"{path}: truncated header ({len(data)} bytes)")
    *dims, width, ox, oy, oz, row_index = _HEADER.unpack_from(data, len(magic))
    try:
        grid = VoxelGrid(origin=np.array([ox, oy, oz]), voxel_width=width,
                         dims=tuple(dims), row_index=row_index)
    except VoxelGridError as exc:
        raise error(f"{path}: {exc}") from None
    expected = start + body_size(grid.voxel_count)
    if len(data) != expected:
        raise error(f"{path}: {len(data)} bytes where grid {grid.dims} needs {expected}")
    return grid, memoryview(data)[start:]


_MAGIC = b"RCVS\x02"
_PLANES = ("<i8", "<i8", "<f8")      # n, m, sum_x: whole grid, row-major


def save_stats(stats: dict, grid: VoxelGrid, path) -> None:
    """Write a dict of per-voxel VoxelStats as the grid's three dense planes."""
    dense = _dense(stats, grid.dims)
    with open(path, "wb") as fh:
        write_grid_header(fh, _MAGIC, grid)
        for plane, dtype in zip((dense.n, dense.m, dense.sum_x), _PLANES):
            fh.write(plane.astype(dtype).tobytes())


def load_stats(path) -> tuple[VoxelStats, VoxelGrid]:
    """Read a save_stats file back as dense statistics (arrays of the grid's
    shape: n and m int64, sum_x float64) plus its grid. Each fault
    raises VoxelGridError naming the file, and the voxel where there is one."""
    grid, body = read_grid_file(path, _MAGIC, "voxel statistics",
                                lambda count: 8 * len(_PLANES) * count)
    count = grid.voxel_count
    n, m, sum_x = (np.frombuffer(body, dt, count, 8 * count * i).astype(dt[1:]).reshape(grid.dims)
                   for i, dt in enumerate(_PLANES))
    for bad, needs in (((m < 0) | (m > n) | ~np.isfinite(sum_x), "0 <= m <= n and a finite sum_x"),
                       ((sum_x < 0) | ((m > 0) & (sum_x == 0)),
                        "sum_x >= 0, and sum_x > 0 where m > 0")):
        if bad.any():
            v = tuple(int(i) for i in np.argwhere(bad)[0])
            raise VoxelGridError(f"{path}: voxel {v}: n={n[v]}, m={m[v]}, sum_x={sum_x[v]}: "
                                 f"needs {needs}")
    return VoxelStats(n, m, sum_x), grid


# the names perfbench/spans.py traces as voxels.dump_csv_s and voxels.load_csv_s
dump_stats_csv = save_stats
load_stats_csv = load_stats
