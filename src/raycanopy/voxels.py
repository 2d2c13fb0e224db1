"""Per-row voxel grid, ray walk and sufficient-statistic accumulation.

Each voxel records three numbers, the sufficient statistics of the
censored-exponential density estimator: the entering-ray count n, the
contact count m and the summed penetration depths sum_x. Voxel intervals
are half-open: a point exactly on a face belongs to the voxel with the
larger index, and a ray lying in an upper face of the grid misses it. One
batched Amanatides & Woo walk (`_walk`) serves both `accumulate` and the
one-ray `traverse`. It keeps each ray's state as one 1D array per axis and
the linear voxel index, stepped by stride, and filters every state array
down to the rays still walking after each step.

A row's statistics stay dense from the walk to the file: `accumulate`
reduces the walk to one VoxelStats of arrays of the grid's shape, and
`save_stats` writes those arrays, the raw measurement, as three planes.
Pooling undersampled voxels belongs to the estimator: the density stage
reads the planes back with `load_stats` and runs `expand_undersampled` on
them before it estimates; its window sums read the raveled prefix-sum
arrays at flat corner offsets, 32-bit while those arrays have fewer than
2^31 entries. These three return a read-only `StatsView` mapping over
their arrays, in the per-voxel form the tests and the benchmark's count
hooks read: a voxel's scalar VoxelStats is built only when something looks
it up, so the pipeline itself builds none.

Both binary grid files, `.rcvs` here and `.rcdf` in `density`, start with
a magic and one `<3id3di` grid header (dims, voxel width, origin, row
index). `write_grid_header` writes it and `read_grid_file` checks it.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Mapping
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


class StatsView(Mapping):
    """Read-only mapping from voxel index (i, j, k) to VoxelStats over dense
    statistics `dense`: its keys are the voxels where `keys` is set, in C
    order. A voxel's scalar VoxelStats (Python int n and m, float sum_x) is
    built on its first lookup and kept, so each lookup returns the same
    object. Where `own` is set, the voxel is `base[key]` instead: a voxel
    that kept its own statistics is the caller's object."""

    def __init__(self, dense: VoxelStats, keys: np.ndarray,
                 base: Mapping | None = None, own: np.ndarray | None = None):
        self.dense = dense
        self._keys = keys
        self._base = base
        self._own = own
        self._built: dict[tuple[int, int, int], VoxelStats] = {}

    def __len__(self) -> int:
        return int(np.count_nonzero(self._keys))

    def __iter__(self):
        return zip(*(a.tolist() for a in np.nonzero(self._keys)))

    def __getitem__(self, key) -> VoxelStats:
        try:
            at = tuple(map(operator.index, key)) if isinstance(key, tuple) else ()
        except TypeError:
            at = ()
        # no negative indexing: (-1, 0, 0) is not the last voxel
        if not (len(at) == 3 and all(0 <= i < d for i, d in zip(at, self._keys.shape))
                and self._keys[at]):
            raise KeyError(key)
        s = self._built.get(at)
        if s is None:
            if self._own is not None and self._own[at]:
                s = self._base[at]
            else:
                d = self.dense
                s = VoxelStats(int(d.n[at]), int(d.m[at]), float(d.sum_x[at]))
            self._built[at] = s
        return s


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
    # zero-direction axes hit nothing if the origin lies outside the half-open slab
    outside = (deltas == 0) & ((origins < grid.origin) | (origins >= grid.upper))
    t_near = np.where(outside, np.inf, t_near)
    t0 = np.maximum(t_near.max(axis=1), 0.0)
    t1 = np.minimum(t_far.min(axis=1), 1.0)
    return t0, t1


def _walk(origins: np.ndarray, deltas: np.ndarray, grid: VoxelGrid):
    """Amanatides & Woo (1987) walk of every ray p = o + t*delta, t in [0, 1],
    through the grid, batch-vectorised across rays.

    Returns, per record (a voxel a ray crosses for longer than _EPS), the ray
    id, linear voxel index, entry t and exit t (capped at the ray's end), each
    ray's records in walk order and each step's records in ray order. All axes
    tied at an exit advance together, so an edge or corner crossing gives no
    zero-length record.

    The state of the rays still walking is one 1D array per axis for t_max,
    t_delta, voxel index and step, plus the linear voxel index, which moves by
    step × stride along with each axis. After each step every state array is
    filtered down to the rays that go on, so a step costs only those rays.
    """
    w = grid.voxel_width
    t0, t_end = _clip_to_grid(origins, deltas, grid)
    ids = np.nonzero(t_end - t0 > _EPS)[0]
    o = origins[ids]
    d = deltas[ids]
    t = t0[ids]
    tend = t_end[ids]

    p0 = o + t[:, None] * d
    ijk = np.floor((p0 - grid.origin) / w).astype(np.int64)
    np.clip(ijk, 0, np.asarray(grid.dims) - 1, out=ijk)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta = np.where(d != 0, np.abs(w / d), np.inf)
        next_bound = grid.origin + (ijk + (step > 0)) * w
        t_max = np.where(d != 0, (next_bound - o) / d, np.inf)
    lin = np.ravel_multi_index(ijk.T, grid.dims)
    _, d1, d2 = grid.dims
    # per axis: t_max, t_delta, voxel index, step and step × stride
    axes = [[a[:, k].copy() for a in (t_max, t_delta, ijk, step)] + [step[:, k] * stride]
            for k, stride in enumerate((d1 * d2, d2, 1))]

    empty = np.zeros(0, dtype=np.int64)
    records = [(empty, empty, empty.astype(float), empty.astype(float))]
    while len(ids):
        t_exit = np.minimum(np.minimum(axes[0][0], axes[1][0]), axes[2][0])
        t_emit = np.minimum(t_exit, tend)
        emit = t_emit - t > _EPS
        if np.any(emit):
            records.append((ids[emit], lin[emit], t[emit], t_emit[emit]))
        go = t_exit < tend
        for (tm, td, ix, st, lin_step), dim in zip(axes, grid.dims):
            tied = tm == t_exit
            tm += np.where(tied, td, 0.0)
            ix += np.where(tied, st, 0)
            lin += np.where(tied, lin_step, 0)
            go &= ix.view(np.uint64) < dim   # an index of -1 reads as 2^64 - 1
        t = t_exit
        if not np.all(go):
            ids, lin, t, tend = ids[go], lin[go], t[go], tend[go]
            axes = [[a[go] for a in axis] for axis in axes]
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


def accumulate(row_cloud: RayCloud, grid: VoxelGrid) -> StatsView:
    """Accumulate per-voxel statistics for every ray of the cloud.

    For each voxel a ray enters: n += 1 and its penetration depth x adds to
    sum_x. x is the ray's chord through the voxel, except in the voxel where
    the ray ends, where it is the entry-to-end length; a contact ending
    inside the voxel increments m. The rays are walked together (`_walk`) and
    the records are reduced onto the whole grid, one bincount per statistic:
    sum_x is a left-to-right sum from 0.0 over each voxel's records in walk
    order (by step, then by ray). Returns the grid-shaped planes (n and m
    int64, sum_x float64) as a StatsView whose keys are the voxels with
    n > 0, in ascending linear voxel index.
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
    n = np.bincount(vox, minlength=count).reshape(grid.dims)
    m = np.bincount(vox[hits], minlength=count).reshape(grid.dims)
    # float even when no ray crosses: bincount of nothing is int64 whatever its weights
    sum_x = np.bincount(vox, weights=x, minlength=count).astype(float, copy=False)
    return StatsView(VoxelStats(n, m, sum_x.reshape(grid.dims)), n > 0)


def _index_dtype(count: int) -> type:
    """The integer type of flat offsets into an array of `count` entries: 32-bit
    while every offset fits, which halves the offsets' memory."""
    return np.int32 if count < 2**31 else np.int64


def _corners(ijk, radius, dims, strides) -> tuple:
    """Flat offsets into a raveled inclusive 3D prefix-sum array (`strides` per
    axis) of the eight corners of the cube of Chebyshev radius `radius` around
    each voxel of `ijk` (three index arrays), clamped to the grid. `radius` is
    a scalar or one radius per voxel. Returns them in `_window_sums`' order."""
    # ix - radius <= d - 1 and ix + radius >= 0, so each clamp has one side
    l0, l1, l2 = (np.maximum(ix - radius, 0) * s for ix, s in zip(ijk, strides))
    h0, h1, h2 = ((np.minimum(ix + radius, d - 1) + 1) * s
                  for ix, d, s in zip(ijk, dims, strides))
    hh, lh, hl, ll = h0 + h1, l0 + h1, h0 + l1, l0 + l1
    return hh + h2, lh + h2, hl + h2, hh + l2, ll + h2, lh + l2, hl + l2, ll + l2


def _window_sums(prefix: np.ndarray, corners) -> np.ndarray:
    """Window sums from the raveled prefix-sum array `prefix` at the `corners`
    of `_corners`, by inclusion-exclusion, added left to right."""
    hhh, lhh, hlh, hhl, llh, lhl, hll, lll = corners
    s = prefix.take(hhh) - prefix.take(lhh)
    s -= prefix.take(hlh)
    s -= prefix.take(hhl)
    s += prefix.take(llh)
    s += prefix.take(lhl)
    s += prefix.take(hll)
    s -= prefix.take(lll)
    return s


def expand_undersampled(stats: StatsView, grid: VoxelGrid,
                        n_min: int = DEFAULT_N_MIN) -> StatsView:
    """Merge growing cubic neighbourhoods into voxels with n < n_min.

    Reads the raw planes under `stats` (as `accumulate` or `load_stats`
    returns them), which must have the grid's shape. The merged statistics
    replace the voxel's own for density estimation only; neighbours keep
    theirs. Covers every voxel of the grid, so unsampled voxels deep in the
    canopy borrow from their surroundings; voxels with n = 0 after
    exhausting the grid stay empty (unobserved). The search uses prefix sums
    (int64 for the counts) and, at each radius, evaluates only the voxels
    still short of n_min. Windows are read from the raveled prefix arrays at
    flat corner offsets, 32-bit while the prefix arrays have fewer than 2^31
    entries; the last pass reads all three planes at one set of corners.

    Returns new grid-shaped planes as a StatsView keyed by every voxel of
    the grid in C order; a voxel with n >= n_min is served as the caller's
    own VoxelStats object, `stats[key]`.
    """
    if n_min < 1:
        raise VoxelGridError(f"n_min {n_min} is below 1")
    dims, dense = tuple(grid.dims), stats.dense
    if dense.n.shape != dims:
        raise VoxelGridError(f"statistics of shape {dense.n.shape} do not fit grid {dims}")
    planes = (dense.n, dense.m, dense.sum_x)
    prefixes = []
    for f in planes:
        p = np.pad(f, (1, 0))
        for axis in range(3):   # in place: one grid-sized array per plane at a time
            np.cumsum(p, axis, out=p)
        prefixes.append(p.reshape(-1))
    _, d1, d2 = dims
    strides = ((d1 + 1) * (d2 + 1), d2 + 1, 1)
    index = _index_dtype(prefixes[0].size)

    own = dense.n >= n_min
    max_radius = max(dims) - 1
    short = np.flatnonzero(~own)
    ijk = [a.astype(index) for a in np.unravel_index(short, dims)]
    # whole grid, unless a smaller cube reaches n_min
    radius = np.full(len(short), max_radius, dtype=index)
    pending, at = np.arange(len(short)), ijk
    for r in range(1, max_radius):
        if len(pending) == 0:
            break
        enough = _window_sums(prefixes[0], _corners(at, r, dims, strides)) >= n_min
        radius[pending[enough]] = r
        pending = pending[~enough]
        at = [a[~enough] for a in at]

    corners = _corners(ijk, radius, dims, strides)
    merged = [f.copy() for f in planes]
    for f, p in zip(merged, prefixes):
        f.put(short, _window_sums(p, corners))
    # n == 0 even over the whole grid: unobserved, all three fields zero
    unobserved = merged[0] == 0
    for f in merged[1:]:
        f[unobserved] = 0
    return StatsView(VoxelStats(*merged), np.ones(dims, dtype=bool), stats, own)


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


_MAGIC = b"RCVS\x03"
_PLANES = ("<i8", "<i8", "<f8")      # n, m, sum_x: whole grid, row-major


def save_stats(stats: StatsView, grid: VoxelGrid, path) -> None:
    """Write the raw statistics that `accumulate` returns as the grid's three
    dense planes, bit for bit."""
    dense = stats.dense
    with open(path, "wb") as fh:
        write_grid_header(fh, _MAGIC, grid)
        for plane, dtype in zip((dense.n, dense.m, dense.sum_x), _PLANES):
            fh.write(plane.astype(dtype).tobytes())


def load_stats(path) -> tuple[StatsView, VoxelGrid]:
    """Read a save_stats file back as `accumulate` returned it: a StatsView
    over the planes (n and m int64, sum_x float64), keyed by the voxels with
    n > 0, plus the grid. Each fault raises VoxelGridError naming the file,
    and the voxel where there is one."""
    grid, body = read_grid_file(path, _MAGIC, "voxel statistics",
                                lambda count: 8 * len(_PLANES) * count)
    count = grid.voxel_count
    n, m, sum_x = (np.frombuffer(body, dt, count, 8 * count * i).astype(dt[1:]).reshape(grid.dims)
                   for i, dt in enumerate(_PLANES))
    for bad, needs in (((m < 0) | (m > n) | ~np.isfinite(sum_x), "0 <= m <= n and a finite sum_x"),
                       ((sum_x < 0) | ((m > 0) & (sum_x == 0)),
                        "sum_x >= 0, and sum_x > 0 where m > 0"),
                       # a stray depth in an uncrossed voxel would leak into every pooled window
                       ((n == 0) & (sum_x != 0), "sum_x = 0 where n = 0")):
        if bad.any():
            v = tuple(int(i) for i in np.argwhere(bad)[0])
            raise VoxelGridError(f"{path}: voxel {v}: n={n[v]}, m={m[v]}, sum_x={sum_x[v]}: "
                                 f"needs {needs}")
    return StatsView(VoxelStats(n, m, sum_x), n > 0), grid


# the names perfbench/spans.py traces as voxels.dump_csv_s and voxels.load_csv_s
dump_stats_csv = save_stats
load_stats_csv = load_stats
