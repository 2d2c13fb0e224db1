"""Per-row voxel grid, ray walk and sufficient-statistic accumulation.

Each voxel records four numbers, the sufficient statistics of the density
estimator: the entering-ray count n, the contact count m, the summed
penetration depths sum_x and the summed unimpeded path lengths sum_y. Voxel
intervals are half-open: a point exactly on a face belongs to the voxel with
the larger index. One batched Amanatides & Woo walk (`_walk`) serves both
`accumulate` and the one-ray `traverse`.

A row's statistics are a dict of up to some 10^5 VoxelStats, one per voxel.
Those dicts, and the CSV writer's argument tuple, are built with cyclic
garbage collection suspended (`gc_paused`): every few hundred tracked
allocations start a collection that walks the young objects, and as the
new objects hold only ints and floats, those collections free nothing
while taking a large share of the build time.
"""

from __future__ import annotations

import gc
import io
import itertools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

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

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_width

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))


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


def _walk(origins: np.ndarray, deltas: np.ndarray, grid: VoxelGrid):
    """Amanatides & Woo (1987) walk of every ray p = o + t*delta, t in [0, 1],
    through the grid, batch-vectorised across rays.

    Returns, per record (a voxel a ray crosses for longer than _EPS), the ray
    id, linear voxel index, entry t and exit t, uncapped by the ray's end
    (the unimpeded chord's), each ray's records in walk order; plus every
    ray's end t clipped to the grid. All axes tied at an exit advance
    together, so an edge or corner crossing gives no zero-length record.
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
            lin = (ijk[e, 0] * dims[1] + ijk[e, 1]) * dims[2] + ijk[e, 2]
            records.append((ids[e], lin, t[e], t_exit[emit]))
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
    return (*map(np.concatenate, zip(*records)), t_end)


def traverse(ray, grid: VoxelGrid) -> list[tuple[tuple[int, int, int], float, float]]:
    """One ray's walk through the grid: `_walk`, the walk `accumulate` runs,
    called on this ray alone.

    Returns ordered (voxel index, entry_param, exit_param) with parameters as
    fractions of the full ray and the exit capped at the ray's clipped end;
    contiguous, and empty if the ray misses.
    """
    origin = np.asarray(ray.origin, dtype=float)[None, :]
    delta = np.asarray(ray.endpoint, dtype=float) - origin
    _, vox, t0, t1, t_end = _walk(origin, delta, grid)
    keys = zip(*(a.tolist() for a in np.unravel_index(vox, grid.dims)))
    return list(zip(keys, t0.tolist(), np.minimum(t1, t_end[0]).tolist()))


def accumulate(row_cloud: RayCloud, grid: VoxelGrid) -> dict[tuple[int, int, int], VoxelStats]:
    """Accumulate per-voxel statistics for every ray of the cloud.

    For each voxel a ray enters: n += 1, its unimpeded chord y through the
    voxel adds to sum_y and its penetration depth x adds to sum_x. x equals y
    except in the voxel where the ray ends, where it is the entry-to-end
    length; a contact ending inside the voxel increments m. The rays are
    walked together (`_walk`), and the records are reduced per voxel in
    array operations: sum_x and sum_y equal, bit for bit, ndarray.sum over
    each voxel's x and y in record order (by walk step, then by ray).
    """
    n_rays = len(row_cloud)
    origins = row_cloud.origins
    deltas = row_cloud.endpoints - origins
    lengths = np.linalg.norm(deltas, axis=1)
    w = grid.voxel_width
    dims = np.asarray(grid.dims)
    ray_id, vox, ta, tb, t_end = _walk(origins, deltas, grid)
    if len(vox) == 0:
        return {}

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

    # stable, so each voxel sums its records in walk order: by step, then ray
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
    with gc_paused():
        return dict(zip(keys, map(VoxelStats, n.tolist(), m.tolist(),
                                  sum_x.tolist(), sum_y.tolist())))


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
    # n == 0 even over the whole grid: unobserved, all four fields zero
    unobserved = merged[0] == 0
    for dense in merged[1:]:
        dense[unobserved] = 0
    with gc_paused():
        full = dict(zip(itertools.product(*map(range, dims)),
                        map(VoxelStats, *(a.ravel().tolist() for a in merged))))
        full.update((key, stats[key]) for key in zip(*(a.tolist() for a in np.nonzero(own))))
    return full


def dump_stats_csv(stats: dict, grid: VoxelGrid, path) -> None:
    """One row per voxel with counts and depth/path sums, plus the grid header.

    Rows go in sorted voxel order. Sums are written with %.9g, nine
    significant digits, so a reread sum can differ from the computed one by
    up to 5e-9 relative. The body is one %-format call over all rows.
    """
    keys = sorted(stats)
    with gc_paused():
        values = tuple(itertools.chain.from_iterable(
            (*key, s.n, s.m, s.sum_x, s.sum_y)
            for key, s in zip(keys, map(stats.__getitem__, keys))))
    with open(path, "w") as f:
        f.write(f"# grid {grid.origin[0]:.9g} {grid.origin[1]:.9g} {grid.origin[2]:.9g} "
                f"{grid.voxel_width:.9g} {grid.dims[0]} {grid.dims[1]} {grid.dims[2]} "
                f"{grid.row_index}\n")
        f.write("row,i,j,k,n,m,sum_x,sum_y\n")
        f.write(f"{grid.row_index},%d,%d,%d,%d,%d,%.9g,%.9g\n" * len(keys) % values)


_COLUMNS = np.dtype([(name, np.int64) for name in ("row", "i", "j", "k", "n", "m")]
                    + [("sum_x", np.float64), ("sum_y", np.float64)])


def load_stats_csv(path) -> tuple[VoxelStats, VoxelGrid]:
    """Read a dump_stats_csv file back as dense statistics plus its grid.

    The statistics are one VoxelStats whose fields are arrays of the grid's
    shape: n and m int64, sum_x and sum_y float64, zero at every voxel the
    file does not list. The body is parsed in one np.loadtxt call and checked
    in array operations; if that parse or a check fails, the body is read
    again line by line (`_parse_lines`), which accepts exactly the same files
    and raises VoxelGridError naming file:line and the fault.
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
        body = f.read()
    if body and not _parse_body(body, stats):
        _parse_lines(body, stats, path)
    return stats, grid


def _parse_body(body: str, stats: VoxelStats) -> bool:
    """Fill `stats` from the CSV body in array operations; False, with `stats`
    untouched, if any line fails to parse or check."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # e.g. "input contained no data"
            rows = np.loadtxt(io.StringIO(body), dtype=_COLUMNS, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return False
    # loadtxt skips empty lines; the line-by-line reader rejects them
    if len(rows) != body.count("\n") + (not body.endswith("\n")):
        return False
    ijk = tuple(rows[c] for c in "ijk")
    n, m = rows["n"], rows["m"]
    inside = np.logical_and.reduce([(0 <= v) & (v < d) for v, d in zip(ijk, stats.n.shape)])
    if not (inside & (0 <= m) & (m <= n)).all():
        return False
    lin = np.ravel_multi_index(ijk, stats.n.shape)
    if len(np.unique(lin)) != len(lin):
        return False
    for dense, column in zip((stats.n, stats.m, stats.sum_x, stats.sum_y),
                             ("n", "m", "sum_x", "sum_y")):
        dense.flat[lin] = rows[column]
    return True


def _parse_lines(body: str, stats: VoxelStats, path) -> None:
    """Fill `stats` from the CSV body line by line, checking each line as it
    is read; a fault raises VoxelGridError naming file:line."""
    dims = stats.n.shape
    di, dj, dk = dims
    listed_on = np.zeros(dims, dtype=np.int64)   # line number of each listed voxel
    for lineno, line in enumerate(io.StringIO(body), 3):
        try:
            row, i, j, k, n, m, sum_x, sum_y = line.split(",")
            int(row)
            i, j, k, n, m = int(i), int(j), int(k), int(n), int(m)
            if not (0 <= i < di and 0 <= j < dj and 0 <= k < dk):
                raise ValueError(f"voxel {(i, j, k)} outside grid {dims}")
            if not 0 <= m <= n:
                raise ValueError(f"m={m} out of range for n={n}")
            if listed_on[i, j, k]:
                raise ValueError(f"voxel {(i, j, k)} already listed on line {listed_on[i, j, k]}")
            listed_on[i, j, k] = lineno
            stats.n[i, j, k], stats.m[i, j, k] = n, m
            stats.sum_x[i, j, k], stats.sum_y[i, j, k] = float(sum_x), float(sum_y)
        except (ValueError, OverflowError) as exc:   # overflow: a count past int64
            raise VoxelGridError(f"{path}:{lineno}: {exc}") from None
