"""Monte Carlo validation of the voxel density estimator.

Three families of experiment: 1D turbid-medium bias curves for the censored
exponential model, 3D triangular-leaf voxel trials, and a comparison of
trawling (push-broom) versus spinning lidar ray distributions over
anisotropic leaf-normal ellipsoids, all estimated with `density.estimate`.

The triangular-leaf experiments run in two phases. Draw: each cell's leaf
scenes, then its rays, come whole from the one generator in cell order
(`_draw_cell`). Measure: consecutive cells whose expected rays plus
ray/leaf pairs fit PAIR_BUDGET form a batch (`_measure`), whose trial ids
run across its cells. The batch's trials are measured in consecutive
slices whose drawn rays plus pairs fit PAIR_BUDGET, so a cell larger than
the budget is measured in several slices: per slice, one `clipped_area`
call for the true densities, one `_first_hits` call over a single
(ray, triangle) pair list and one bincount per statistic. `estimate`, the
mean and the standard error then run on each whole cell. A batch is
measured before the next cell is drawn, so memory follows the largest
cell's draws and the budget, not the trial count. No output bit depends on
where batches or slices end.
The 1D bias curves likewise draw each cell in slices of TURBID_DRAWS draws.
Most pairs cannot hit, so `_first_hits` runs Möller–Trumbore only on the
pairs whose ray passes through the leaf's padded centroid ball or runs
nearly parallel to the leaf; culling changes no output bit. `clipped_area`
keeps the plain area of leaves wholly inside the voxel and clips the rest
plane by plane, each plane working only on the polygons that reach past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DEFAULT_G, estimate

SPIN_MAX_ANGLE_DEG = 70.0
TRIANGLE_AREA_FACTOR = np.sqrt(3.0 / 4.0)   # area of unit-side equilateral triangle

# Fig 7(a) leaf configurations: (side length l [m], total leaf area A [m^2])
TRIANGLE_BIAS_CONFIGS = (
    (0.1, 0.012), (0.1, 0.04), (0.05, 0.003),
    (0.05, 0.01), (0.025, 0.012), (0.025, 0.001),
)
TABLE1_NORMAL_SPECS = ((10, 1, 1), (1, 10, 1), (1, 1, 10), (1, 1, 1))
VOXEL_WIDTH = 0.1   # m, side of the simulated voxel in every triangular-leaf experiment
# Fig 7(b) error-surface axes: leaf side length l [m] and total leaf area A [m^2]
ERROR_SURFACE_SIDES = np.linspace(0.025, 0.10, 7)
ERROR_SURFACE_AREAS = np.linspace(0.001, 0.031, 7)
TRAWL_LEAF = (0.06, 0.02)   # Table 1 leaves: (side length l [m], total leaf area A [m^2])

# `_first_hits` culls a ray/leaf pair when the ray's line passes farther than
# r·(1 + CULL_REL_MARGIN) + CULL_ABS_MARGIN from the leaf's centroid, r being
# the radius of the centroid-centred ball that holds the leaf. The exact
# line/plane intersection then lies at least that padding outside the leaf,
# so the exact u, v fail. Möller's det is d·(e2 × e1), which shrinks with
# |n̂·d̂|, so its rounding moves the tested point by about
# 10·2^-53·(|s| + l)/|n̂·d̂| (s = start − v0, l ≤ 2r the longest edge). Pairs
# with |n̂·d̂| ≤ CULL_PARALLEL are always tested; for the rest that error is at
# most 1.1e-9·(|s| + l). The relative margin covers the l part 200 times over,
# and the absolute one covers |s| up to about 90 m, 900 voxel widths. The
# cull's own squared distance, |w|² − (w·d̂)² with w = centroid − start and
# each dot product summed x, then y, then z as the pair's coordinates are
# gathered, has a rounding error near 1e-16 m² at these scales, far below
# the padding (at least 2·CULL_REL_MARGIN·r²).
CULL_REL_MARGIN = 1e-6
CULL_ABS_MARGIN = 1e-7      # m
CULL_PARALLEL = 1e-6        # |n̂·d̂| at or below which a pair is always tested
# The triangle-leaf experiments batch consecutive cells while their expected
# rays plus ray/leaf pairs, trials·n·(1 + mean leaves), stay within this
# budget, and measure each batch in trial slices whose drawn rays plus pairs
# stay within it (one trial at least). A `_first_hits` call holds about 80 B
# per pair at its peak (tracemalloc), so the budget bounds the measuring
# memory whatever the trial count; it moves no output bit. Peak RSS on a
# 2-vCPU VM, against measuring each large cell whole: criterion 1's
# triangle_bias_experiment(trials=4000) 66–71 MB (was 264 MB), and with
# TURBID_DRAWS and synthetic.MARCH_BUDGET the validation benchmark 48–50 MB
# (was 65 MB).
PAIR_BUDGET = 1 << 15
# `bias_curves` draws and estimates each cell in slices of at most this many
# draws (at least one trial); no output bit depends on it. A slice's 4 MB of
# draws is the suite's largest short-lived array, and under glibc's malloc
# freeing it lets later pair arrays reuse heap pages: a validation benchmark
# iteration takes about 60 minor page faults, against 37k at 1 << 16, which
# was slower in most paired runs (2-vCPU VM) for 0.3 MB less peak RSS.
TURBID_DRAWS = 1 << 19


class SimulationError(ValueError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    # counter-based generator: reproducible and cheap to re-key
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class NormalDistributionSpec:
    """Leaf-normal ellipsoid: draw from the axis-scaled sphere and normalise."""

    eccentricity: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if any(e <= 0 for e in self.eccentricity):
            raise SimulationError("eccentricity components must be positive")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        v = rng.normal(size=(count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= np.asarray(self.eccentricity, dtype=float)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v


# ---------------------------------------------------------------------------
# 1D turbid medium


def sample_turbid(lam: float, n: int, y: float, trials: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial interception counts m and depths x for the censored model.

    Each of n rays per trial draws an exponential(lam) interception distance;
    draws longer than the voxel depth y are censored at y (`y = inf` censors
    none). Returns (m, x) with shapes (trials,) and (trials, n).
    """
    if not (lam > 0 and n >= 1 and y > 0):
        raise SimulationError(f"invalid turbid cell: lam={lam}, n={n}, y={y}")
    x = rng.exponential(1.0 / lam, size=(trials, n))
    m = np.count_nonzero(x <= y, axis=1)
    np.minimum(x, y, out=x)
    return m, x


def _turbid_estimates(m: np.ndarray, x: np.ndarray, estimator: str) -> np.ndarray:
    # "uncensored" is the debiased mean at y = inf (bias_curves checks), where
    # every ray is intercepted: m = n, so it reads (n-1)/sum(x_i)
    if estimator not in ("debiased", "uncensored", "ml-mode"):
        raise SimulationError(f"unknown estimator {estimator!r}")
    mode = estimator == "ml-mode"   # the raw mode, or else the debiased mean
    return estimate(x.shape[1], m, x.sum(axis=1), 1.0, "mode" if mode else "mean",
                    debias=not mode)


def _check_counts(trials: int, n_name: str, n_values) -> None:
    """Every experiment needs two trials for a standard error and two rays
    per voxel for an estimate: the raw bias reference 1/(n-1) and the
    debias factor (n-1)/n both fail at n = 1."""
    if not trials >= 2:
        raise SimulationError(f"trials must be at least 2, got {trials}")
    small = [n for n in np.ravel(n_values).tolist() if not n >= 2]
    if small:
        got = small if np.ndim(n_values) else small[0]
        raise SimulationError(f"{n_name} must be at least 2, got {got}")


def bias_curves(lambda_grid, n_grid, trials: int = 100_000, estimator: str = "debiased",
                y: float = 1.0, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mean normalised error (est - lam)/lam per (lambda, n) cell, with its
    standard error. `y = inf` disables censoring, which the "uncensored"
    estimator (n-1)/sum(x) needs.

    Each cell is drawn and estimated in consecutive slices of at most
    TURBID_DRAWS draws (at least one trial each), reading the generator in
    the order of one whole-cell draw; every trial's row and error are as
    from that draw, and the mean and SE run over all of the cell's errors.
    """
    _check_counts(trials, "n_grid", n_grid)
    if estimator == "uncensored" and y != np.inf:
        raise SimulationError(f"the uncensored estimator needs y = inf, got y={y}")
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    n_grid = np.asarray(n_grid, dtype=int)
    err = np.zeros((len(lambda_grid), len(n_grid)))
    se = np.zeros_like(err)
    rng = make_rng(seed)
    for a, lam in enumerate(lambda_grid):
        for b, n in enumerate(n_grid):
            step = max(1, TURBID_DRAWS // int(n))   # trials per slice
            rel = np.empty(trials)
            for lo in range(0, trials, step):
                # the draws are freed here, before the next slice is drawn
                est = _turbid_estimates(*sample_turbid(lam, int(n), y, min(step, trials - lo),
                                                       rng), estimator)
                rel[lo:lo + step] = (est - lam) / lam
            err[a, b] = rel.mean()
            se[a, b] = rel.std(ddof=1) / np.sqrt(trials)
    return err, se


# ---------------------------------------------------------------------------
# triangle-leaf geometry


def _cross(a, b, out):
    """out = a x b on per-coordinate rows (a[0] holds every x), with
    np.cross's products in its order, so every bit is np.cross's."""
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def _triangle_vertices(centres: np.ndarray, normals: np.ndarray, phi: np.ndarray,
                       side: float) -> np.ndarray:
    """Equilateral triangles of the given side, centred and oriented as specified."""
    ref = np.where(np.abs(normals[:, 2:3]) < 0.9,
                   np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    u = np.empty_like(normals)
    _cross(normals.T, ref.T, u.T)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.empty_like(normals)
    _cross(normals.T, u.T, v.T)
    r = side / np.sqrt(3.0)   # circumradius
    angles = phi[:, None] + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])[None, :]
    return (centres[:, None, :]
            + r * (np.cos(angles)[..., None] * u[:, None, :]
                   + np.sin(angles)[..., None] * v[:, None, :]))


def _half_norm(c) -> np.ndarray:
    """Half the length of each column of rows c, summed as np.linalg.norm does."""
    return 0.5 * np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])


def clipped_area(triangles: np.ndarray, w: float) -> np.ndarray:
    """Area of each triangle clipped to the voxel box [0, w]^3.

    A triangle wholly inside the box keeps its plain area. The others are
    clipped by Sutherland-Hodgman against the six box planes (`_clip`),
    and each area is the fan sum of cross products from the first vertex.
    """
    v = triangles.transpose(2, 1, 0)             # (axis, vertex, triangle)
    area = np.empty(len(triangles))
    inside = np.all((v >= 0.0) & (v <= w), axis=(0, 1))
    a = v[:, :, inside]
    area[inside] = _half_norm(_cross(a[:, 1] - a[:, 0], a[:, 2] - a[:, 0],
                                     np.empty(a[:, 0].shape)))
    crossing = ~inside
    if crossing.any():
        poly, count = _clip(v[:, :, crossing], w)
        k = len(count)
        fan = np.zeros((3, k))
        part = np.empty((3, k))
        o = poly[:, :k]
        for i in range(1, int(count.max()) - 1):
            _cross(poly[:, i * k:(i + 1) * k] - o, poly[:, (i + 1) * k:(i + 2) * k] - o, part)
            np.add(fan, part, out=fan, where=i + 1 < count)
        area[crossing] = _half_norm(fan)
    return area


def _clip(tri: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of triangles (axis, vertex, triangle) to
    [0, w]^3; returns (rows, vertex count of each polygon).

    Polygon j's slot i is column i * k + j of the three coordinate rows, so
    one slot of every polygon is a contiguous run. A plane clips only the
    polygons with a vertex outside it, as any other would pass unchanged,
    and computes intersections only on the edges that cross it. Rounding can
    make a clipped polygon cross a later plane more than twice, so slots are
    added as the counts need them.
    """
    k = tri.shape[2]
    poly = tri.reshape(3, 3 * k)
    count = np.full(k, 3)
    width = 3
    for axis in range(3):
        for sign, bound in ((1.0, 0.0), (-1.0, w)):
            slots = np.arange(width)[:, None]
            d = sign * (poly[axis].reshape(width, k) - bound)
            act = np.flatnonzero(np.any((slots < count) & ~(d >= 0), axis=0))
            if not len(act):
                continue
            c = count[act]
            at = slots * k + act                 # (slot, polygon) columns of poly
            d = d[:, act]
            g = d >= 0
            g_next = np.roll(g, -1, axis=0)
            g_next[c - 1, np.arange(len(act))] = g[0]   # the last edge closes the polygon
            valid = slots < c
            keep = valid & g
            cross = valid & (g != g_next)
            emit = keep.astype(np.int64) + cross
            first = np.zeros_like(emit)          # output slot of each vertex
            for slot in range(1, width):         # a cumsum down so few rows is slower
                np.add(first[slot - 1], emit[slot - 1], out=first[slot])
            new_count = first[-1] + emit[-1]

            kf = np.flatnonzero(keep)
            kept = np.take(poly, at.ravel()[kf], axis=1)
            kept_at = first.ravel()[kf] * k + act[kf % len(act)]
            cf = np.flatnonzero(cross)
            i, col = np.divmod(cf, len(act))
            j = np.where(i + 1 < c[col], i + 1, 0)
            da = d.ravel()[cf]
            t = da / (da - d[j, col])
            start = np.take(poly, at.ravel()[cf], axis=1)
            inter = start + (np.take(poly, j * k + act[col], axis=1) - start) * t
            inter_at = (first.ravel()[cf] + keep.ravel()[cf]) * k + act[col]

            if new_count.max() > width:
                grown = int(new_count.max())
                poly = np.concatenate([poly, np.zeros((3, (grown - width) * k))], axis=1)
                width = grown
            for a in range(3):
                poly[a, kept_at] = kept[a]
                poly[a, inter_at] = inter[a]
            count[act] = new_count
    return poly, count


def _moller(starts, dirs, v0, v1, v2):
    """Pairwise ray/triangle test; returns (hit mask, distance along ray)."""
    e1 = v1 - v0
    e2 = v2 - v0
    h = np.empty_like(e2)
    _cross(dirs.T, e2.T, h.T)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = starts - v0
    u = inv * np.einsum("ij,ij->i", s, h)
    q = np.empty_like(s)
    _cross(s.T, e1.T, q.T)
    v = inv * np.einsum("ij,ij->i", dirs, q)
    t = inv * np.einsum("ij,ij->i", e2, q)
    hit = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
    return hit, t


def _rays_uniform_chords(count: int, w: float, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random chords: endpoint pairs uniform on the voxel surface (distinct faces)."""
    def surface_points(k):
        face = rng.integers(0, 6, k)
        uv = rng.uniform(0.0, w, size=(k, 2))
        pts = np.empty((k, 3))
        axis = face // 2
        rows = np.arange(k)
        pts[rows, axis] = (face % 2).astype(float) * w
        pts[rows, (axis == 0).astype(np.int64)] = uv[:, 0]   # the lower other axis
        pts[rows, 2 - (axis == 2)] = uv[:, 1]                # the upper other axis
        return pts, face

    p1, f1 = surface_points(count)
    p2, f2 = surface_points(count)
    bad = f1 == f2
    while np.any(bad):   # same-face chords lie on the surface; resample them
        k = int(bad.sum())
        p2[bad], f2[bad] = surface_points(k)
        bad = f1 == f2
    delta = p2 - p1
    chord = np.linalg.norm(delta, axis=1)
    dirs = delta / chord[:, None]
    return p1, dirs, chord


def _rays_trawling(count: int, w: float, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    starts = np.column_stack([np.zeros(count),
                              rng.uniform(0.0, w, count), rng.uniform(0.0, w, count)])
    dirs = np.tile(np.array([1.0, 0.0, 0.0]), (count, 1))
    return starts, dirs, np.full(count, w)


def _rays_spinning(count: int, w: float, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform field of horizontal rays, angle 0..SPIN_MAX_ANGLE_DEG from +x.

    Each ray is a uniformly offset chord of the square cross-section (not a
    point on the inflow face), matching a distant scanner sweeping the voxel.
    """
    corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, w], [w, w]])

    def chords(k):
        theta = rng.uniform(0.0, np.deg2rad(SPIN_MAX_ANGLE_DEG), k)
        theta *= rng.choice((-1.0, 1.0), k)
        d2 = np.column_stack([np.cos(theta), np.sin(theta)])
        perp = np.column_stack([-d2[:, 1], d2[:, 0]])
        proj = perp @ corners.T                      # (k, 4)
        offset = rng.uniform(proj.min(axis=1), proj.max(axis=1))
        p0 = offset[:, None] * perp
        # clip the 2D line p0 + t*d2 to the square
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (0.0 - p0) / d2
            t_hi = (w - p0) / d2
        near = np.where(d2 != 0, np.minimum(t_lo, t_hi), -np.inf)
        far = np.where(d2 != 0, np.maximum(t_lo, t_hi), np.inf)
        t0 = near.max(axis=1)
        return p0 + t0[:, None] * d2, d2, np.maximum(far.min(axis=1) - t0, 0.0)

    xy0, d2, chord = chords(count)
    bad = chord <= 1e-12
    while np.any(bad):   # offsets through a corner graze the square; redraw them
        xy0[bad], d2[bad], chord[bad] = chords(int(bad.sum()))
        bad = chord <= 1e-12
    starts = np.column_stack([xy0, rng.uniform(0.0, w, count)])
    dirs = np.column_stack([d2, np.zeros(count)])
    return starts, dirs, chord


RAY_MODELS = {"uniform-random": _rays_uniform_chords, "trawling": _rays_trawling,
              "spinning": _rays_spinning}


# ---------------------------------------------------------------------------
# flattened multi-trial engine for the 3D experiments


def _mean_leaves(side: float, area: float) -> float:
    """Expected leaves per trial: area / triangle area."""
    return area / (TRIANGLE_AREA_FACTOR * side ** 2)


def _draw_leaves(w: float, side: float, area: float, trials: int,
                 normals: NormalDistributionSpec, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Leaf triangles of `trials` voxels in trial order (T, 3, 3), and the
    leaf count per trial: Poisson around `_mean_leaves` (a spatial Poisson
    process implies Poisson counts)."""
    counts = rng.poisson(_mean_leaves(side, area), trials)
    total = int(counts.sum())
    if not total:
        return np.zeros((0, 3, 3)), counts
    centres = rng.uniform(0.0, w, size=(total, 3))
    n_vec = normals.sample(total, rng)
    phi = rng.uniform(0.0, 2 * np.pi, total)
    return _triangle_vertices(centres, n_vec, phi, side), counts


def _true_density(tris: np.ndarray, counts: np.ndarray, w: float) -> np.ndarray:
    """Each trial's clipped one-sided leaf area / voxel volume, trial t
    holding the counts[t] triangles after the previous trials'. It is
    measured from the geometry, so the sampling choice cannot bias
    validation."""
    trial_of_tri = np.repeat(np.arange(len(counts)), counts)
    return np.bincount(trial_of_tri, weights=clipped_area(tris, w), minlength=len(counts)) / w ** 3


def _leaf_bounds(tris: np.ndarray) -> np.ndarray:
    """The cull's per-leaf rows: centroid (3), unit normal (3) and the squared
    padded radius of the centroid-centred ball that holds the leaf. A
    degenerate leaf has no normal; its radius is infinite, so that every
    pair with it is tested.
    """
    v = tris.transpose(1, 2, 0)                  # (vertex, axis, leaf)
    rows = np.empty((7, len(tris)))
    centre, normal = rows[:3], rows[3:6]
    np.add(v[0] + v[1], v[2], out=centre)
    centre /= 3.0
    _cross(v[1] - v[0], v[2] - v[0], normal)
    norm = np.linalg.norm(normal, axis=0)
    flat = ~(norm > 0.0)
    normal /= np.where(flat, 1.0, norm)
    off = v - centre
    radius = np.sqrt(np.einsum("ijk,ijk->ik", off, off).max(axis=0))
    rows[6] = np.where(flat, np.inf, (radius * (1.0 + CULL_REL_MARGIN) + CULL_ABS_MARGIN) ** 2)
    return rows


def _first_hits(starts: np.ndarray, dirs: np.ndarray, chord: np.ndarray,
                tris: np.ndarray, counts: np.ndarray, trial_of_ray: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest leaf hit of each ray within its own trial's scene.

    Ray i is tested against the counts[trial_of_ray[i]] triangles of its
    trial's block of `tris`. Returns (hit mask, penetration depth x): x is the
    distance to the nearest hit inside the voxel, or the chord if none.

    Only pairs that can hit reach `_moller`: a pair is culled when the ray's
    line misses the leaf's centroid ball padded by CULL_REL_MARGIN and
    CULL_ABS_MARGIN, unless the ray is within CULL_PARALLEL of the leaf's
    plane, where Möller's u and v lose precision (the constants' comment
    bounds the error). Kept pairs get the same arithmetic on the same values,
    and the nearest hit is a minimum over the valid ones, so every output
    bit is as without the cull.
    """
    n_rays = len(starts)
    if not len(tris):
        return np.zeros(n_rays, dtype=bool), chord.copy()
    pairs_per_ray = counts[trial_of_ray]
    ray_idx = np.repeat(np.arange(n_rays), pairs_per_ray)
    # triangle ids of each pair: offsets within the ray's trial block
    first_pair = np.cumsum(pairs_per_ray) - pairs_per_ray
    first_tri = np.cumsum(counts) - counts
    tri_idx = np.arange(len(ray_idx)) - np.repeat(first_pair - first_tri[trial_of_ray],
                                                  pairs_per_ray)

    # the cull gathers and sums one coordinate at a time (x, then y, then z),
    # so no pair-length array holds more than one coordinate
    unit = dirs.T / np.linalg.norm(dirs, axis=1)
    bounds = _leaf_bounds(tris)
    wd, ww, nd = (np.zeros(len(ray_idx)) for _ in range(3))
    for a in range(3):
        d = np.take(unit[a], ray_idx)
        w = np.take(bounds[a], tri_idx)          # centroid - start
        w -= np.take(starts[:, a], ray_idx)
        wd += w * d
        ww += w * w
        nd += np.take(bounds[3 + a], tri_idx) * d
    near = ww - wd * wd <= np.take(bounds[6], tri_idx)
    keep = np.flatnonzero(near | (nd * nd <= CULL_PARALLEL ** 2))
    ray_idx, tri_idx = ray_idx[keep], tri_idx[keep]

    v = np.take(tris, tri_idx, axis=0)
    hit, t = _moller(np.take(starts, ray_idx, axis=0), np.take(dirs, ray_idx, axis=0),
                     v[:, 0], v[:, 1], v[:, 2])
    valid = np.flatnonzero(hit & (t >= 0.0) & (t <= chord[ray_idx]))
    t_near = np.full(n_rays, np.inf)
    np.minimum.at(t_near, ray_idx[valid], t[valid])
    hit_mask = t_near < chord
    return hit_mask, np.where(hit_mask, t_near, chord)


def _draw_cell(w: float, side: float, area: float, n: int, trials: int, kind: str,
               normals: NormalDistributionSpec, rng: np.random.Generator) -> tuple:
    """One cell's draws, leaf scenes then rays (RAY_MODELS[kind]):
    (n, triangles, leaf counts, starts, dirs, chords)."""
    if kind not in RAY_MODELS:
        raise SimulationError(f"unknown ray distribution {kind!r}")
    tris, counts = _draw_leaves(w, side, area, trials, normals, rng)
    return (n, tris, counts, *RAY_MODELS[kind](trials * n, w, rng))


def _measure(batch: list[tuple], w: float, debias: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-trial (estimated density, true density) of each drawn cell in
    `batch`.

    Trial ids run across the batch's cells, and the trials are measured in
    consecutive slices whose rays plus ray/leaf pairs, n·(1 + leaves) per
    trial, stay within PAIR_BUDGET, with at least one trial per slice. Each
    slice gets one `clipped_area`, one `_first_hits` and one bincount per
    statistic. Each result is per trial or per ray, and bincount adds each
    trial's values in the same order, so every bit is as when each cell is
    measured alone and whole. `estimate` runs on each whole cell.
    """
    ns = [cell[0] for cell in batch]
    trials = [len(cell[2]) for cell in batch]
    tris, counts, starts, dirs, chord = (parts[0] if len(parts) == 1 else np.concatenate(parts)
                                         for parts in list(zip(*batch))[1:])
    rays = np.repeat(ns, trials)
    first_ray = np.concatenate([[0], np.cumsum(rays)])
    first_tri = np.concatenate([[0], np.cumsum(counts)])
    cost = np.concatenate([[0], np.cumsum(rays * (1 + counts))])
    rho, m, sum_x = (np.empty(len(counts)) for _ in range(3))
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(cost, cost[lo] + PAIR_BUDGET, side="right")) - 1)
        r, t = slice(first_ray[lo], first_ray[hi]), slice(first_tri[lo], first_tri[hi])
        trial_of_ray = np.repeat(np.arange(hi - lo), rays[lo:hi])
        rho[lo:hi] = _true_density(tris[t], counts[lo:hi], w)
        hit_mask, x = _first_hits(starts[r], dirs[r], chord[r], tris[t], counts[lo:hi],
                                  trial_of_ray)
        m[lo:hi] = np.bincount(trial_of_ray, weights=hit_mask.astype(float), minlength=hi - lo)
        sum_x[lo:hi] = np.bincount(trial_of_ray, weights=x, minlength=hi - lo)
        lo = hi
    bounds = np.cumsum([0] + trials)
    return [(estimate(n, m[lo:hi], sum_x[lo:hi], DEFAULT_G, debias=debias), rho[lo:hi])
            for n, lo, hi in zip(ns, bounds, bounds[1:])]


def _measured_cells(cells, trials: int, rng: np.random.Generator, debias: bool):
    """Yield the per-trial (estimated density, true density) of each of
    `cells` in order, drawn from `rng` in that order.

    Consecutive cells are measured in one batch while their expected rays
    plus ray/leaf pairs stay within PAIR_BUDGET, and each batch is measured
    before the next cell is drawn.
    """
    batch, size = [], 0.0
    for side, area, n, kind, normals in cells:
        cost = trials * n * (1.0 + _mean_leaves(side, area))
        if batch and size + cost > PAIR_BUDGET:
            yield from _measure(batch, VOXEL_WIDTH, debias)
            batch, size = [], 0.0
        batch.append(_draw_cell(VOXEL_WIDTH, side, area, n, trials, kind, normals, rng))
        size += cost
    yield from _measure(batch, VOXEL_WIDTH, debias)


def _cell_errors(cells, shape, trials: int, seed: int, debias: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised error (mean estimate - mean truth) / mean truth per cell,
    its Monte Carlo standard error, and the number of trials with leaf area.

    `cells` lists (side, area, n, ray kind, normals) in row-major order of
    `shape`, run in that order on one generator. The standard error is the
    delta method's for a ratio of means: with q = mean estimate / mean truth,
    SD(estimate - q * truth) / (sqrt(trials) * mean truth). The error is
    NaN where no trial has leaf area, and the standard error where fewer
    than two do: one trial then holds all the truth, and the SD says nothing.
    """
    rng = make_rng(seed)
    err = np.full(len(cells), np.nan)
    se = np.full(len(cells), np.nan)
    leafy = np.zeros(len(cells), dtype=np.int64)
    for i, (est, rho) in enumerate(_measured_cells(cells, trials, rng, debias)):
        leafy[i] = np.count_nonzero(rho)
        truth = rho.mean()
        if truth:
            err[i] = (est.mean() - truth) / truth
        if leafy[i] >= 2:
            resid = est - est.mean() / truth * rho
            se[i] = resid.std(ddof=1) / (np.sqrt(trials) * truth)
    return err.reshape(shape), se.reshape(shape), leafy.reshape(shape)


def triangle_bias_experiment(configs=TRIANGLE_BIAS_CONFIGS, n_values=range(2, 15),
                             trials: int = 4000, seed: int = 0) -> dict:
    """Normalised error of the raw (undebiased) estimator per (config, n).

    Returns {"configs", "n_values", "error" (configs x n), "se", "leafy",
    "reference"} where se is each cell's Monte Carlo standard error, leafy
    its number of trials with leaf area, and reference the expected bias
    curve 1/(n-1) the errors should track.
    """
    n_values = list(n_values)
    _check_counts(trials, "n_values", n_values)
    normals = NormalDistributionSpec()
    cells = [(side, area, int(n), "uniform-random", normals)
             for side, area in configs for n in n_values]
    err, se, leafy = _cell_errors(cells, (len(configs), len(n_values)), trials, seed,
                                  debias=False)
    reference = np.array([1.0 / (n - 1) for n in n_values])
    return {"configs": list(configs), "n_values": n_values,
            "error": err, "se": se, "leafy": leafy, "reference": reference}


def debiased_error_surface(n: int = 20, trials: int = 1600, seed: int = 0) -> dict:
    """Normalised error surface of the debiased estimator over (l, A), with
    each cell's Monte Carlo standard error as "se" and its number of trials
    with leaf area as "leafy"."""
    _check_counts(trials, "n", n)
    normals = NormalDistributionSpec()
    cells = [(float(side), float(area), n, "uniform-random", normals)
             for side in ERROR_SURFACE_SIDES for area in ERROR_SURFACE_AREAS]
    err, se, leafy = _cell_errors(cells, (len(ERROR_SURFACE_SIDES), len(ERROR_SURFACE_AREAS)),
                                  trials, seed)
    return {"l_values": ERROR_SURFACE_SIDES.copy(), "a_values": ERROR_SURFACE_AREAS.copy(),
            "error": err, "se": se, "leafy": leafy}


def trawl_vs_spin(normal_specs=TABLE1_NORMAL_SPECS, n: int = 50, trials: int = 400,
                  seed: int = 0) -> dict:
    """Percentage density error per (leaf-normal ellipsoid, ray distribution),
    with each cell's Monte Carlo standard error in percent as "se" and its
    number of trials with leaf area as "leafy"."""
    _check_counts(trials, "n", n)
    kinds = ("trawling", "spinning")
    cells = [(*TRAWL_LEAF, n, kind, NormalDistributionSpec(tuple(float(e) for e in spec)))
             for spec in normal_specs for kind in kinds]
    err, se, leafy = _cell_errors(cells, (len(normal_specs), len(kinds)), trials, seed)
    return {"normal_specs": list(normal_specs), "distributions": kinds,
            "error_percent": 100.0 * err, "se": 100.0 * se, "leafy": leafy}
