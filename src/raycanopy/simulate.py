"""Monte Carlo validation of the voxel density estimator.

Three families of experiment: 1D turbid-medium bias curves for the censored
exponential model, 3D triangular-leaf voxel trials, and a comparison of
trawling (push-broom) versus spinning lidar ray distributions over
anisotropic leaf-normal ellipsoids, all estimated with `density.estimate`.

The triangular-leaf experiments are flattened across trials: all scenes of a
cell are generated as one triangle array (`_leaf_scenes`), and ray/leaf
intersection runs over a single (ray, triangle) pair list (`_first_hits`).
`clipped_area` clips that array plane by plane, each plane working only on
the polygons with a vertex outside it, so leaves wholly inside the voxel
are never clipped.
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
    draws = rng.exponential(1.0 / lam, size=(trials, n))
    intercepted = draws <= y
    x = np.where(intercepted, draws, y)
    return intercepted.sum(axis=1), x


def _turbid_estimates(m: np.ndarray, x: np.ndarray, estimator: str) -> np.ndarray:
    sum_x = x.sum(axis=1)
    n = x.shape[1]
    if estimator == "uncensored":
        # requires y = inf data: every ray intercepted
        return (n - 1) / sum_x
    if estimator not in ("debiased", "ml-mode"):
        raise SimulationError(f"unknown estimator {estimator!r}")
    debiased = estimator == "debiased"   # the debiased mean, or the raw mode
    return estimate(n, m, sum_x, 1.0, "mean" if debiased else "mode", debias=debiased)[0]


def bias_curves(lambda_grid, n_grid, trials: int = 100_000, estimator: str = "debiased",
                y: float = 1.0, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mean normalised error (est - lam)/lam per (lambda, n) cell, with its
    standard error. `y = inf` disables censoring (for the unbiased estimator).
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    n_grid = np.asarray(n_grid, dtype=int)
    err = np.zeros((len(lambda_grid), len(n_grid)))
    se = np.zeros_like(err)
    rng = make_rng(seed)
    for a, lam in enumerate(lambda_grid):
        for b, n in enumerate(n_grid):
            m, x = sample_turbid(lam, int(n), y, trials, rng)
            rel = (_turbid_estimates(m, x, estimator) - lam) / lam
            err[a, b] = rel.mean()
            se[a, b] = rel.std(ddof=1) / np.sqrt(trials)
    return err, se


# ---------------------------------------------------------------------------
# triangle-leaf geometry


def _triangle_vertices(centres: np.ndarray, normals: np.ndarray, phi: np.ndarray,
                       side: float) -> np.ndarray:
    """Equilateral triangles of the given side, centred and oriented as specified."""
    ref = np.where(np.abs(normals[:, 2:3]) < 0.9,
                   np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    u = np.cross(normals, ref)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(normals, u)
    r = side / np.sqrt(3.0)   # circumradius
    angles = phi[:, None] + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])[None, :]
    return (centres[:, None, :]
            + r * (np.cos(angles)[..., None] * u[:, None, :]
                   + np.sin(angles)[..., None] * v[:, None, :]))


def clipped_area(triangles: np.ndarray, w: float) -> np.ndarray:
    """Area of each triangle clipped to the voxel box [0, w]^3.

    Sutherland-Hodgman against the six box planes, vectorised over padded
    polygon arrays. Each plane clips only the polygons with a vertex outside
    it; every other polygon would pass through that plane unchanged, so it
    is left as it is. A polygon gains at most one vertex per plane, so the
    padded width grows by one slot per applied plane, from three to nine.
    """
    n_tri = len(triangles)
    polys = np.zeros((n_tri, 9, 3))
    polys[:, :3] = triangles
    counts = np.full(n_tri, 3, dtype=np.int64)
    width = 3

    for axis in range(3):
        for sign, bound in ((1.0, 0.0), (-1.0, w)):
            slots = np.arange(width)
            valid = slots[None, :] < counts[:, None]
            outside = valid & ~(sign * (polys[:, :width, axis] - bound) >= 0)
            act = np.flatnonzero(outside.any(axis=1))
            if not len(act):
                continue
            width += 1
            slots = np.arange(width)
            p = polys[act, :width]
            c = counts[act]
            valid = slots[None, :] < c[:, None]
            nxt = slots[None, :] + 1
            nxt = np.where(nxt >= c[:, None], 0, nxt)
            v_next = p[np.arange(len(act))[:, None], nxt]
            da = sign * (p[:, :, axis] - bound)
            db = sign * (v_next[:, :, axis] - bound)
            keep_v = valid & (da >= 0)
            crossing = valid & ((da >= 0) != (db >= 0))
            denom = np.where(crossing, da - db, 1.0)
            inter = p + (v_next - p) * (da / denom)[..., None]

            flags = np.stack([keep_v, crossing], axis=2).reshape(len(act), 2 * width)
            cand = np.stack([p, inter], axis=2).reshape(len(act), 2 * width, 3)
            pos = np.cumsum(flags, axis=1) - 1
            out = np.zeros_like(p)
            r_idx, c_idx = np.nonzero(flags)
            out[r_idx, pos[r_idx, c_idx]] = cand[r_idx, c_idx]
            polys[act, :width] = out
            counts[act] = flags.sum(axis=1)

    v0 = polys[:, 0]
    cross_sum = np.zeros((n_tri, 3))
    for i in range(1, width - 1):
        mask = (i + 1) < counts
        if not np.any(mask):
            break
        cross_sum[mask] += np.cross(polys[mask, i] - v0[mask],
                                    polys[mask, i + 1] - v0[mask])
    return 0.5 * np.linalg.norm(cross_sum, axis=1)


def _moller(starts, dirs, v0, v1, v2):
    """Pairwise ray/triangle test; returns (hit mask, distance along ray)."""
    e1 = v1 - v0
    e2 = v2 - v0
    h = np.cross(dirs, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = starts - v0
    u = inv * np.einsum("ij,ij->i", s, h)
    q = np.cross(s, e1)
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
        side = (face % 2).astype(float) * w
        for a in range(3):
            sel = axis == a
            others = [b for b in range(3) if b != a]
            pts[sel, a] = side[sel]
            pts[sel, others[0]] = uv[sel, 0]
            pts[sel, others[1]] = uv[sel, 1]
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


def _leaf_scenes(w: float, side: float, area: float, trials: int,
                 normals: NormalDistributionSpec, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf scenes of `trials` voxels with the requested expected leaf area.

    Each trial's leaf count is Poisson around area / triangle area (a spatial
    Poisson process implies Poisson counts). Returns the triangles of all
    trials in trial order (T, 3, 3), the leaf count per trial and each
    trial's true density: its clipped one-sided leaf area / voxel volume,
    measured from the geometry so the sampling choice cannot bias validation.
    """
    mean_count = area / (TRIANGLE_AREA_FACTOR * side ** 2)
    counts = rng.poisson(mean_count, trials)
    total = int(counts.sum())
    if not total:
        return np.zeros((0, 3, 3)), counts, np.zeros(trials)
    centres = rng.uniform(0.0, w, size=(total, 3))
    n_vec = normals.sample(total, rng)
    phi = rng.uniform(0.0, 2 * np.pi, total)
    tris = _triangle_vertices(centres, n_vec, phi, side)
    trial_of_tri = np.repeat(np.arange(trials), counts)
    rho = np.bincount(trial_of_tri, weights=clipped_area(tris, w), minlength=trials) / w ** 3
    return tris, counts, rho


def _first_hits(starts: np.ndarray, dirs: np.ndarray, chord: np.ndarray,
                tris: np.ndarray, counts: np.ndarray, trial_of_ray: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest leaf hit of each ray within its own trial's scene.

    Ray i is tested against the counts[trial_of_ray[i]] triangles of its
    trial's block of `tris`. Returns (hit mask, penetration depth x): x is the
    distance to the nearest hit inside the voxel, or the chord if none.
    """
    n_rays = len(starts)
    if not len(tris):
        return np.zeros(n_rays, dtype=bool), chord.copy()
    pairs_per_ray = counts[trial_of_ray]
    ray_idx = np.repeat(np.arange(n_rays), pairs_per_ray)
    tri_start = np.concatenate([[0], np.cumsum(counts)])[:-1]
    # triangle ids of each pair: offsets within the ray's trial block
    offs = np.arange(pairs_per_ray.sum()) - np.repeat(
        np.concatenate([[0], np.cumsum(pairs_per_ray)])[:-1], pairs_per_ray)
    tri_idx = tri_start[trial_of_ray[ray_idx]] + offs
    hit, t = _moller(starts[ray_idx], dirs[ray_idx],
                     tris[tri_idx, 0], tris[tri_idx, 1], tris[tri_idx, 2])
    valid = hit & (t >= 0.0) & (t <= chord[ray_idx])
    t_near = np.full(n_rays, np.inf)
    np.minimum.at(t_near, ray_idx, np.where(valid, t, np.inf))
    hit_mask = t_near < chord
    return hit_mask, np.where(hit_mask, t_near, chord)


def _simulate_cell(w: float, side: float, area: float, n: int, trials: int,
                   kind: str, normals: NormalDistributionSpec,
                   rng: np.random.Generator,
                   debias: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (estimated density, true density) of one cell; rays follow RAY_MODELS[kind]."""
    if kind not in RAY_MODELS:
        raise SimulationError(f"unknown ray distribution {kind!r}")
    tris, counts, rho = _leaf_scenes(w, side, area, trials, normals, rng)
    starts, dirs, chord = RAY_MODELS[kind](trials * n, w, rng)
    trial_of_ray = np.repeat(np.arange(trials), n)
    hit_mask, x = _first_hits(starts, dirs, chord, tris, counts, trial_of_ray)

    m = np.bincount(trial_of_ray, weights=hit_mask.astype(float), minlength=trials)
    sum_x = np.bincount(trial_of_ray, weights=x, minlength=trials)
    return estimate(n, m, sum_x, DEFAULT_G, debias=debias)[0], rho


def _cell_errors(cells, shape, trials: int, seed: int, debias: bool = True) -> np.ndarray:
    """Normalised error (mean estimate - mean truth) / mean truth per cell.

    `cells` lists (side, area, n, ray kind, normals) in row-major order of
    `shape`, run in that order on one generator. NaN where no leaf was realised.
    """
    rng = make_rng(seed)
    err = np.empty(len(cells))
    for i, (side, area, n, kind, normals) in enumerate(cells):
        est, rho = _simulate_cell(VOXEL_WIDTH, side, area, n, trials, kind, normals, rng,
                                  debias=debias)
        truth = rho.mean()
        err[i] = (est.mean() - truth) / truth if truth else np.nan
    return err.reshape(shape)


def triangle_bias_experiment(configs=TRIANGLE_BIAS_CONFIGS, n_values=range(2, 15),
                             trials: int = 4000, seed: int = 0) -> dict:
    """Normalised error of the raw (undebiased) estimator per (config, n).

    Returns {"configs", "n_values", "error" (configs x n), "reference"} where
    reference is the expected bias curve 1/(n-1) the errors should track.
    """
    n_values = list(n_values)
    normals = NormalDistributionSpec()
    cells = [(side, area, int(n), "uniform-random", normals)
             for side, area in configs for n in n_values]
    err = _cell_errors(cells, (len(configs), len(n_values)), trials, seed, debias=False)
    reference = np.array([1.0 / (n - 1) for n in n_values])
    return {"configs": list(configs), "n_values": n_values,
            "error": err, "reference": reference}


def debiased_error_surface(n: int = 20, trials: int = 1600, seed: int = 0) -> dict:
    """Normalised error surface of the debiased estimator over (l, A)."""
    normals = NormalDistributionSpec()
    cells = [(float(side), float(area), n, "uniform-random", normals)
             for side in ERROR_SURFACE_SIDES for area in ERROR_SURFACE_AREAS]
    err = _cell_errors(cells, (len(ERROR_SURFACE_SIDES), len(ERROR_SURFACE_AREAS)),
                       trials, seed)
    return {"l_values": ERROR_SURFACE_SIDES.copy(), "a_values": ERROR_SURFACE_AREAS.copy(),
            "error": err}


def trawl_vs_spin(normal_specs=TABLE1_NORMAL_SPECS, n: int = 50, trials: int = 400,
                  seed: int = 0) -> dict:
    """Percentage density error per (leaf-normal ellipsoid, ray distribution)."""
    kinds = ("trawling", "spinning")
    cells = [(*TRAWL_LEAF, n, kind, NormalDistributionSpec(tuple(float(e) for e in spec)))
             for spec in normal_specs for kind in kinds]
    err = _cell_errors(cells, (len(normal_specs), len(kinds)), trials, seed)
    return {"normal_specs": list(normal_specs),
            "distributions": kinds, "error_percent": 100.0 * err}
