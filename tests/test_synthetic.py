"""Synthetic vineyard generator: geometry, trajectory and scan statistics."""

import numpy as np
import pytest

from raycanopy import synthetic
from raycanopy.synthetic import (STEP, SyntheticError, VineyardSpec, _in_canopy, _march_rays,
                                 _step_windows, scan_trajectory, simulate_scan, terrain_height)


class TestSpec:
    def test_ground_truth_arithmetic(self):
        spec = VineyardSpec()
        assert spec.canopy_volume() == pytest.approx(2 * 28.0 * 0.7 * 1.0)
        assert spec.total_leaf_area() == pytest.approx(4.0 * spec.canopy_volume())
        assert spec.interception_density == pytest.approx(2.0)

    def test_lane_positions(self):
        spec = VineyardSpec(row_positions=(0.0, 2.5))
        np.testing.assert_allclose(spec.lane_positions(), [-1.25, 1.25, 3.75])

    def test_invalid_band_rejected(self):
        with pytest.raises(SyntheticError):
            VineyardSpec(canopy_base=1.5, canopy_top=0.5)


class TestTerrain:
    def test_bounded_by_amplitudes(self):
        spec = VineyardSpec()
        x = np.linspace(-50, 50, 500)
        y = np.linspace(-50, 50, 500)
        h = terrain_height(spec, x, y)
        assert np.all(np.abs(h) <= 1.7 * spec.terrain_amplitude + 1e-12)

    def test_smooth_at_voxel_scale(self):
        spec = VineyardSpec()
        x = np.linspace(0, 30, 1000)
        h = terrain_height(spec, x, np.zeros_like(x))
        # slope stays far below 1 m/m: voxels see a locally flat floor
        assert np.max(np.abs(np.diff(h) / np.diff(x))) < 0.2


class TestTrajectory:
    def test_boustrophedon_covers_all_lanes(self):
        spec = VineyardSpec()
        pos, times = scan_trajectory(spec, spacing=0.5)
        lanes = spec.lane_positions()
        for lane in lanes:
            assert np.any(np.isclose(pos[:, 0], lane))
        assert np.all(np.diff(times) >= 0)
        assert pos[:, 1].min() <= -0.9 and pos[:, 1].max() >= spec.row_length + 0.9

    def test_bad_spacing_rejected(self):
        with pytest.raises(SyntheticError):
            scan_trajectory(VineyardSpec(), spacing=0.0)


@pytest.fixture(scope="module")
def small_scan():
    spec = VineyardSpec(row_length=8.0, max_range=10.0)
    return spec, simulate_scan(spec, spacing=0.25, rays_per_position=60, seed=3)


class TestSimulateScan:

    def test_cloud_is_valid(self, small_scan):
        _, cloud = small_scan
        cloud.validate()
        assert len(cloud) > 1000
        assert cloud.frame_id == "synthetic-vineyard"

    def test_contacts_lie_on_ground_or_canopy(self, small_scan):
        spec, cloud = small_scan
        pts = cloud.endpoints[cloud.contact]
        h = pts[:, 2] - terrain_height(spec, pts[:, 0], pts[:, 1])
        ground = np.abs(h) < 0.05
        in_band = (h > spec.canopy_base - 0.05) & (h < spec.canopy_top + 0.05)
        near_row = np.zeros(len(pts), dtype=bool)
        for rx in spec.row_positions:
            near_row |= np.abs(pts[:, 0] - rx) < spec.row_half_width + 0.05
        canopy = in_band & near_row
        assert np.all(ground | canopy)
        assert canopy.sum() > 100   # the canopy is actually sampled

    def test_noncontacts_point_upward(self, small_scan):
        _, cloud = small_scan
        nc = ~cloud.contact
        dirs = cloud.endpoints[nc] - cloud.origins[nc]
        assert np.all(dirs[:, 2] > 0)

    def test_seed_determinism(self):
        spec = VineyardSpec(row_length=4.0, max_range=8.0)
        a = simulate_scan(spec, spacing=0.5, rays_per_position=30, seed=7)
        b = simulate_scan(spec, spacing=0.5, rays_per_position=30, seed=7)
        np.testing.assert_array_equal(a.endpoints, b.endpoints)
        np.testing.assert_array_equal(a.contact, b.contact)

    def test_different_seeds_differ(self):
        spec = VineyardSpec(row_length=4.0, max_range=8.0)
        a = simulate_scan(spec, spacing=0.5, rays_per_position=30, seed=7)
        b = simulate_scan(spec, spacing=0.5, rays_per_position=30, seed=8)
        assert not np.array_equal(a.endpoints, b.endpoints)

    def test_interception_depth_is_exponential(self):
        # Rays enter one row 8 m deep (16 mean free paths) through its -x face
        # on flat terrain; a ray crosses it with probability e^-16. The march counts
        # whole canopy steps and ends at a step centre, so the path inside the
        # canopy before the hit lies within STEP of the Exp(density / g) draw.
        spec = VineyardSpec(row_positions=(0.0,), row_length=40.0, row_half_width=4.0,
                            canopy_base=0.5, canopy_top=20.5, terrain_amplitude=0.0,
                            max_range=11.0)
        lam = spec.interception_density
        face = -spec.row_half_width
        rng = np.random.default_rng(3)
        n = 10_000
        paths = []
        for _ in range(4):   # chunks bound the march's window arrays
            m = n // 4
            origins = np.column_stack([face - rng.uniform(0.05, 1.0, m),
                                       rng.uniform(15.0, 25.0, m), rng.uniform(8.0, 13.0, m)])
            az, el = rng.uniform(-0.3, 0.3, (2, m))
            dirs = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                                    np.sin(el)])
            endpoints, contact = _march_rays(spec, origins, dirs, rng)
            assert contact.all()
            t_face = (face - origins[:, 0]) / dirs[:, 0]
            paths.append(np.linalg.norm(endpoints - origins, axis=1) - t_face)
        path = np.sort(np.concatenate(paths))
        assert path.min() > 0

        # F(x - STEP) <= P(path <= x) <= F(x + STEP), F the Exp(lam) CDF; the
        # empirical CDF leaves it by eps with probability < 2 exp(-2 n eps^2) < 1e-3 (DKW)
        def exp_cdf(v):
            return 1.0 - np.exp(-lam * np.clip(v, 0.0, None))

        x = np.linspace(0.0, 5.0 / lam, 201)
        ecdf = np.searchsorted(path, x, side="right") / n
        eps = 0.02
        assert np.all(ecdf >= exp_cdf(x - STEP) - eps)
        assert np.all(ecdf <= exp_cdf(x + STEP) + eps)
        assert abs(path.mean() - 1.0 / lam) < STEP + 4.0 / (lam * np.sqrt(n))


def _full_march(spec, origins, dirs):
    """Ground and canopy masks of every (ray, step) of the march, no windows."""
    n_steps = int(np.ceil(spec.max_range / STEP))
    t_grid = (np.arange(n_steps) + 0.5) * STEP
    x = origins[:, 0:1] + t_grid[None, :] * dirs[:, 0:1]
    y = origins[:, 1:2] + t_grid[None, :] * dirs[:, 1:2]
    z = origins[:, 2:3] + t_grid[None, :] * dirs[:, 2:3]
    h = z - terrain_height(spec, x, y)
    return h <= 0.0, _in_canopy(spec, x, y, h)


def _full_march_rays(spec, origins, dirs, rng):
    """Oracle: the generator's march evaluated at every step of every ray."""
    n = len(origins)
    endpoints = origins + spec.max_range * dirs
    contact = np.zeros(n, dtype=bool)
    u = rng.exponential(1.0, n)
    below, canopy = _full_march(spec, origins, dirs)
    n_steps = below.shape[1]
    ground_step = np.where(below.any(axis=1), below.argmax(axis=1), n_steps)
    depth = np.cumsum(canopy, axis=1) * (spec.interception_density * STEP)
    hit = depth >= u[:, None]
    hit_step = np.where(hit.any(axis=1), hit.argmax(axis=1), n_steps)
    first = np.minimum(ground_step, hit_step)
    ended = first < n_steps
    t_end = (first[ended] + 0.5) * STEP
    endpoints[ended] = origins[ended] + t_end[:, None] * dirs[ended]
    contact[ended] = True
    return endpoints, contact


def _assert_windows_cover(spec, origins, dirs):
    below, canopy = _full_march(spec, origins, dirs)
    n, n_steps = below.shape
    k_lo, k_hi = _step_windows(spec, origins, dirs, n_steps)
    steps = np.arange(n_steps)
    covered = np.zeros((n, n_steps), dtype=bool)
    for lo, hi in zip(k_lo.T, k_hi.T):
        covered |= (steps >= lo[:, None]) & (steps < hi[:, None])
    assert covered[canopy].all()
    grounded = below.any(axis=1)
    assert covered[np.flatnonzero(grounded), below[grounded].argmax(axis=1)].all()
    assert canopy.any() and grounded.any()   # the spec exercises both kinds of window


class TestWindowedMarch:
    """The windowed march against a march over every step."""

    @pytest.mark.parametrize("spec, spacing, rays", [
        (VineyardSpec(row_length=3.0, max_range=5.0, terrain_amplitude=-0.3), 0.25, 20),
        (VineyardSpec(row_positions=(1.0,), row_length=4.0, max_range=6.0), 0.05, 1),
    ], ids=["negative-terrain", "one-row-one-ray"])
    def test_scan_matches_full_march(self, monkeypatch, spec, spacing, rays):
        fast = simulate_scan(spec, spacing=spacing, rays_per_position=rays, seed=4)
        monkeypatch.setattr(synthetic, "_march_rays", _full_march_rays)
        full = simulate_scan(spec, spacing=spacing, rays_per_position=rays, seed=4)
        for name in ("origins", "endpoints", "times", "contact"):
            assert getattr(fast, name).tobytes() == getattr(full, name).tobytes(), name
        positions, _ = scan_trajectory(spec, spacing)
        dirs = np.random.default_rng(1).normal(size=(len(positions), 3))
        _assert_windows_cover(spec, positions,
                              dirs / np.linalg.norm(dirs, axis=1, keepdims=True))

    def test_axis_parallel_rays_match_full_march(self):
        spec = VineyardSpec(row_length=4.0, max_range=6.0)
        positions, _ = scan_trajectory(spec, 0.5)
        # sensor positions plus origins on the faces of row 0's window box and
        # of the ground window, where a zero direction component divides 0 by 0
        wide = spec.row_half_width + STEP
        b = 1.7 * abs(spec.terrain_amplitude) + STEP
        faces = np.array([(x, y, z) for x in (-wide, wide, 0.2)
                          for y in (-STEP, 1.0, spec.row_length + STEP)
                          for z in (b, spec.canopy_base - b, spec.canopy_top + b)])
        origins = np.concatenate([positions, faces])
        s = np.sqrt(0.5)
        axis_dirs = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                              [0, 0, -1], [s, s, 0], [s, 0, -s], [0, -s, -s], [0, s, s]],
                             dtype=float)
        origins = np.repeat(origins, len(axis_dirs), axis=0)
        dirs = np.tile(axis_dirs, (len(origins) // len(axis_dirs), 1))
        fast = _march_rays(spec, origins, dirs, np.random.default_rng(8))
        full = _full_march_rays(spec, origins, dirs, np.random.default_rng(8))
        for a, b in zip(fast, full):
            assert a.tobytes() == b.tobytes()
        _assert_windows_cover(spec, origins, dirs)

    def test_step_budget_moves_no_bit(self, monkeypatch):
        spec = VineyardSpec(row_length=4.0, max_range=6.0)
        n_steps = int(np.ceil(spec.max_range / STEP))
        positions, _ = scan_trajectory(spec, 0.25)
        origins = np.repeat(positions, 4, axis=0)
        dirs = np.random.default_rng(3).normal(size=origins.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        full = _full_march_rays(spec, origins, dirs, np.random.default_rng(8))
        chunks = []
        step_windows = synthetic._step_windows

        def recording(spec, o, d, n_steps):
            k_lo, k_hi = step_windows(spec, o, d, n_steps)
            chunks.append((len(o), int((k_hi - k_lo).sum())))
            return k_lo, k_hi

        monkeypatch.setattr(synthetic, "_step_windows", recording)
        # the default, three rays per chunk, and budgets below one ray's window
        for budget in (synthetic.MARCH_BUDGET, 3 * n_steps + 1, n_steps - 1, 1):
            monkeypatch.setattr(synthetic, "MARCH_BUDGET", budget)
            chunks.clear()
            fast = _march_rays(spec, origins, dirs, np.random.default_rng(8))
            for a, b in zip(fast, full):
                assert a.tobytes() == b.tobytes()
            rays = max(1, budget // n_steps)
            assert [c for c, _ in chunks[:-1]] == [rays] * (len(chunks) - 1)
            assert sum(c for c, _ in chunks) == len(origins)
            assert max(s for _, s in chunks) <= max(budget, n_steps)


class TestSpecValidation:
    @pytest.mark.parametrize("fields", [
        {"max_range": 0.0}, {"max_range": float("nan")}, {"g": 0.0},
        {"row_positions": ()}, {"row_half_width": -0.1}, {"row_length": 0.0},
        {"sensor_height": -1.0}, {"row_positions": (0.0, float("inf"))},
        {"terrain_amplitude": float("nan")}, {"density": float("inf")},
    ], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
    def test_rejected_when_built(self, fields):
        name = next(iter(fields))
        with pytest.raises(SyntheticError, match=name):
            VineyardSpec(**fields)

    def test_negative_terrain_amplitude_is_legal(self):
        VineyardSpec(terrain_amplitude=-0.12)

    def test_rays_per_position_below_one_rejected(self):
        with pytest.raises(SyntheticError, match="rays_per_position"):
            simulate_scan(VineyardSpec(row_length=2.0, max_range=4.0), spacing=0.5,
                          rays_per_position=0)
