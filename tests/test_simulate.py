"""Monte Carlo simulator: turbid model, leaf geometry and ray casting."""

import numpy as np
import pytest

from raycanopy.density import DEFAULT_G, estimate
from raycanopy.simulate import (SPIN_MAX_ANGLE_DEG, NormalDistributionSpec, SimulationError,
                                _first_hits, _leaf_scenes, _rays_spinning, _rays_trawling,
                                _rays_uniform_chords, _simulate_cell, bias_curves,
                                clipped_area, make_rng, sample_turbid, trawl_vs_spin,
                                triangle_bias_experiment)


class TestSampleTurbid:
    def test_shapes_and_censoring(self):
        m, x = sample_turbid(2.0, 8, 1.0, 500, make_rng(3))
        assert m.shape == (500,) and x.shape == (500, 8)
        assert np.all(x <= 1.0 + 1e-12)
        assert np.all(x > 0)
        np.testing.assert_array_equal(m, (x < 1.0).sum(axis=1))

    def test_hit_fraction_matches_theory(self):
        lam, y, n, trials = 1.3, 0.8, 20, 20_000
        m, _ = sample_turbid(lam, n, y, trials, make_rng(7))
        p = 1.0 - np.exp(-lam * y)
        frac = m.sum() / (trials * n)
        se = np.sqrt(p * (1 - p) / (trials * n))
        assert abs(frac - p) < 3 * se

    def test_intercepted_depth_mean_matches_integral(self):
        lam, y = 2.0, 1.0
        m, x = sample_turbid(lam, 50, y, 40_000, make_rng(11))
        hit = x < y
        # E[x | x < y] for a censored exponential
        expect = 1.0 / lam - y * np.exp(-lam * y) / (1.0 - np.exp(-lam * y))
        assert x[hit].mean() == pytest.approx(expect, rel=0.01)

    def test_invalid_config_rejected(self):
        for lam, n, y in ((0.0, 5, 1.0), (1.0, 0, 1.0), (1.0, 5, 0.0), (np.nan, 5, 1.0)):
            with pytest.raises(SimulationError):
                sample_turbid(lam, n, y, 10, make_rng(0))

    def test_infinite_depth_intercepts_every_draw(self):
        m, x = sample_turbid(2.5, 7, np.inf, 300, make_rng(13))
        np.testing.assert_array_equal(m, np.full(300, 7))
        np.testing.assert_array_equal(x, make_rng(13).exponential(1.0 / 2.5, size=(300, 7)))


class TestBiasCurves:
    def test_uncensored_estimator_unbiased(self):
        err, se = bias_curves([0.5, 2.0, 5.0], [50], 20_000, "uncensored",
                              y=np.inf, seed=1)
        assert np.all(np.abs(err) < 0.01)

    def test_ml_mode_underestimates_at_n2(self):
        err, _ = bias_curves([0.5, 1.0, 2.0], [2], 20_000, "ml-mode", seed=2)
        assert np.all(err < 0.0)

    def test_identical_seed_identical_output(self):
        a, _ = bias_curves([1.0], [4, 8], 2000, "debiased", seed=5)
        b, _ = bias_curves([1.0], [4, 8], 2000, "debiased", seed=5)
        np.testing.assert_array_equal(a, b)


class TestClippedArea:
    def test_fully_inside_triangle_keeps_area(self):
        tri = np.array([[[0.2, 0.2, 0.2], [0.4, 0.2, 0.2], [0.2, 0.5, 0.3]]])
        full = 0.5 * np.linalg.norm(np.cross(tri[0, 1] - tri[0, 0], tri[0, 2] - tri[0, 0]))
        assert clipped_area(tri, 1.0)[0] == pytest.approx(full, rel=1e-12)

    def test_fully_outside_is_zero(self):
        tri = np.array([[[2.0, 2.0, 2.0], [3.0, 2.0, 2.0], [2.0, 3.0, 2.0]]])
        assert clipped_area(tri, 1.0)[0] == 0.0

    def test_matches_rasterisation_oracle(self, rng):
        w = 0.1
        count = 30
        centres = rng.uniform(-0.02, w + 0.02, size=(count, 3))
        normals = NormalDistributionSpec().sample(count, make_rng(5))
        from raycanopy.simulate import _triangle_vertices
        tris = _triangle_vertices(centres, normals, rng.uniform(0, 2 * np.pi, count),
                                  side=0.06)
        areas = clipped_area(tris, w)
        full = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0],
                                             tris[:, 2] - tris[:, 0]), axis=1)
        n_samp = 200_000
        u = rng.uniform(0, 1, (n_samp, 2))
        flip = u.sum(axis=1) > 1
        u[flip] = 1 - u[flip]
        for t in range(count):
            pts = (tris[t, 0] + u[:, :1] * (tris[t, 1] - tris[t, 0])
                   + u[:, 1:] * (tris[t, 2] - tris[t, 0]))
            inside = np.all((pts >= 0) & (pts <= w), axis=1)
            mc = full[t] * inside.mean()
            assert abs(mc - areas[t]) <= 0.005 * full[t] + 3 * full[t] * np.sqrt(
                inside.mean() * (1 - inside.mean()) / n_samp)

    W = 0.1
    # wholly inside, one vertex out past x = w, out past two faces at a
    # corner, crossing x = 0 and z = w, wholly outside, inside touching
    # x = 0 and y = w (two vertices with da == 0 for those planes)
    MIXED = np.array([
        [[0.02, 0.03, 0.04], [0.07, 0.02, 0.05], [0.03, 0.08, 0.06]],
        [[0.05, 0.05, 0.05], [0.13, 0.06, 0.05], [0.06, 0.09, 0.04]],
        [[0.08, 0.08, 0.05], [0.12, 0.09, 0.06], [0.09, 0.13, 0.04]],
        [[-0.03, 0.05, 0.08], [0.04, 0.02, 0.12], [0.05, 0.07, 0.05]],
        [[0.15, 0.15, 0.15], [0.20, 0.15, 0.15], [0.15, 0.20, 0.16]],
        [[0.0, 0.03, 0.02], [0.06, 0.1, 0.05], [0.0, 0.07, 0.09]],
    ])

    def test_batch_matches_single_calls_bit_for_bit(self):
        areas = clipped_area(self.MIXED, self.W)
        single = np.concatenate([clipped_area(tri[None], self.W) for tri in self.MIXED])
        assert areas.tobytes() == single.tobytes()
        assert areas[4] == 0.0
        full = 0.5 * np.linalg.norm(np.cross(self.MIXED[:, 1] - self.MIXED[:, 0],
                                             self.MIXED[:, 2] - self.MIXED[:, 0]), axis=1)
        assert np.all(areas[1:4] < full[1:4])   # the clipped ones lose area

    def test_wholly_inside_area_is_the_plain_cross_product(self):
        inside = self.MIXED[[0, 5]]
        v0, v1, v2 = inside[:, 0], inside[:, 1], inside[:, 2]
        expected = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        assert clipped_area(inside, self.W).tobytes() == expected.tobytes()

    def test_vertices_on_a_face_are_not_clipped(self):
        # every vertex lies on the face z = 0 or z = w (da == 0 for that plane);
        # the second triangle lies flat in the face z = w
        tris = np.array([[[0.01, 0.02, 0.0], [0.09, 0.03, 0.0], [0.05, 0.08, 0.1]],
                         [[0.01, 0.02, 0.1], [0.09, 0.03, 0.1], [0.05, 0.08, 0.1]]])
        v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
        expected = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        assert clipped_area(tris, self.W).tobytes() == expected.tobytes()


class TestLeafScene:
    def test_generated_scene_is_consistent(self):
        w, trials = 0.1, 50
        tris, counts, rho = _leaf_scenes(w, 0.05, 0.01, trials, NormalDistributionSpec(),
                                         make_rng(9))
        assert counts.shape == rho.shape == (trials,)
        assert len(tris) == counts.sum()
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for t in range(trials):
            block = tris[bounds[t]:bounds[t + 1]]
            assert rho[t] == pytest.approx(clipped_area(block, w).sum() / w ** 3,
                                           rel=1e-12, abs=1e-12)
        assert np.all(rho >= 0)

    def test_zero_area_gives_empty_scene(self):
        tris, counts, rho = _leaf_scenes(0.1, 0.05, 0.0, 5, NormalDistributionSpec(),
                                         make_rng(0))
        assert tris.shape == (0, 3, 3)
        assert not counts.any() and not rho.any()

    def test_mean_density_tracks_target(self):
        # realised mean over many scenes approaches target / volume
        w, area = 0.1, 0.02
        _, _, rho = _leaf_scenes(w, 0.04, area, 400, NormalDistributionSpec(), make_rng(4))
        # clipping removes leaf parts outside the box, so the mean sits below
        # the unclipped target but well within a factor of ~0.5
        target = area / w ** 3
        assert 0.4 * target < rho.mean() < 1.05 * target

    def test_normal_spec_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            NormalDistributionSpec((1.0, 0.0, 1.0))


class TestCastRays:
    """Ray casting through leaf scenes with `_first_hits`."""

    def test_empty_scene_no_hits(self):
        starts, dirs, chord = _rays_uniform_chords(200, 0.1, make_rng(1))
        hit, x = _first_hits(starts, dirs, chord, np.zeros((0, 3, 3)),
                             np.zeros(1, dtype=np.int64), np.zeros(200, dtype=np.int64))
        assert not hit.any()
        np.testing.assert_array_equal(x, chord)

    def test_midplane_wall_intercepts_trawling_rays(self):
        w = 0.1
        big = np.array([[[w / 2, -10.0, -10.0], [w / 2, 20.0, -10.0],
                         [w / 2, 0.0, 30.0]]])
        starts, dirs, chord = _rays_trawling(100, w, make_rng(2))
        hit, x = _first_hits(starts, dirs, chord, big, np.array([1]),
                             np.zeros(100, dtype=np.int64))
        assert hit.all()
        np.testing.assert_allclose(x, w / 2, atol=1e-12)
        np.testing.assert_allclose(chord, w, atol=1e-12)

    def test_dense_scene_intercepts_almost_everything(self):
        tris, counts, _ = _leaf_scenes(0.1, 0.05, 0.6, 1, NormalDistributionSpec(),
                                       make_rng(3))
        starts, dirs, chord = _rays_uniform_chords(500, 0.1, make_rng(4))
        hit, _ = _first_hits(starts, dirs, chord, tris, counts,
                             np.zeros(500, dtype=np.int64))
        assert hit.mean() > 0.95

    def test_matches_per_ray_bruteforce(self, rng):
        # several trials with unequal leaf counts, one of them empty, and rays
        # assigned to trials in no particular order: each ray must meet only
        # its own trial's block of triangles
        w = 0.1
        tris, counts, _ = _leaf_scenes(w, 0.05, 0.03, 5, NormalDistributionSpec(),
                                       make_rng(6))
        counts = np.insert(counts, 2, 0)
        assert len(set(counts.tolist())) > 2 and counts[2] == 0
        n_rays = 900
        starts, dirs, chord = _rays_uniform_chords(n_rays, w, make_rng(17))
        trial_of_ray = rng.integers(0, len(counts), n_rays)
        hit, x = _first_hits(starts, dirs, chord, tris, counts, trial_of_ray)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for i in range(n_rays):
            t_trial = trial_of_ray[i]
            t_best = chord[i]
            hit_o = False
            for tri in tris[bounds[t_trial]:bounds[t_trial + 1]]:
                t = _ray_tri(starts[i], dirs[i], tri)
                if t is not None and 0.0 <= t <= chord[i] and t < t_best:
                    t_best = t
                    hit_o = True
            assert bool(hit[i]) == hit_o
            assert x[i] == pytest.approx(t_best, abs=1e-9)
        assert not hit[trial_of_ray == 2].any()
        assert hit.any()


def _on_square_boundary(xy, w, tol=1e-12):
    inside = np.all((xy >= -tol) & (xy <= w + tol), axis=1)
    return inside & np.any((np.abs(xy) <= tol) | (np.abs(xy - w) <= tol), axis=1)


class _CornerFirst:
    """Generator whose first offset draw (the one with array bounds) is its
    lower bound, which puts ray 0 through a corner of the square."""

    def __init__(self, seed):
        self.rng = make_rng(seed)
        self.offset_draws = 0

    def choice(self, *args):
        return self.rng.choice(*args)

    def uniform(self, low, high, size=None):
        out = self.rng.uniform(low, high, size)
        if np.ndim(low):
            if not self.offset_draws:
                out[0] = low[0]
            self.offset_draws += 1
        return out


class TestSpinningRays:
    W = 0.1

    def _assert_chords(self, starts, dirs, chord):
        w = self.W
        assert _on_square_boundary(starts[:, :2], w).all()
        assert np.all((starts[:, 2] >= 0.0) & (starts[:, 2] <= w))
        assert np.all(dirs[:, 2] == 0.0)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)
        angle = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0]))
        assert np.all(np.abs(angle) <= SPIN_MAX_ANGLE_DEG)
        assert np.all(chord > 0.0)
        assert _on_square_boundary(starts[:, :2] + chord[:, None] * dirs[:, :2], w).all()

    def test_rays_are_chords_of_the_square(self):
        self._assert_chords(*_rays_spinning(5000, self.W, make_rng(3)))

    def test_draw_order_angle_sign_offset_then_height(self):
        count = 300
        starts, dirs, _ = _rays_spinning(count, self.W, make_rng(5))
        rng = make_rng(5)
        theta = rng.uniform(0.0, np.deg2rad(SPIN_MAX_ANGLE_DEG), count)
        theta *= rng.choice((-1.0, 1.0), count)
        rng.uniform(np.zeros(count), np.ones(count))   # the offsets
        np.testing.assert_array_equal(dirs[:, 0], np.cos(theta))
        np.testing.assert_array_equal(dirs[:, 1], np.sin(theta))
        np.testing.assert_array_equal(starts[:, 2], rng.uniform(0.0, self.W, count))

    def test_corner_offset_is_redrawn(self):
        count = 50
        scripted = _CornerFirst(seed=8)
        starts, dirs, chord = _rays_spinning(count, self.W, scripted)
        assert scripted.offset_draws == 2      # one redraw, of the corner ray alone
        self._assert_chords(starts, dirs, chord)
        plain, plain_dirs, plain_chord = _rays_spinning(count, self.W, make_rng(8))
        assert not np.array_equal(dirs[0], plain_dirs[0])
        np.testing.assert_array_equal(starts[1:, :2], plain[1:, :2])
        np.testing.assert_array_equal(chord[1:], plain_chord[1:])


def _ray_tri(start, d, tri):
    v0, v1, v2 = tri
    e1, e2 = v1 - v0, v2 - v0
    h = np.cross(d, e2)
    det = e1 @ h
    if abs(det) < 1e-14:
        return None
    s = start - v0
    u = (s @ h) / det
    q = np.cross(s, e1)
    v = (d @ q) / det
    if u < 0 or v < 0 or u + v > 1:
        return None
    return float((e2 @ q) / det)


class TestExperiments:
    def test_estimator_accurate_at_large_n(self):
        est, rho = _simulate_cell(0.1, 0.05, 0.01, 50, 2000, "uniform-random",
                                  NormalDistributionSpec(), make_rng(8))
        err = (est.mean() - rho.mean()) / rho.mean()
        assert abs(err) < 0.05

    def test_raw_estimator_tracks_reference_curve_smoke(self):
        res = triangle_bias_experiment(configs=((0.05, 0.01),), n_values=[6, 10],
                                       trials=800, seed=1)
        for ni in range(2):
            assert abs(res["error"][0, ni] - res["reference"][ni]) < 0.2

    def test_bit_identical_reruns(self):
        a = triangle_bias_experiment(configs=((0.05, 0.01),), n_values=[4],
                                     trials=200, seed=9)
        b = triangle_bias_experiment(configs=((0.05, 0.01),), n_values=[4],
                                     trials=200, seed=9)
        np.testing.assert_array_equal(a["error"], b["error"])

    def test_trawl_vs_spin_shape(self):
        res = trawl_vs_spin(normal_specs=((1, 1, 1),), n=20, trials=60, seed=2)
        assert res["error_percent"].shape == (1, 2)
        assert res["distributions"] == ("trawling", "spinning")

    def test_unknown_ray_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown ray distribution 'sweeping'"):
            _simulate_cell(0.1, 0.05, 0.01, 10, 5, "sweeping", NormalDistributionSpec(),
                           make_rng(0))

    def test_estimates_are_the_pipeline_estimator_on_the_same_draws(self):
        # the suite checks density.estimate itself, not a copy of its formula
        lam, n, trials = 1.5, 6, 300
        for estimator, kind, debias in (("debiased", "mean", True), ("ml-mode", "mode", False)):
            err, _ = bias_curves([lam], [n], trials, estimator, seed=4)
            m, x = sample_turbid(lam, n, 1.0, trials, make_rng(4))
            est = estimate(n, m, x.sum(axis=1), g=1.0, estimator=kind, debias=debias)
            assert err[0, 0] == ((est - lam) / lam).mean()

        normals, trials = NormalDistributionSpec(), 50
        for debias in (True, False):
            got, _ = _simulate_cell(0.1, 0.05, 0.01, 10, trials, "uniform-random", normals,
                                    make_rng(21), debias=debias)
            rng = make_rng(21)
            tris, counts, _ = _leaf_scenes(0.1, 0.05, 0.01, trials, normals, rng)
            starts, dirs, chord = _rays_uniform_chords(10 * trials, 0.1, rng)
            trial_of_ray = np.repeat(np.arange(trials), 10)
            hit, x = _first_hits(starts, dirs, chord, tris, counts, trial_of_ray)
            m = np.bincount(trial_of_ray, weights=hit.astype(float), minlength=trials)
            sum_x = np.bincount(trial_of_ray, weights=x, minlength=trials)
            want = estimate(10, m, sum_x, DEFAULT_G, debias=debias)
            assert (m > 0).any() and want.any()
            np.testing.assert_array_equal(got, want)
