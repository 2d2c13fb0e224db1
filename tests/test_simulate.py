"""Monte Carlo simulator: turbid model, leaf geometry and ray casting."""

from fractions import Fraction

import numpy as np
import pytest

from raycanopy import simulate
from raycanopy.density import DEFAULT_G, estimate
from raycanopy.simulate import (ERROR_SURFACE_AREAS, ERROR_SURFACE_SIDES, RAY_MODELS,
                                SPIN_MAX_ANGLE_DEG, TABLE1_NORMAL_SPECS, TRIANGLE_AREA_FACTOR,
                                VOXEL_WIDTH, NormalDistributionSpec, SimulationError,
                                _cell_errors, _draw_cell, _draw_leaves, _first_hits,
                                _leaf_bounds, _measure, _rays_spinning, _rays_trawling,
                                _rays_uniform_chords, _triangle_vertices, _true_density,
                                _turbid_estimates,
                                bias_curves, clipped_area,
                                debiased_error_surface, make_rng, sample_turbid,
                                trawl_vs_spin, triangle_bias_experiment)


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

    @pytest.mark.parametrize("y", [0.3, 1.0, np.inf])
    def test_censoring_in_place_keeps_the_bytes(self, y):
        m, x = sample_turbid(1.7, 9, y, 400, make_rng(21))
        draws = make_rng(21).exponential(1.0 / 1.7, size=(400, 9))
        intercepted = draws <= y
        want_m = intercepted.sum(axis=1)
        assert m.dtype == want_m.dtype and m.tobytes() == want_m.tobytes()
        assert x.tobytes() == np.where(intercepted, draws, y).tobytes()

    def test_infinite_depth_intercepts_every_draw(self):
        m, x = sample_turbid(2.5, 7, np.inf, 300, make_rng(13))
        np.testing.assert_array_equal(m, np.full(300, 7))
        np.testing.assert_array_equal(x, make_rng(13).exponential(1.0 / 2.5, size=(300, 7)))


class TestBiasCurves:
    def test_uncensored_estimator_unbiased(self):
        err, se = bias_curves([0.5, 2.0, 5.0], [50], 20_000, "uncensored",
                              y=np.inf, seed=1)
        assert np.all(np.abs(err) < 0.01)

    @pytest.mark.parametrize("y", [1.0, 50.0, np.nan])
    def test_uncensored_estimator_needs_infinite_depth(self, y):
        # censored draws would bias (n-1)/sum(x): +0.146 at lam=2, y=1
        with pytest.raises(SimulationError, match="uncensored estimator needs y = inf"):
            bias_curves([2.0], [50], 2000, "uncensored", y=y, seed=1)

    def test_uncensored_estimate_is_n_minus_1_over_sum_x(self):
        # the debiased mean at y = inf, where m = n: (n-1)/n * n/sum(x)
        m, x = sample_turbid(1.3, 6, np.inf, 5000, make_rng(17))
        want = (6 - 1) / x.sum(axis=1)
        np.testing.assert_array_max_ulp(_turbid_estimates(m, x, "uncensored"), want, maxulp=4)

    def test_ml_mode_underestimates_at_n2(self):
        err, _ = bias_curves([0.5, 1.0, 2.0], [2], 20_000, "ml-mode", seed=2)
        assert np.all(err < 0.0)

    def test_identical_seed_identical_output(self):
        a, _ = bias_curves([1.0], [4, 8], 2000, "debiased", seed=5)
        b, _ = bias_curves([1.0], [4, 8], 2000, "debiased", seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("estimator, y", [("debiased", 1.0), ("ml-mode", 0.7),
                                              ("uncensored", np.inf)])
    def test_slices_move_no_bit(self, monkeypatch, estimator, y):
        lams, ns, trials = (0.3, 2.0), (2, 5, 9), 23
        rng = make_rng(4)     # each cell drawn whole, in cell order
        want = np.zeros((2, len(lams), len(ns)))
        for a, lam in enumerate(lams):
            for b, n in enumerate(ns):
                rel = (_turbid_estimates(*sample_turbid(lam, n, y, trials, rng), estimator)
                       - lam) / lam
                want[:, a, b] = rel.mean(), rel.std(ddof=1) / np.sqrt(trials)
        calls = []
        sample = simulate.sample_turbid

        def counting(*args):
            calls.append(args[3])
            return sample(*args)

        monkeypatch.setattr(simulate, "sample_turbid", counting)
        # the default; slices of several trials, none dividing 23; below one trial's n
        for draws in (simulate.TURBID_DRAWS, 45, 10, 4, 1):
            monkeypatch.setattr(simulate, "TURBID_DRAWS", draws)
            calls.clear()
            got = bias_curves(lams, ns, trials, estimator, y, seed=4)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            steps = [max(1, draws // n) for n in ns]
            assert calls == [min(s, trials - lo) for s in steps
                             for lo in range(0, trials, s)] * len(lams)


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


    def test_rounding_may_add_two_vertices_at_one_plane(self):
        # rounded intersections make this clipped polygon cross y = 0 four
        # times; the padded width must follow the vertex count
        tri = np.array([[[-0.05, 0.03, -0.05], [0.0, 0.0, 0.1],
                         [0.10000000000000002, 0.1, 0.10000000000000002]]])
        with pytest.raises(IndexError):
            _clipped_area_reference(tri, self.W)
        area = clipped_area(tri, self.W)[0]
        assert area ** 2 == pytest.approx(float(_exact_clipped_area_squared(tri[0], self.W)),
                                          rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_padded_reference_on_lattice_triangles(self, seed):
        # vertices on a lattice whose values lie on, and one ulp either side
        # of, each face; a triangle is compared wherever the reference runs
        w = self.W
        faces = [v for f in (0.0, w) for v in (np.nextafter(f, -1.0), f, np.nextafter(f, 1.0))]
        values = np.array(faces + [-0.05, 0.025, 0.05, 0.075, 0.15])
        tris = make_rng(seed).choice(values, size=(3000, 3, 3))
        got = clipped_area(tris, w)
        compared = 0
        for lo in range(0, len(tris), 100):
            block = slice(lo, lo + 100)
            try:
                want = _clipped_area_reference(tris[block], w)
            except IndexError:
                for i in range(lo, min(lo + 100, len(tris))):
                    try:
                        want_i = _clipped_area_reference(tris[i:i + 1], w)
                    except IndexError:
                        exact = float(_exact_clipped_area_squared(tris[i], w))
                        assert got[i] ** 2 == pytest.approx(exact, rel=1e-12, abs=1e-30), i
                        continue
                    assert got[i:i + 1].tobytes() == want_i.tobytes(), i
                    compared += 1
            else:
                assert got[block].tobytes() == want.tobytes(), lo
                compared += len(want)
        assert compared > 2900
        assert np.all(got >= 0.0) and np.any(got == 0.0) and np.any(got > 0.0)

    def test_matches_the_padded_reference_on_leaf_scenes(self):
        rng = make_rng(12)
        for side in ERROR_SURFACE_SIDES:
            centres = rng.uniform(-0.05, 0.15, size=(2000, 3))
            normals = NormalDistributionSpec((1.0, 3.0, 1.0)).sample(2000, rng)
            tris = _triangle_vertices(centres, normals, rng.uniform(0.0, 2 * np.pi, 2000), side)
            assert clipped_area(tris, self.W).tobytes() == \
                _clipped_area_reference(tris, self.W).tobytes()


def _exact_clipped_area_squared(tri, w) -> Fraction:
    """Squared clipped area of one triangle by Sutherland-Hodgman in exact
    rational arithmetic on the given binary values."""
    poly = [tuple(Fraction(c) for c in v) for v in tri]
    for axis in range(3):
        for bound, inside in ((Fraction(0), lambda p: p[axis] >= 0),
                              (Fraction(w), lambda p: p[axis] <= Fraction(w))):
            out = []
            for i, p in enumerate(poly):
                q = poly[(i + 1) % len(poly)]
                if inside(p):
                    out.append(p)
                if inside(p) != inside(q):
                    t = (bound - p[axis]) / (q[axis] - p[axis])
                    out.append(tuple(a + (b - a) * t for a, b in zip(p, q)))
            poly = out
    total = [Fraction(0)] * 3
    for i in range(1, len(poly) - 1):
        a = [poly[i][k] - poly[0][k] for k in range(3)]
        b = [poly[i + 1][k] - poly[0][k] for k in range(3)]
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        total = [t + c for t, c in zip(total, cross)]
    return sum(c * c for c in total) / 4


class TestLeafScene:
    def test_generated_scene_is_consistent(self):
        w, trials = 0.1, 50
        tris, counts = _draw_leaves(w, 0.05, 0.01, trials, NormalDistributionSpec(),
                                    make_rng(9))
        rho = _true_density(tris, counts, w)
        assert counts.shape == rho.shape == (trials,)
        assert len(tris) == counts.sum()
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for t in range(trials):
            block = tris[bounds[t]:bounds[t + 1]]
            assert rho[t] == pytest.approx(clipped_area(block, w).sum() / w ** 3,
                                           rel=1e-12, abs=1e-12)
        assert np.all(rho >= 0)

    def test_zero_area_gives_empty_scene(self):
        tris, counts = _draw_leaves(0.1, 0.05, 0.0, 5, NormalDistributionSpec(), make_rng(0))
        rho = _true_density(tris, counts, 0.1)
        assert tris.shape == (0, 3, 3)
        assert not counts.any() and not rho.any()

    def test_mean_density_tracks_target(self):
        # realised mean over many scenes approaches target / volume
        w, area = 0.1, 0.02
        rho = _true_density(*_draw_leaves(w, 0.04, area, 400, NormalDistributionSpec(),
                                          make_rng(4)), w)
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
        tris, counts = _draw_leaves(0.1, 0.05, 0.6, 1, NormalDistributionSpec(), make_rng(3))
        starts, dirs, chord = _rays_uniform_chords(500, 0.1, make_rng(4))
        hit, _ = _first_hits(starts, dirs, chord, tris, counts,
                             np.zeros(500, dtype=np.int64))
        assert hit.mean() > 0.95

    def test_matches_per_ray_bruteforce(self, rng):
        # several trials with unequal leaf counts, one of them empty, and rays
        # assigned to trials in no particular order: each ray must meet only
        # its own trial's block of triangles
        w = 0.1
        tris, counts = _draw_leaves(w, 0.05, 0.03, 5, NormalDistributionSpec(), make_rng(6))
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


# ---------------------------------------------------------------------------
# The engine as it was before cells were measured in batches, kept as the
# oracle: the batched engine must reproduce every bit of it.


def _moller_reference(starts, dirs, v0, v1, v2):
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


def _triangle_vertices_reference(centres, normals, phi, side):
    ref = np.where(np.abs(normals[:, 2:3]) < 0.9,
                   np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    u = np.cross(normals, ref)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(normals, u)
    r = side / np.sqrt(3.0)
    angles = phi[:, None] + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])[None, :]
    return (centres[:, None, :]
            + r * (np.cos(angles)[..., None] * u[:, None, :]
                   + np.sin(angles)[..., None] * v[:, None, :]))


def _clipped_area_reference(triangles, w):
    """Sutherland-Hodgman on padded (triangle, slot, axis) arrays, one slot
    added per applied plane; raises IndexError when rounding adds more."""
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
        cross_sum[mask] += np.cross(polys[mask, i] - v0[mask], polys[mask, i + 1] - v0[mask])
    return 0.5 * np.linalg.norm(cross_sum, axis=1)


def _leaf_scenes_reference(w, side, area, trials, normals, rng):
    mean_count = area / (TRIANGLE_AREA_FACTOR * side ** 2)
    counts = rng.poisson(mean_count, trials)
    total = int(counts.sum())
    if not total:
        return np.zeros((0, 3, 3)), counts, np.zeros(trials)
    centres = rng.uniform(0.0, w, size=(total, 3))
    n_vec = normals.sample(total, rng)
    phi = rng.uniform(0.0, 2 * np.pi, total)
    tris = _triangle_vertices_reference(centres, n_vec, phi, side)
    trial_of_tri = np.repeat(np.arange(trials), counts)
    rho = np.bincount(trial_of_tri, weights=_clipped_area_reference(tris, w),
                      minlength=trials) / w ** 3
    return tris, counts, rho


def _simulate_cell_reference(w, side, area, n, trials, kind, normals, rng, debias=True):
    tris, counts, rho = _leaf_scenes_reference(w, side, area, trials, normals, rng)
    starts, dirs, chord = RAY_MODELS[kind](trials * n, w, rng)
    trial_of_ray = np.repeat(np.arange(trials), n)
    hit_mask, x = _first_hits_reference(starts, dirs, chord, tris, counts, trial_of_ray)
    m = np.bincount(trial_of_ray, weights=hit_mask.astype(float), minlength=trials)
    sum_x = np.bincount(trial_of_ray, weights=x, minlength=trials)
    return estimate(n, m, sum_x, DEFAULT_G, debias=debias), rho


def _cell_errors_reference(cells, shape, trials, seed, debias=True):
    rng = make_rng(seed)
    err = np.full(len(cells), np.nan)
    se = np.full(len(cells), np.nan)
    for i, (side, area, n, kind, normals) in enumerate(cells):
        est, rho = _simulate_cell_reference(VOXEL_WIDTH, side, area, n, trials, kind, normals,
                                            rng, debias=debias)
        truth = rho.mean()
        if truth:
            err[i] = (est.mean() - truth) / truth
            resid = est - est.mean() / truth * rho
            se[i] = resid.std(ddof=1) / (np.sqrt(trials) * truth)
    return err.reshape(shape), se.reshape(shape)


def _first_hits_reference(starts: np.ndarray, dirs: np.ndarray, chord: np.ndarray,
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
    hit, t = _moller_reference(starts[ray_idx], dirs[ray_idx],
                               tris[tri_idx, 0], tris[tri_idx, 1], tris[tri_idx, 2])
    valid = hit & (t >= 0.0) & (t <= chord[ray_idx])
    t_near = np.full(n_rays, np.inf)
    np.minimum.at(t_near, ray_idx, np.where(valid, t, np.inf))
    hit_mask = t_near < chord
    return hit_mask, np.where(hit_mask, t_near, chord)


def _unit(v):
    return v / np.linalg.norm(v)


# |n.d| of the nearly parallel rays: Moller's det passes its 1e-14 test down
# to about 1e-12 for the largest leaves, and its u, v carry rounding errors
# wider than the cull's padding below about 1e-9
NEAR_PARALLEL = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 5e-11, 3e-11, 2e-11, 1e-11, 3e-12, 1e-12,
                 1e-13)


def _adversarial_rays(tri, rng):
    """(point on the ray, unit direction) pairs aimed at one leaf's edge
    cases: through each vertex and edge midpoint, along each edge, in the
    leaf's plane, tangent to its centroid ball (at and just beyond each
    vertex), and nearly parallel to its plane, passing at and just outside
    a vertex."""
    c = tri.mean(axis=0)
    n = _unit(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    aims = [(v, _unit(rng.normal(size=3))) for v in tri]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        aims += [((tri[a] + tri[b]) / 2, _unit(rng.normal(size=3))),
                 (tri[a], _unit(tri[b] - tri[a]))]
    in_plane = _unit(np.cross(n, rng.normal(size=3)))
    across = np.cross(n, in_plane)
    r = max(np.linalg.norm(v - c) for v in tri)
    aims += [(c + f * r * across, in_plane) for f in (0.0, 0.5, 1.0, 1.5)]
    for v in tri:
        out = _unit(v - c)
        tangent = _unit(np.cross(out, rng.normal(size=3)))
        aims += [(c + f * (v - c), tangent) for f in (1.0, 1 + 1e-9, 1 + 1e-7, 1 + 1e-6)]
        side = np.cross(n, out)
        for cos in NEAR_PARALLEL:
            d = np.sqrt(1.0 - cos * cos) * side + cos * n
            aims += [(v + off * out, d) for off in (0.0, 1e-7, 2e-7, 5e-7, 1e-6)]
    return aims


def _oracle_scene(seed):
    """A seeded multi-trial scene of one ray model and leaf size, plus
    adversarial rays at up to two leaves of each trial."""
    rng = make_rng(seed)
    kind = tuple(RAY_MODELS)[seed % 3]
    side = float(ERROR_SURFACE_SIDES[seed % 7])
    normals = NormalDistributionSpec(TABLE1_NORMAL_SPECS[seed % 4])
    trials, n = 4, 12
    area = (2.0, 6.0, 15.0)[seed % 3] * TRIANGLE_AREA_FACTOR * side ** 2   # leaves per trial
    tris, counts = _draw_leaves(VOXEL_WIDTH, side, area, trials, normals, rng)
    starts, dirs, chord = RAY_MODELS[kind](trials * n, VOXEL_WIDTH, rng)
    trial_of_ray = np.repeat(np.arange(trials), n)
    first = np.cumsum(counts) - counts
    extra = []
    for trial in range(trials):
        for leaf in range(first[trial], first[trial] + min(counts[trial], 2)):
            for point, d in _adversarial_rays(tris[leaf], rng):
                d = d * rng.choice((-1.0, 1.0))
                before = rng.uniform(0.0, 0.1)
                extra.append((point - before * d, d, before + rng.choice((0.0, 0.05)), trial))
    if extra:
        s, d, c, t = (np.array(a) for a in zip(*extra))
        starts, dirs = np.vstack([starts, s]), np.vstack([dirs, d])
        chord, trial_of_ray = np.concatenate([chord, c]), np.concatenate([trial_of_ray, t])
    return starts, dirs, chord, tris, counts, trial_of_ray


def _rays_uniform_chords_reference(count: int, w: float, rng
                                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


class _CountingRng:
    def __init__(self, seed):
        self.rng = make_rng(seed)
        self.face_draws = 0

    def integers(self, *args):
        self.face_draws += 1
        return self.rng.integers(*args)

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)


class TestCullOracle:
    """`_first_hits` culls pairs before Moller-Trumbore; every bit must equal
    the unculled reference's."""

    @pytest.mark.parametrize("seed", range(42))
    def test_matches_the_unculled_reference(self, seed):
        args = _oracle_scene(seed)
        hit, x = _first_hits(*args)
        want_hit, want_x = _first_hits_reference(*args)
        assert hit.tobytes() == want_hit.tobytes()
        assert x.tobytes() == want_x.tobytes()
        assert want_hit.any()

    @pytest.mark.parametrize("side", [0.025, 0.1])
    def test_near_parallel_hits_outside_the_ball_are_kept(self, side):
        # Moller's rounding makes some nearly parallel rays that pass outside
        # the padded ball hit; only the near-parallel rule keeps them. Each
        # leaf is a trial of its own, met only by the rays aimed at it.
        rng = make_rng(3)
        tris, _ = _draw_leaves(VOXEL_WIDTH, side, 0.05, 1, NormalDistributionSpec(), rng)
        aims = [(*a, i) for i, tri in enumerate(tris) for a in _adversarial_rays(tri, rng)]
        point, dirs, trial_of_ray = (np.array(a) for a in zip(*aims))
        starts = point - 0.05 * dirs
        args = (starts, dirs, np.full(len(starts), 0.2), tris, np.ones(len(tris), dtype=np.int64),
                trial_of_ray)
        hit, x = _first_hits(*args)
        want_hit, want_x = _first_hits_reference(*args)
        assert hit.tobytes() == want_hit.tobytes() and x.tobytes() == want_x.tobytes()

        rows = _leaf_bounds(tris)[:, trial_of_ray]
        w = rows[:3].T - starts
        wd = np.einsum("ij,ij->i", w, dirs)
        outside = np.einsum("ij,ij->i", w, w) - wd * wd > rows[6]
        assert np.any(want_hit & outside)
        assert np.all(np.abs(np.einsum("ij,ji->i", dirs, rows[3:6]))[want_hit & outside] <= 1e-6)

    def test_every_pair_culled(self):
        tris = np.array([[[5.0, 5.0, 5.0], [5.1, 5.0, 5.0], [5.0, 5.1, 5.0]]])
        starts, dirs, chord = _rays_trawling(10, 0.1, make_rng(1))
        hit, x = _first_hits(starts, dirs, chord, tris, np.array([1]),
                             np.zeros(10, dtype=np.int64))
        assert not hit.any() and x.tobytes() == chord.tobytes()

    def test_degenerate_leaf_keeps_every_pair(self):
        # a leaf with collinear vertices has no normal; its rounding hits
        # (if any) must come out as in the reference
        tris = np.array([[[0.0, 0.0, 0.05], [0.1, 0.1, 0.05], [0.05, 0.05, 0.05]]])
        starts, dirs, chord = _rays_uniform_chords(400, 0.1, make_rng(5))
        trial_of_ray = np.zeros(400, dtype=np.int64)
        assert np.isinf(_leaf_bounds(tris)[6, 0])
        got = _first_hits(starts, dirs, chord, tris, np.array([1]), trial_of_ray)
        want = _first_hits_reference(starts, dirs, chord, tris, np.array([1]), trial_of_ray)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("seed", range(12))
    def test_uniform_chords_match_the_masked_loop(self, seed):
        for count in (1, 7, 60, 500):
            rng = _CountingRng(seed)
            got = _rays_uniform_chords(count, VOXEL_WIDTH, rng)
            ref_rng = make_rng(seed)
            want = _rays_uniform_chords_reference(count, VOXEL_WIDTH, ref_rng)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            assert rng.rng.uniform() == ref_rng.uniform()   # same draws consumed
            if count >= 60:
                assert rng.face_draws > 2   # the same-face resample ran


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
        est, rho = _measure([_draw_cell(0.1, 0.05, 0.01, 50, 2000, "uniform-random",
                                        NormalDistributionSpec(), make_rng(8))], 0.1, True)[0]
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

    def test_every_error_table_has_its_standard_errors(self):
        tri = triangle_bias_experiment(configs=((0.05, 0.01), (0.1, 0.04)), n_values=[3, 8],
                                       trials=40, seed=1)
        surface = debiased_error_surface(n=20, trials=20, seed=1)
        trawl = trawl_vs_spin(normal_specs=((1, 1, 1), (1, 1, 10)), n=10, trials=30, seed=1)
        for res, key in ((tri, "error"), (surface, "error"), (trawl, "error_percent")):
            assert res["se"].shape == res[key].shape
            assert np.all(res["se"] > 0)

    def test_standard_error_needs_two_trials_with_leaves(self):
        # at l = 0.1, A = 0.001 one trial in 20 holds a leaf: every estimate
        # is then q times its truth, and the delta method's SD reads 0
        res = debiased_error_surface(n=10, trials=20, seed=1)
        assert res["leafy"].shape == res["error"].shape
        assert res["leafy"].dtype.kind == "i" and np.all(res["leafy"] <= 20)
        assert res["leafy"][-1, 0] == 1
        assert np.isfinite(res["error"][-1, 0]) and np.isnan(res["se"][-1, 0])
        np.testing.assert_array_equal(np.isnan(res["se"]), res["leafy"] < 2)

    def test_standard_error_matches_the_spread_over_seeds(self):
        res = [triangle_bias_experiment(configs=((0.05, 0.01),), n_values=[6], trials=200,
                                        seed=seed) for seed in range(30)]
        err = np.array([r["error"][0, 0] for r in res])
        se = np.array([r["se"][0, 0] for r in res])
        assert 0.7 <= err.std(ddof=1) / se.mean() <= 1.4

    def test_standard_error_is_the_delta_method_of_the_ratio(self):
        normals, trials = NormalDistributionSpec(), 50
        res = triangle_bias_experiment(configs=((0.05, 0.01),), n_values=[10], trials=trials,
                                       seed=21)
        est, rho = _measure([_draw_cell(0.1, 0.05, 0.01, 10, trials, "uniform-random",
                                        normals, make_rng(21))], 0.1, False)[0]
        ratio = est.mean() / rho.mean()
        assert res["error"][0, 0] == (est.mean() - rho.mean()) / rho.mean()
        want = (est - ratio * rho).std(ddof=1) / (np.sqrt(trials) * rho.mean())
        assert res["se"][0, 0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda: triangle_bias_experiment(configs=((0.05, 0.01),), n_values=[1, 4], trials=10),
         "n_values must be at least 2, got [1]"),
        (lambda: trawl_vs_spin(normal_specs=((1, 1, 1),), n=0, trials=10),
         "n must be at least 2, got 0"),
        (lambda: trawl_vs_spin(trials=-1), "trials must be at least 2, got -1"),
        (lambda: bias_curves([1.0], [4], trials=1), "trials must be at least 2, got 1"),
        (lambda: bias_curves([1.0], [4, 1], trials=10), "n_grid must be at least 2, got [1]"),
        (lambda: debiased_error_surface(n=1, trials=10), "n must be at least 2, got 1"),
        (lambda: debiased_error_surface(trials=1), "trials must be at least 2, got 1"),
    ], ids=["triangle-n1", "trawl-n0", "trawl-trials-1", "bias-trials1", "bias-n1",
            "surface-n1", "surface-trials1"])
    def test_inputs_without_an_estimate_rejected(self, call, message):
        with pytest.raises(SimulationError) as exc:
            call()
        assert str(exc.value) == message

    def test_unknown_ray_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown ray distribution 'sweeping'"):
            _draw_cell(0.1, 0.05, 0.01, 10, 5, "sweeping", NormalDistributionSpec(),
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
            got, _ = _measure([_draw_cell(0.1, 0.05, 0.01, 10, trials, "uniform-random",
                                          normals, make_rng(21))], 0.1, debias)[0]
            rng = make_rng(21)
            tris, counts = _draw_leaves(0.1, 0.05, 0.01, trials, normals, rng)
            starts, dirs, chord = _rays_uniform_chords(10 * trials, 0.1, rng)
            trial_of_ray = np.repeat(np.arange(trials), 10)
            hit, x = _first_hits(starts, dirs, chord, tris, counts, trial_of_ray)
            m = np.bincount(trial_of_ray, weights=hit.astype(float), minlength=trials)
            sum_x = np.bincount(trial_of_ray, weights=x, minlength=trials)
            want = estimate(10, m, sum_x, DEFAULT_G, debias=debias)
            assert (m > 0).any() and want.any()
            np.testing.assert_array_equal(got, want)


# cells of all three ray models and unequal sizes, one whose trials hold no
# leaves and two with few; at 30 trials their costs run from 120 to 2670
BATCH_CELLS = [
    (0.05, 0.01, 6, "uniform-random", NormalDistributionSpec()),
    (0.1, 1e-6, 4, "trawling", NormalDistributionSpec()),
    (0.025, 0.012, 3, "spinning", NormalDistributionSpec((1.0, 1.0, 10.0))),
    (0.06, 0.02, 12, "trawling", NormalDistributionSpec((10.0, 1.0, 1.0))),
    (0.1, 0.001, 5, "uniform-random", NormalDistributionSpec()),
    (0.025, 0.001, 8, "spinning", NormalDistributionSpec()),
    (0.1, 0.04, 2, "uniform-random", NormalDistributionSpec((1.0, 10.0, 1.0))),
]


class TestBatchOracle:
    """Cells measured in batches must give every bit of the cell-by-cell
    engine, wherever the batch boundaries fall."""

    @staticmethod
    def _assert_as_reference(res, want_err, want_se, err_key="error", scale=1.0):
        assert res[err_key].tobytes() == (scale * want_err).tobytes()
        want_se = np.where(res["leafy"] >= 2, scale * want_se, np.nan)
        assert res["se"].tobytes() == want_se.tobytes()

    @pytest.mark.parametrize("budget", [1, 1500, 1 << 20])
    @pytest.mark.parametrize("debias", [True, False])
    def test_cells_match_the_reference(self, monkeypatch, budget, debias):
        batches = []
        measure = simulate._measure

        def counting(batch, *args):
            batches.append(len(batch))
            return measure(batch, *args)

        monkeypatch.setattr(simulate, "PAIR_BUDGET", budget)
        monkeypatch.setattr(simulate, "_measure", counting)
        shape = (len(BATCH_CELLS),)
        err, se, leafy = _cell_errors(BATCH_CELLS, shape, 30, 5, debias)
        want_err, want_se = _cell_errors_reference(BATCH_CELLS, shape, 30, 5, debias)
        self._assert_as_reference({"error": err, "se": se, "leafy": leafy}, want_err, want_se)
        assert sum(batches) == len(BATCH_CELLS)
        if budget == 1:
            assert batches == [1] * len(BATCH_CELLS)
        elif budget == 1500:    # split mid-experiment, with batches of several cells
            assert len(batches) > 2 and max(batches) > 1
        else:
            assert batches == [len(BATCH_CELLS)]
        assert leafy[1] == 0 and np.isnan(err[1]) and np.isnan(se[1])
        assert np.all(leafy[[0, 2, 3, 6]] >= 2) and not np.isnan(se[[0, 2, 3, 6]]).any()

    def test_experiments_match_the_reference(self, monkeypatch):
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 2000)
        configs, n_values = ((0.05, 0.01), (0.025, 0.001), (0.1, 0.04)), [2, 5, 9]
        res = triangle_bias_experiment(configs=configs, n_values=n_values, trials=24, seed=3)
        cells = [(side, area, n, "uniform-random", NormalDistributionSpec())
                 for side, area in configs for n in n_values]
        self._assert_as_reference(res, *_cell_errors_reference(cells, (3, 3), 24, 3, False))

        res = debiased_error_surface(n=6, trials=12, seed=4)
        cells = [(float(side), float(area), 6, "uniform-random", NormalDistributionSpec())
                 for side in ERROR_SURFACE_SIDES for area in ERROR_SURFACE_AREAS]
        self._assert_as_reference(res, *_cell_errors_reference(cells, (7, 7), 12, 4))

        specs = ((10, 1, 1), (1, 1, 1))
        res = trawl_vs_spin(normal_specs=specs, n=15, trials=20, seed=6)
        cells = [(0.06, 0.02, 15, kind, NormalDistributionSpec(tuple(float(e) for e in spec)))
                 for spec in specs for kind in ("trawling", "spinning")]
        self._assert_as_reference(res, *_cell_errors_reference(cells, (2, 2), 20, 6),
                                  err_key="error_percent", scale=100.0)

    @pytest.mark.parametrize("budget", [50, 500])
    def test_large_cell_is_measured_in_bounded_slices(self, monkeypatch, budget):
        calls = []
        first_hits = simulate._first_hits

        def recording(starts, dirs, chord, tris, counts, trial_of_ray):
            pairs = np.bincount(trial_of_ray, minlength=len(counts)) * counts
            calls.append((int(pairs.sum()), int(pairs.max())))
            return first_hits(starts, dirs, chord, tris, counts, trial_of_ray)

        monkeypatch.setattr(simulate, "PAIR_BUDGET", budget)
        monkeypatch.setattr(simulate, "_first_hits", recording)
        cells = [(0.025, 0.012, 6, "uniform-random", NormalDistributionSpec()),
                 *BATCH_CELLS[:2]]
        assert 40 * 6 * (1 + simulate._mean_leaves(0.025, 0.012)) >= 10 * budget
        err, se, leafy = _cell_errors(cells, (3,), 40, 7)
        self._assert_as_reference({"error": err, "se": se, "leafy": leafy},
                                  *_cell_errors_reference(cells, (3,), 40, 7))
        largest_trial = max(most for _, most in calls)
        assert len(calls) >= 10
        assert all(pairs <= max(budget, largest_trial) for pairs, _ in calls)
        assert largest_trial > 50     # at budget 50 some trials are measured alone

    @pytest.mark.parametrize("kind", list(RAY_MODELS))
    def test_one_cell_matches_the_reference(self, kind):
        for area in (0.02, 1e-6):     # leaves, then none
            args = (VOXEL_WIDTH, 0.05, area, 7, 25, kind, NormalDistributionSpec((1.0, 2.0, 5.0)))
            got = _measure([_draw_cell(*args, make_rng(8))], VOXEL_WIDTH, True)[0]
            want = _simulate_cell_reference(*args, make_rng(8))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        tris, counts = _draw_leaves(VOXEL_WIDTH, 0.04, 0.03, 40, NormalDistributionSpec(),
                                    make_rng(2))
        scenes = tris, counts, _true_density(tris, counts, VOXEL_WIDTH)
        want = _leaf_scenes_reference(VOXEL_WIDTH, 0.04, 0.03, 40, NormalDistributionSpec(),
                                      make_rng(2))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(scenes, want))
