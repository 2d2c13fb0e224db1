"""Voxel grid construction, ray traversal and statistics accumulation."""

import itertools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raycanopy.raycloud import Ray
from raycanopy.voxels import (_EPS, StatsView, VoxelGrid, VoxelGridError, VoxelStats,
                              _clip_to_grid, _index_dtype, _walk, accumulate, build_grid,
                              expand_undersampled, load_stats, save_stats, traverse)

from conftest import make_cloud


def _grid(origin=(0, 0, 0), w=1.0, dims=(5, 5, 5)):
    return VoxelGrid(origin=np.asarray(origin, dtype=float), voxel_width=w, dims=dims)


def _view(voxels: dict, dims) -> StatsView:
    """The statistics of `voxels` (index -> VoxelStats; other voxels zero) as
    `load_stats` returns them: a StatsView keyed by the voxels with n > 0."""
    planes = [np.zeros(dims, dtype=np.int64), np.zeros(dims, dtype=np.int64), np.zeros(dims)]
    for key, s in voxels.items():
        for a, v in zip(planes, (s.n, s.m, s.sum_x)):
            a[key] = v
    return StatsView(VoxelStats(*planes), planes[0] > 0)


def _contact_cloud(points, max_range=100.0):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return make_cloud(points + [0, 0, 5.0], points, max_range=max_range)


class TestBuildGrid:
    def test_percentile_extents(self, rng):
        n = 5000
        pts = np.column_stack([rng.uniform(0, 2, n), rng.uniform(0, 10, n),
                               rng.uniform(0, 2, n)])
        cloud = _contact_cloud(pts)
        grid = build_grid(cloud, voxel_width=0.12)
        assert grid.origin[2] == pytest.approx(0.30)
        z97 = np.percentile(pts[:, 2], 97)
        assert grid.upper[2] >= z97 - 1e-9
        assert grid.upper[2] < z97 + 0.12
        assert grid.origin[0] == pytest.approx(np.percentile(pts[:, 0], 2))
        assert grid.origin[1] == pytest.approx(pts[:, 1].min())
        assert grid.upper[1] >= pts[:, 1].max()

    def test_ceil_arithmetic(self, rng):
        # raw span of exactly 1.0 m at 0.12 m voxels -> 9 voxels (1.08 m)
        n = 200
        pts = np.column_stack([np.linspace(0, 1.0, n), np.linspace(0, 1.0, n),
                               rng.uniform(0.5, 1.5, n)])
        # pin the lateral percentiles by mass at the ends
        pts[:60, 0] = 0.0
        pts[-60:, 0] = 1.0
        cloud = _contact_cloud(pts)
        grid = build_grid(cloud, voxel_width=0.12)
        assert grid.dims[0] == 9

    def test_lateral_bounds_clamp(self, rng):
        n = 2000
        pts = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(0, 10, n),
                               rng.uniform(0.4, 2.0, n)])
        cloud = _contact_cloud(pts)
        grid = build_grid(cloud, voxel_width=0.12, lateral_bounds=(-0.5, 0.5))
        assert grid.origin[0] >= -0.5 - 1e-9
        assert grid.upper[0] <= 0.5 + 0.12

    def test_too_few_contacts_rejected(self, rng):
        cloud = _contact_cloud(rng.uniform(0, 2, size=(50, 3)))
        with pytest.raises(VoxelGridError, match="contact endpoints"):
            build_grid(cloud)

    def test_positive_extent_below_tolerance_gets_one_voxel(self, rng):
        # every contact at y = 1.0 but one at 1.0 + 1e-12: the along-row
        # extent is 1e-12 m, far below the 1e-9-voxel rounding tolerance
        n = 300
        pts = np.column_stack([rng.uniform(0, 0.6, n), np.full(n, 1.0),
                               rng.uniform(0.4, 1.4, n)])
        pts[0, 1] = 1.0 + 1e-12
        cloud = _contact_cloud(pts)
        grid = build_grid(cloud, voxel_width=0.12)
        assert grid.dims[1] == 1 and min(grid.dims) >= 1
        stats = accumulate(cloud, grid)
        assert sum(s.m for s in stats.values()) > 0

    def test_ground_only_band_rejected(self, rng):
        # all contacts below the 0.30 m floor: vertical extent is empty
        pts = np.column_stack([rng.uniform(0, 2, 500), rng.uniform(0, 10, 500),
                               rng.uniform(0.0, 0.1, 500)])
        with pytest.raises(VoxelGridError, match="extent"):
            build_grid(_contact_cloud(pts))

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -0.1])
    def test_width_not_finite_and_positive_rejected(self, rng, width):
        cloud = _contact_cloud(rng.uniform(0.5, 2, size=(200, 3)))
        with pytest.raises(VoxelGridError, match=f"voxel_width {width} "):
            build_grid(cloud, voxel_width=width)


# rays of a 2x2x2 grid of 1 m voxels lying in one of its upper faces
_UPPER_FACE_RAYS = [((2.0, -1.0, 0.5), (2.0, 3.0, 0.5)),
                    ((0.5, 2.0, -1.0), (0.5, 2.0, 3.0)),
                    ((-1.0, 0.5, 2.0), (3.0, 0.5, 2.0))]


class TestTraverse:
    def test_axis_aligned_through_centres(self):
        grid = _grid(w=1.0, dims=(5, 1, 1))
        ray = Ray(np.array([-1.0, 0.5, 0.5]), np.array([6.0, 0.5, 0.5]), 0.0, True)
        out = traverse(ray, grid)
        assert [v for v, _, _ in out] == [(i, 0, 0) for i in range(5)]
        L = ray.length
        for _, t0, t1 in out:
            assert (t1 - t0) * L == pytest.approx(1.0, abs=1e-9)

    def test_zero_component_on_a_face_is_silent(self):
        # y = 0.25 is a face of the 0.25 m grid and the ray has no y component:
        # its y boundary parameter is 0/0, masked without a warning
        grid = _grid(w=0.25, dims=(4, 4, 4))
        ray = Ray(np.array([-0.1, 0.25, 0.5]), np.array([0.9, 0.25, 0.5]), 0.0, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = traverse(ray, grid)
        assert [v for v, _, _ in out] == [(i, 1, 2) for i in range(4)]
        assert sum(t1 - t0 for _, t0, t1 in out) * ray.length == pytest.approx(0.9)

    @pytest.mark.parametrize("dims, origin, end, expect", [
        # through the z = 0.25 plane, crossing x and y faces together at each corner
        ((4, 4, 2), (-0.5, -0.5, 0.25), (2.5, 2.5, 0.25),
         [((0, 0, 0), 1 / 6, 1 / 3), ((1, 1, 0), 1 / 3, 1 / 2),
          ((2, 2, 0), 1 / 2, 2 / 3), ((3, 3, 0), 2 / 3, 5 / 6)]),
        # the main diagonal, through three-face corners
        ((3, 3, 3), (-0.25, -0.25, -0.25), (1.75, 1.75, 1.75),
         [((0, 0, 0), 0.125, 0.375), ((1, 1, 1), 0.375, 0.625), ((2, 2, 2), 0.625, 0.875)]),
    ])
    def test_corner_crossing_advances_every_tied_axis(self, dims, origin, end, expect):
        grid = _grid(w=0.5, dims=dims)
        out = traverse(Ray(np.array(origin), np.array(end), 0.0, True), grid)
        assert [v for v, _, _ in out] == [v for v, _, _ in expect]
        for (_, t0, t1), (_, e0, e1) in zip(out, expect):
            assert t0 == pytest.approx(e0, abs=1e-12) and t1 == pytest.approx(e1, abs=1e-12)
            assert t1 - t0 > 0.1   # no zero-length record at a corner

    @pytest.mark.parametrize("origin, end", _UPPER_FACE_RAYS)
    def test_ray_in_an_upper_face_is_outside(self, origin, end):
        # the grid is half-open: the plane x = upper (or y, or z) is outside it
        out = traverse(Ray(np.array(origin), np.array(end), 0.0, True), _grid(dims=(2, 2, 2)))
        assert out == []

    @pytest.mark.parametrize("origin, end", _UPPER_FACE_RAYS)
    def test_ray_in_a_lower_face_is_inside(self, origin, end):
        # the same ray moved to the lower face lies in the first voxels' layer
        axis = next(a for a in range(3) if origin[a] == end[a] == 2.0)
        origin, end = np.array(origin), np.array(end)
        origin[axis] = end[axis] = 0.0
        out = traverse(Ray(origin, end, 0.0, True), _grid(dims=(2, 2, 2)))
        assert [v[axis] for v, _, _ in out] == [0, 0]
        assert [(t0, t1) for _, t0, t1 in out] == [(0.25, 0.5), (0.5, 0.75)]

    def test_zero_length_ray_rejected(self):
        ray = Ray(np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5]), 0.0, True)
        with pytest.raises(VoxelGridError, match="^1 zero-length ray: origin equals endpoint$"):
            traverse(ray, _grid(dims=(2, 2, 2)))

    def test_miss_returns_empty(self):
        grid = _grid()
        ray = Ray(np.array([-5.0, -5.0, -5.0]), np.array([-1.0, -5.0, -5.0]), 0.0, True)
        assert traverse(ray, grid) == []

    def test_contiguous_parameters(self, rng):
        grid = _grid(w=0.5, dims=(6, 7, 4))
        for _ in range(100):
            o = rng.uniform(-2, 5, 3)
            e = rng.uniform(-2, 5, 3)
            out = traverse(Ray(o, e, 0.0, True), grid)
            for (_, _, t1), (_, t0, _) in zip(out, out[1:]):
                assert t0 == pytest.approx(t1, abs=1e-12)

    def test_chord_additivity(self, rng):
        grid = _grid(origin=(-1, -1, -1), w=0.3, dims=(8, 8, 8))
        lo, hi = grid.origin, grid.upper
        for _ in range(300):
            o = rng.uniform(-3, 4, 3)
            e = rng.uniform(-3, 4, 3)
            ray = Ray(o, e, 0.0, True)
            out = traverse(ray, grid)
            total = sum((t1 - t0) for _, t0, t1 in out) * ray.length
            clip = _clip_length(o, e, lo, hi)
            assert total == pytest.approx(clip, abs=1e-6)

    def test_visited_set_matches_point_sampling(self, rng):
        grid = _grid(w=0.5, dims=(4, 4, 4))
        for _ in range(200):
            o = rng.uniform(-1, 3, 3)
            e = rng.uniform(-1, 3, 3)
            out = traverse(Ray(o, e, 0.0, True), grid)
            visited = {v for v, _, _ in out}
            oracle = _point_sample_voxels(o, e, grid)
            # grazing contacts shorter than the sampling step may be missed
            # by the oracle; every oracle voxel must be in the traversal
            assert oracle <= visited


def _clip_length(o, e, lo, hi):
    d = e - o
    with np.errstate(divide="ignore", invalid="ignore"):
        t1s = np.where(d != 0, (lo - o) / d, -np.inf)
        t2s = np.where(d != 0, (hi - o) / d, np.inf)
    tmin = np.minimum(t1s, t2s)
    tmax = np.maximum(t1s, t2s)
    outside = (d == 0) & ((o < lo) | (o >= hi))
    t0 = max(np.where(outside, np.inf, tmin).max(), 0.0)
    t1 = min(tmax.min(), 1.0)
    return max(t1 - t0, 0.0) * np.linalg.norm(d)


def _point_sample_voxels(o, e, grid):
    step = grid.voxel_width / 100.0
    length = np.linalg.norm(e - o)
    if length == 0:
        return set()
    ts = np.arange(step / 2, length, step) / length
    pts = o + ts[:, None] * (e - o)
    ijk = np.floor((pts - grid.origin) / grid.voxel_width).astype(int)
    inside = np.all((ijk >= 0) & (ijk < np.asarray(grid.dims)), axis=1)
    in_box = np.all((pts >= grid.origin) & (pts < grid.upper), axis=1)
    return {tuple(v) for v in ijk[inside & in_box]}


class TestAccumulate:
    def test_contact_ray_three_voxels(self):
        grid = _grid(w=1.0, dims=(3, 1, 1))
        # contact ray entering at x=0 and ending mid third voxel
        cloud = make_cloud([[-1.0, 0.5, 0.5]], [[2.4, 0.5, 0.5]], contact=[True])
        stats = accumulate(cloud, grid)
        assert stats[(0, 0, 0)].n == 1 and stats[(0, 0, 0)].m == 0
        assert stats[(0, 0, 0)].sum_x == pytest.approx(1.0)
        assert stats[(1, 0, 0)].m == 0
        assert stats[(2, 0, 0)].m == 1
        assert stats[(2, 0, 0)].sum_x == pytest.approx(0.4)

    def test_noncontact_ray_full_crossing(self):
        grid = _grid(w=1.0, dims=(4, 1, 1))
        cloud = make_cloud([[-1.0, 0.5, 0.5]], [[5.0, 0.5, 0.5]], contact=[False],
                           max_range=6.0)
        stats = accumulate(cloud, grid)
        for i in range(4):
            s = stats[(i, 0, 0)]
            assert s.n == 1 and s.m == 0
            assert s.sum_x == pytest.approx(1.0)

    def test_nothing_beyond_endpoint(self):
        grid = _grid(w=1.0, dims=(4, 1, 1))
        cloud = make_cloud([[-1.0, 0.5, 0.5]], [[1.5, 0.5, 0.5]], contact=[True])
        stats = accumulate(cloud, grid)
        assert (2, 0, 0) not in stats and (3, 0, 0) not in stats

    def test_contact_just_below_upper_face_counts(self):
        # the endpoint lies inside the box, yet (e - origin) / w rounds up to
        # 30 = dims[0]: it belongs to the last voxel, where the walk ends
        grid = _grid(origin=(-4.590264760638053, 0, 0), w=0.23741074242668952, dims=(30, 1, 1))
        end = np.array([np.nextafter(grid.upper[0], -np.inf), 0.1, 0.1])
        assert np.floor((end[0] - grid.origin[0]) / grid.voxel_width) == 30
        cloud = make_cloud([[-6.0, 0.1, 0.1]], [end], contact=[True])
        stats = accumulate(cloud, grid)
        assert stats[(29, 0, 0)].m == 1
        assert sum(s.m for s in stats.values()) == 1

    def test_zero_length_rays_rejected(self):
        # a zero-length contact inside the grid used to count as a crossing
        # with x = 0 and a contact, which load_stats then refused
        grid = _grid(dims=(2, 2, 2))
        with pytest.raises(VoxelGridError, match="^1 zero-length ray: origin equals endpoint$"):
            accumulate(make_cloud([[0.5, 0.5, 0.5]], [[0.5, 0.5, 0.5]], contact=[True]), grid)
        cloud = make_cloud([[0.5, 0.5, 3.0], [1.5, 0.5, 0.5], [9.0, 9.0, 9.0]],
                           [[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [9.0, 9.0, 9.0]])
        with pytest.raises(VoxelGridError, match="^2 zero-length rays: origin equals endpoint$"):
            accumulate(cloud, grid)

    def test_rays_missing_the_grid_give_no_voxels(self, rng):
        origins = rng.uniform(-3, -2, (20, 3))
        cloud = make_cloud(origins, origins + [0, 0, -1.0])
        stats = accumulate(cloud, _grid())
        assert stats == {}
        # np.bincount of no records gives int64 whatever its weights
        assert [a.dtype for a in (stats.dense.n, stats.dense.m, stats.dense.sum_x)] == \
            [np.int64, np.int64, np.float64]

    def test_rays_in_upper_faces_give_no_voxels(self):
        # contacts and pass-throughs lying in the planes x, y or z = upper
        origins, ends = (np.array(a) for a in zip(*_UPPER_FACE_RAYS))
        mid = (origins + ends) / 2
        cloud = make_cloud(np.vstack([origins, origins]), np.vstack([ends, mid]),
                           contact=[False] * 3 + [True] * 3)
        assert accumulate(cloud, _grid(dims=(2, 2, 2))) == {}

    def test_endpoints_outside_the_grid_give_no_contacts(self, rng):
        # contacts that cross the grid but end beyond every face
        starts = rng.uniform(0.5, 4.5, (40, 3))
        origins = starts - [10.0, 0, 0]
        ends = starts + np.repeat([[10.0, 0, 0], [0, 0, -10.0]], 20, axis=0)
        stats = accumulate(make_cloud(origins, ends), _grid())
        assert stats and all(s.m == 0 for s in stats.values())

    def test_per_ray_length_conservation(self, rng):
        grid = _grid(origin=(0, 0, 0), w=0.4, dims=(6, 6, 6))
        n = 400
        origins = rng.uniform(-1, 3.4, size=(n, 3))
        endpoints = rng.uniform(-1, 3.4, size=(n, 3))
        ok = np.linalg.norm(endpoints - origins, axis=1) > 1e-6
        cloud = make_cloud(origins[ok], endpoints[ok])
        stats = accumulate(cloud, grid)

        # oracle: total x equals the summed clipped distances to the endpoints
        total_x = sum(s.sum_x for s in stats.values())
        expect = 0.0
        for i in range(len(cloud)):
            o, e = cloud.origins[i], cloud.endpoints[i]
            expect += _clip_length(o, e, grid.origin, grid.upper)
        assert total_x == pytest.approx(expect, abs=1e-6)

    def test_matches_single_ray_traverse(self, rng):
        grid = _grid(w=0.5, dims=(5, 5, 5))
        n = 120
        origins = rng.uniform(-1, 3.5, size=(n, 3))
        endpoints = rng.uniform(-1, 3.5, size=(n, 3))
        cloud = make_cloud(origins, endpoints)
        stats = accumulate(cloud, grid)

        oracle: dict = {}
        for i in range(n):
            ray = cloud[i]
            L = ray.length
            end_key = tuple(np.floor((ray.endpoint - grid.origin) / grid.voxel_width)
                            .astype(int))
            inside = np.all((ray.endpoint >= grid.origin) & (ray.endpoint < grid.upper))
            for key, t0, t1 in traverse(ray, grid):
                hit = bool(ray.contact and inside and key == end_key)
                rec = oracle.setdefault(key, [0, 0, 0.0])
                rec[0] += 1
                rec[1] += hit
                rec[2] += (min(t1, 1.0) - t0) * L
        assert set(stats) == set(oracle)
        for key, s in stats.items():
            n_o, m_o, sx_o = oracle[key]
            assert s.n == n_o and s.m == m_o
            assert s.sum_x == pytest.approx(sx_o, abs=1e-9)

    def test_sums_add_left_to_right_in_walk_order(self, rng):
        # a fan of near-parallel rays along +x; coordinates and directions are
        # binary fractions, so every traversal parameter is exact, while the
        # ray lengths are not, so the chords are inexact and their sums depend
        # on the order and grouping of the adds
        grid = _grid(w=0.25, dims=(16, 4, 4))
        n = 160
        origins = np.column_stack([np.full(n, -2.0), (2 * rng.integers(0, 32, (n, 2)) + 1) / 64])
        run = rng.choice([4.0, 8.0], n)   # contacts end inside the grid, the rest beyond it
        slopes = rng.choice([-1 / 16, -1 / 32, 0.0, 1 / 32, 1 / 16], (n, 2))
        endpoints = origins + np.column_stack([run, slopes * run[:, None]])
        cloud = make_cloud(origins, endpoints, contact=run == 4.0)
        stats = accumulate(cloud, grid)

        # each voxel's records in walk order: by walk step, then by ray (every
        # step of these walks emits a record, so a record's place in its ray's
        # traverse list is its step)
        lengths = cloud.lengths
        records: dict = {}
        for i in range(n):
            ray = cloud[i]
            for step, (key, t0, t1) in enumerate(traverse(ray, grid)):
                records.setdefault(key, []).append((step, i, (t1 - t0) * lengths[i]))
        assert set(stats) == set(records)
        pairwise_differs = False
        for key, recs in records.items():
            _, _, xs = zip(*sorted(recs))
            assert stats[key].n == len(xs)
            assert stats[key].sum_x == sum(xs)
            pairwise_differs |= len(xs) >= 8 and sum(xs) != np.array(xs).sum()
        # ndarray.sum adds pairwise from 8 items, which this fan tells apart
        assert pairwise_differs


def _lattice_rays(rng, grid, n=240):
    """Rays whose origins and endpoints are binary fractions on a lattice of
    an eighth of a voxel around the grid, so that rays pass exactly through
    faces, edges and corners. A quarter are lattice diagonals from voxel
    corners, which tie two or three axes at every exit; a quarter lie in a
    face plane (lower, inner or upper) with a zero direction component; a few
    have zero length. Origins and endpoints lie inside and up to two voxels
    beyond the grid."""
    w, lo, dims = grid.voxel_width, grid.origin, np.asarray(grid.dims)
    eighths = rng.integers(0, 8 * (dims + 4) + 1, (2, n, 3))
    origins, ends = lo - 2 * w + eighths * (w / 8)
    q = n // 4
    corners = lo + rng.integers(-2, dims + 3, (q, 3)) * w
    dirs = rng.choice([-1, 0, 1], (q, 3)) * rng.integers(1, 9, (q, 1)) * (w / 2)
    dirs[np.all(dirs == 0, axis=1)] = w / 2
    origins[:q], ends[:q] = corners, corners + dirs
    axis = rng.integers(0, 3, q)
    face = lo[axis] + rng.integers(0, dims[axis] + 1) * w
    rows = np.arange(q, 2 * q)
    origins[rows, axis] = ends[rows, axis] = face
    ends[-3:] = origins[-3:]
    return origins, ends


class TestWalk:
    @pytest.mark.parametrize("seed", range(48))
    def test_records_match_the_reference_walk(self, seed):
        rng = np.random.default_rng(seed)
        grid = _grid(origin=rng.integers(-8, 9, 3) / 4, w=float(rng.choice([0.25, 0.5, 1.0])),
                     dims=tuple(int(d) for d in rng.integers(1, 7, 3)))
        origins, ends = _lattice_rays(rng, grid)
        got = _walk(origins, ends - origins, grid)
        want = _walk_reference(origins, ends - origins, grid)
        assert len(want[0]) > 0
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))   # bit for bit


def _walk_reference(origins, deltas, grid):
    """The loop that _walk replaced: every ray's state, as (rays, 3) arrays,
    for the whole loop, gathered through np.nonzero(alive) at each step."""
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


class TestExpand:
    def test_well_sampled_voxel_unchanged(self):
        grid = _grid(dims=(3, 3, 3))
        stats = _view({(1, 1, 1): VoxelStats(n=15, m=4, sum_x=7.5)}, grid.dims)
        out = expand_undersampled(stats, grid, n_min=10)
        assert out[(1, 1, 1)] is stats[(1, 1, 1)]

    def test_empty_centre_borrows_neighbours(self):
        grid = _grid(dims=(3, 3, 3))
        stats = {}
        for key in np.ndindex(3, 3, 3):
            if key != (1, 1, 1):
                stats[key] = VoxelStats(n=1, m=1, sum_x=0.2)
        out = expand_undersampled(_view(stats, grid.dims), grid, n_min=10)
        assert out[(1, 1, 1)].n == 26
        assert out[(1, 1, 1)].m == 26
        assert out[(1, 1, 1)].sum_x == pytest.approx(26 * 0.2)

    def test_merged_sums_match_bruteforce(self, rng):
        dims = (5, 4, 6)
        grid = _grid(dims=dims)
        stats = {}
        for key in np.ndindex(*dims):
            if rng.random() < 0.6:
                n = int(rng.integers(0, 8))
                if n == 0:
                    continue
                m = int(rng.integers(0, n + 1))
                x = rng.uniform(0.1, 1.0, n) * rng.uniform(0, 1, n)
                stats[key] = VoxelStats(n=n, m=m, sum_x=float(x.sum()))
        n_min = 10
        view = _view(stats, dims)
        out = expand_undersampled(view, grid, n_min=n_min)
        for key in np.ndindex(*dims):
            s = out[key]
            assert s.m <= s.n
            own = stats.get(key)
            if own is not None and own.n >= n_min:
                assert s is view[key] == own
                continue
            # brute force: grow Chebyshev shells until n >= n_min
            for r in range(1, max(dims)):
                merged = _cheb_merge(stats, key, r, dims)
                if merged[0] >= n_min:
                    break
            n_o, m_o, sx_o = merged
            if n_o == 0:
                assert s.n == 0
            else:
                assert (s.n, s.m) == (n_o, m_o)
                assert s.sum_x == pytest.approx(sx_o, rel=1e-9)

    def test_expansion_never_decreases_n(self, rng):
        dims = (4, 4, 4)
        grid = _grid(dims=dims)
        stats = _view({(0, 0, 0): VoxelStats(n=2, m=1, sum_x=0.3)}, dims)
        out = expand_undersampled(stats, grid, n_min=10)
        assert out[(0, 0, 0)].n >= 2
        # grid holds only 2 rays in total: expansion exhausts it
        assert out[(0, 0, 0)].n == 2
        assert out[(3, 3, 3)].n == 2   # borrowed from across the grid
        assert out[(1, 1, 1)].n == 2

    @pytest.mark.parametrize("n_min", [1, 5, 10, 50])
    def test_matches_per_voxel_reference(self, rng, n_min):
        for dims, fill in (((7, 5, 6), 0.3), ((9, 4, 3), 0.05), ((2, 6, 1), 0.5),
                           ((2, 31, 3), 0.03)):
            stats = {}
            for key in np.ndindex(*dims):
                if rng.random() < fill:
                    n = int(rng.integers(1, 25))
                    x = rng.uniform(0.01, 0.2, n) * rng.uniform(0, 1, n)
                    stats[key] = VoxelStats(n=n, m=int(rng.integers(0, n + 1)),
                                            sum_x=float(x.sum()))
            _assert_same_expansion(stats, _grid(dims=dims), n_min)
            # n_min above the grid's total n: every short voxel pools the whole grid
            total = sum(s.n for s in stats.values())
            _assert_same_expansion(stats, _grid(dims=dims), total + n_min)
        # one long axis with rays at one end only: the far end reaches n_min at the
        # last radius the search tries, max_radius - 1, short of the whole grid
        stats = {(0, 0, 0): VoxelStats(n=1, m=0, sum_x=0.25),
                 (0, 1, 0): VoxelStats(n=n_min, m=1, sum_x=0.375)}
        out = _assert_same_expansion(stats, _grid(dims=(1, 24, 2)), n_min)
        assert out[(0, 23, 0)].n == out[(0, 23, 1)].n == n_min

    def test_offsets_are_32_bit_below_2_31_prefix_entries(self):
        assert _index_dtype(2**31 - 1) is np.int32
        assert _index_dtype(2**31) is np.int64

    @pytest.mark.parametrize("n", [0, 3, 12])
    def test_single_voxel_grid(self, n):
        # max radius 0: a short voxel can only merge itself
        stats = {(0, 0, 0): VoxelStats(n=n, m=min(n, 2), sum_x=0.1 * n)} if n else {}
        _assert_same_expansion(stats, _grid(dims=(1, 1, 1)), 10)

    def test_listed_voxels_without_rays_stay_empty(self):
        # n == 0 over the whole grid: every voxel is VoxelStats(), whatever sums were listed
        stats = {(0, 1, 0): VoxelStats(n=0, m=0, sum_x=0.25)}
        out = _assert_same_expansion(stats, _grid(dims=(2, 2, 2)), 10)
        assert all(s == VoxelStats() for s in out.values())

    @pytest.mark.parametrize("n_min", [0, -3])
    def test_n_min_below_one_rejected(self, n_min):
        # every voxel, crossed or not, would keep its own statistics
        with pytest.raises(VoxelGridError, match=rf"n_min {n_min} is below 1"):
            expand_undersampled(_view({(0, 0, 0): VoxelStats(1, 0, 0.1)}, (2, 1, 1)),
                                _grid(dims=(2, 1, 1)), n_min)

    @pytest.mark.parametrize("dims", [(2, 2, 1), (1, 2, 2), (2, 2, 2, 1)])
    def test_planes_that_do_not_fit_the_grid_rejected(self, dims):
        with pytest.raises(VoxelGridError, match=r"statistics of shape .* do not fit "
                                                 r"grid \(2, 2, 2\)"):
            expand_undersampled(_view({}, dims), _grid(dims=(2, 2, 2)))

    def test_grid_short_of_n_min_merges_everything(self):
        stats = {(0, 1, 2): VoxelStats(n=3, m=1, sum_x=0.25),
                 (3, 0, 0): VoxelStats(n=4, m=2, sum_x=0.5)}
        out = _assert_same_expansion(stats, _grid(dims=(4, 3, 3)), 10)
        assert {(s.n, s.m) for s in out.values()} == {(7, 3)}


def _expand_reference(stats, grid, n_min):
    """The per-voxel np.ndindex loop that expand_undersampled replaced."""
    dims = grid.dims
    fields = [np.zeros(dims) for _ in range(3)]
    for key, s in stats.items():
        for f, v in zip(fields, (s.n, s.m, s.sum_x)):
            f[key] = v
    prefixes = [np.pad(f, (1, 0)).cumsum(0).cumsum(1).cumsum(2) for f in fields]

    def window_sums(prefix, radius):
        idx = [np.arange(d) for d in dims]
        lo = [np.clip(ix - radius, 0, d - 1) for ix, d in zip(idx, dims)]
        hi = [np.clip(ix + radius, 0, d - 1) + 1 for ix, d in zip(idx, dims)]
        L0, L1, L2 = np.ix_(*lo)
        H0, H1, H2 = np.ix_(*hi)
        return (prefix[H0, H1, H2] - prefix[L0, H1, H2] - prefix[H0, L1, H2]
                - prefix[H0, H1, L2] + prefix[L0, L1, H2] + prefix[L0, H1, L2]
                + prefix[H0, L1, L2] - prefix[L0, L1, L2])

    radius = np.full(dims, -1)
    radius[fields[0] >= n_min] = 0
    max_radius = max(dims) - 1
    for r in range(1, max_radius + 1):
        pending = radius < 0
        if not np.any(pending):
            break
        radius[pending & (window_sums(prefixes[0], r) >= n_min)] = r
    out = {}
    for key in np.ndindex(*dims):
        r = int(radius[key])
        if r == 0:
            out[key] = stats[key]
            continue
        wn, wm, wsx = (window_sums(p, max_radius if r < 0 else r)[key] for p in prefixes)
        out[key] = (VoxelStats() if wn == 0 else
                    VoxelStats(int(round(wn)), int(round(wm)), float(wsx)))
    return out


def _assert_same_expansion(stats, grid, n_min):
    view = _view(stats, grid.dims)
    out = expand_undersampled(view, grid, n_min=n_min)
    ref = _expand_reference(stats, grid, n_min)
    assert list(out) == list(ref)
    for key, s in out.items():
        assert s == ref[key]   # n, m, sum_x exactly
        assert type(s.n) is int and type(s.m) is int and type(s.sum_x) is float
        own = stats.get(key)
        if own is not None and own.n >= n_min:
            assert s is view[key]
        elif s.n == 0:
            assert s == VoxelStats()
    return out


def _assert_same_bits(loaded, ref):
    for got, want in zip((loaded.n, loaded.m, loaded.sum_x), ref):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _cheb_merge(stats, key, r, dims):
    n = m = 0
    sx = 0.0
    for other, s in stats.items():
        if max(abs(a - b) for a, b in zip(other, key)) <= r:
            n += s.n
            m += s.m
            sx += s.sum_x
    return n, m, sx


def _patched(path, offset, fmt, *values):
    """Overwrite header fields of a saved file at byte `offset`."""
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, *values)
    path.write_bytes(bytes(data))


_COUNTS = "needs 0 <= m <= n and a finite sum_x"
_DEPTHS = "needs sum_x >= 0, and sum_x > 0 where m > 0"


class TestStatsFile:
    GRID = VoxelGrid(origin=np.array([0.5, -2.0, 0.3]), voxel_width=0.12,
                     dims=(4, 9, 5), row_index=3)
    EMPTY = _view({}, GRID.dims)
    ONE = _view({(1, 1, 1): VoxelStats(4, 1, 0.1)}, GRID.dims)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_is_bit_exact(self, tmp_path, seed):
        r = np.random.default_rng(seed)
        grid = VoxelGrid(origin=r.uniform(-3, 3, 3), voxel_width=float(r.uniform(0.1, 0.5)),
                         dims=tuple(int(v) for v in r.integers(2, 9, 3)), row_index=seed)
        cloud = make_cloud(r.uniform(-3, 6, (300, 3)), r.uniform(-3, 6, (300, 3)),
                           contact=r.random(300) < 0.7)
        dense = accumulate(cloud, grid).dense
        want = [dense.n, dense.m, dense.sum_x]
        extremes = [5e-324, 1e-310, 1e308, 1.7976931348623157e308]
        keys = list(np.ndindex(*grid.dims))[::7]
        for key, x in zip(keys, extremes):
            for a, v in zip(want, (2 ** 62, 2 ** 40, x)):
                a[key] = v
        save_stats(StatsView(dense, dense.n > 0), grid, tmp_path / "s.rcvs")
        loaded, g2 = load_stats(tmp_path / "s.rcvs")
        assert (g2.dims, g2.voxel_width, g2.row_index) == (grid.dims, grid.voxel_width, seed)
        assert g2.origin.tobytes() == grid.origin.tobytes()
        _assert_same_bits(loaded.dense, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_gives_back_what_accumulate_returned(self, tmp_path, seed):
        r = np.random.default_rng(seed)
        grid = VoxelGrid(origin=r.uniform(-3, 3, 3), voxel_width=float(r.uniform(0.1, 0.5)),
                         dims=tuple(int(v) for v in r.integers(1, 9, 3)), row_index=seed)
        lo, hi = grid.origin - 0.5, grid.upper + 0.5
        cloud = make_cloud(r.uniform(lo, hi, (300, 3)), r.uniform(lo, hi, (300, 3)),
                           contact=r.random(300) < 0.7)
        stats = accumulate(cloud, grid)
        save_stats(stats, grid, tmp_path / "s.rcvs")
        loaded, _ = load_stats(tmp_path / "s.rcvs")
        assert list(loaded) == list(stats) and len(stats) > 0
        for key, s in stats.items():
            assert loaded[key] == s
            assert type(loaded[key].n) is int and type(loaded[key].sum_x) is float
        d = stats.dense
        _assert_same_bits(loaded.dense, (d.n, d.m, d.sum_x))

    def test_empty_view_gives_zero_planes(self, tmp_path):
        save_stats(self.EMPTY, self.GRID, tmp_path / "s.rcvs")
        loaded, grid = load_stats(tmp_path / "s.rcvs")
        assert grid.dims == self.GRID.dims and len(loaded) == 0
        for array in (loaded.dense.n, loaded.dense.m, loaded.dense.sum_x):
            assert array.shape == grid.dims and not array.any()

    def test_wrong_magic_rejected(self, tmp_path):
        (tmp_path / "w.rcvs").write_bytes(b"RCDF\x01" + bytes(100))
        with pytest.raises(VoxelGridError, match=r"w\.rcvs: not a voxel statistics file"):
            load_stats(tmp_path / "w.rcvs")

    def test_truncated_header_rejected(self, tmp_path):
        save_stats(self.EMPTY, self.GRID, tmp_path / "s.rcvs")
        (tmp_path / "t.rcvs").write_bytes((tmp_path / "s.rcvs").read_bytes()[:30])
        with pytest.raises(VoxelGridError, match=r"t\.rcvs: truncated header \(30 bytes\)"):
            load_stats(tmp_path / "t.rcvs")

    @pytest.mark.parametrize("change", [-1, -8, 1, 8])
    def test_short_or_long_body_rejected(self, tmp_path, change):
        save_stats(self.ONE, self.GRID, tmp_path / "s.rcvs")
        data = (tmp_path / "s.rcvs").read_bytes()
        (tmp_path / "b.rcvs").write_bytes(data[:change] if change < 0 else data + bytes(change))
        with pytest.raises(VoxelGridError, match=rf"b\.rcvs: {len(data) + change} bytes where "
                                                 rf"grid \(4, 9, 5\) needs {len(data)}"):
            load_stats(tmp_path / "b.rcvs")

    # header: magic (5 bytes), dims <3i, voxel width <d, origin <3d, row index <i
    @pytest.mark.parametrize("offset, fmt, values, fault", [
        (5, "<3i", (4, -1, 5), r"negative grid dims \(4, -1, 5\)"),
        (17, "<d", (0.0,), "voxel width 0.0 is not finite and positive"),
        (17, "<d", (-0.1,), "voxel width -0.1 is not finite and positive"),
        (17, "<d", (np.nan,), "voxel width nan is not finite and positive"),
        (17, "<d", (np.inf,), "voxel width inf is not finite and positive"),
        (25, "<d", (np.nan,), "grid origin .* is not finite"),
        (41, "<d", (-np.inf,), "grid origin .* is not finite"),
    ], ids=["negative-dims", "zero-width", "negative-width", "nan-width", "inf-width",
            "nan-origin", "inf-origin"])
    def test_bad_grid_header_rejected(self, tmp_path, offset, fmt, values, fault):
        save_stats(self.EMPTY, self.GRID, tmp_path / "h.rcvs")
        _patched(tmp_path / "h.rcvs", offset, fmt, *values)
        with pytest.raises(VoxelGridError, match=rf"h\.rcvs: {fault}"):
            load_stats(tmp_path / "h.rcvs")

    @pytest.mark.parametrize("voxel, fault", [
        (VoxelStats(2, 3, 0.1), f"n=2, m=3, sum_x=0.1: {_COUNTS}"),
        (VoxelStats(2, -1, 0.1), f"n=2, m=-1, sum_x=0.1: {_COUNTS}"),
        (VoxelStats(2, 1, float("nan")), f"n=2, m=1, sum_x=nan: {_COUNTS}"),
        (VoxelStats(2, 1, float("inf")), f"n=2, m=1, sum_x=inf: {_COUNTS}"),
        (VoxelStats(5, 0, -0.3), f"n=5, m=0, sum_x=-0.3: {_DEPTHS}"),
        (VoxelStats(5, 2, 0.0), f"n=5, m=2, sum_x=0.0: {_DEPTHS}"),
        (VoxelStats(0, 0, 0.25), "n=0, m=0, sum_x=0.25: needs sum_x = 0 where n = 0"),
    ], ids=["m-above-n", "negative-m", "nan-sum", "inf-sum", "negative-sum",
            "zero-sum-with-contacts", "sum-without-rays"])
    def test_bad_statistics_rejected(self, tmp_path, voxel, fault):
        stats = {(0, 0, 0): VoxelStats(5, 2, 0.3), (3, 8, 2): voxel}
        save_stats(_view(stats, self.GRID.dims), self.GRID, tmp_path / "v.rcvs")
        with pytest.raises(VoxelGridError, match=rf"v\.rcvs: voxel \(3, 8, 2\): {fault}$"):
            load_stats(tmp_path / "v.rcvs")

    def test_voxel_count_past_int64_rejected(self, tmp_path):
        # 2^21 * 2^21 * 2^22 voxels: a count that wraps to 0 in int64 would let a
        # header-only file pass the size check
        save_stats(self.EMPTY, self.GRID, tmp_path / "s.rcvs")
        (tmp_path / "h.rcvs").write_bytes((tmp_path / "s.rcvs").read_bytes()[:53])
        _patched(tmp_path / "h.rcvs", 5, "<3i", 2 ** 21, 2 ** 21, 2 ** 22)
        with pytest.raises(VoxelGridError, match=r"h\.rcvs: 53 bytes where grid "
                                                 r"\(2097152, 2097152, 4194304\) needs \d{21}"):
            load_stats(tmp_path / "h.rcvs")

    def test_version_1_file_rejected(self, tmp_path):
        # the version-1 layout: the same header, then four planes (n, m, sum_x, sum_y)
        save_stats(self.ONE, self.GRID, tmp_path / "s.rcvs")
        data = (tmp_path / "s.rcvs").read_bytes()
        sum_y = bytes(8 * self.GRID.voxel_count)
        (tmp_path / "v1.rcvs").write_bytes(b"RCVS\x01" + data[5:] + sum_y)
        with pytest.raises(VoxelGridError, match=r"v1\.rcvs: not a voxel statistics file "
                                                 r"\(RCVS version 3\)"):
            load_stats(tmp_path / "v1.rcvs")

    def test_version_2_file_rejected(self, tmp_path):
        # the version-2 layout: the same header and planes, holding merged sums
        save_stats(self.ONE, self.GRID, tmp_path / "s.rcvs")
        data = (tmp_path / "s.rcvs").read_bytes()
        (tmp_path / "v2.rcvs").write_bytes(b"RCVS\x02" + data[5:])
        with pytest.raises(VoxelGridError, match=r"v2\.rcvs: not a voxel statistics file "
                                                 r"\(RCVS version 3\)"):
            load_stats(tmp_path / "v2.rcvs")

    def test_three_planes_of_24_bytes_per_voxel(self, tmp_path):
        save_stats(self.EMPTY, self.GRID, tmp_path / "s.rcvs")
        data = (tmp_path / "s.rcvs").read_bytes()
        assert data[:5] == b"RCVS\x03"
        assert len(data) == 5 + struct.calcsize("<3id3di") + 24 * self.GRID.voxel_count


def _parent_accumulate_dict(dense):
    """The dict accumulate built before it returned a StatsView, from the
    same grid-shaped planes."""
    n, m, sum_x = (a.ravel() for a in (dense.n, dense.m, dense.sum_x))
    crossed = np.flatnonzero(n)
    keys = zip(*(a.tolist() for a in np.unravel_index(crossed, dense.n.shape)))
    return dict(zip(keys, map(VoxelStats, *(a[crossed].tolist() for a in (n, m, sum_x)))))


def _parent_expand_dict(stats, merged, n_min):
    """The dict expand_undersampled built before it returned a StatsView:
    every voxel's merged statistics, then the caller's own objects where
    n >= n_min."""
    dims = merged.n.shape
    full = dict(zip(itertools.product(*map(range, dims)),
                    map(VoxelStats, *(a.ravel().tolist()
                                      for a in (merged.n, merged.m, merged.sum_x)))))
    own = np.zeros(dims, dtype=bool)
    for key, s in stats.items():
        own[key] = s.n >= n_min
    full.update((key, stats[key]) for key in zip(*(a.tolist() for a in np.nonzero(own))))
    return full


def _assert_same_dict(view, want):
    got = dict(view)
    assert list(got) == list(want)
    for key, s in got.items():
        assert s == want[key]
        assert type(s.n) is int and type(s.m) is int and type(s.sum_x) is float


class TestStatsView:
    def _view(self):
        n = np.zeros((3, 2, 2), dtype=np.int64)
        n[2, 0, 0] = 4
        n[0, 1, 1] = 2
        return StatsView(VoxelStats(n, n // 2, n * 0.25), n > 0)

    @pytest.mark.parametrize("key", [(-1, 0, 0), (-3, 1, 1), (0, -1, 1), (3, 0, 0),
                                     (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    def test_out_of_range_negative_and_empty_keys_raise(self, key):
        # numpy would read (-1, 0, 0) as the last voxel along x, (2, 0, 0)
        view = self._view()
        with pytest.raises(KeyError):
            view[key]
        assert key not in view and view.get(key) is None

    @pytest.mark.parametrize("key", [(2, 0), (2, 0, 0, 0), [2, 0, 0], "abc", 2, None,
                                     (2, 0, "0"), (2, 0, None)])
    def test_key_that_is_not_three_integers_raises(self, key):
        view = self._view()
        with pytest.raises(KeyError):
            view[key]
        assert view.get(key, "absent") == "absent"

    def test_in_get_len_like_a_dict(self):
        view = self._view()
        want = {(0, 1, 1): VoxelStats(2, 1, 0.5), (2, 0, 0): VoxelStats(4, 2, 1.0)}
        assert len(view) == 2 and list(view) == list(want) and view == want
        for key in np.ndindex(4, 3, 3):
            assert (key in view) == (key in want)
            assert view.get(key) == want.get(key)
        assert view[(2, 0, 0)] is view[(2, 0, 0)] is view.get((2, 0, 0))
        assert view[(np.int64(2), 0, 0)] is view[(2, 0, 0)]
        empty = StatsView(VoxelStats(*np.zeros((3, 2, 2, 2))), np.zeros((2, 2, 2), dtype=bool))
        assert len(empty) == 0 and not empty and empty == {} and list(empty) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_dicts_it_replaced(self, seed):
        r = np.random.default_rng(seed)
        grid = VoxelGrid(origin=r.uniform(-2, 2, 3), voxel_width=float(r.uniform(0.2, 0.8)),
                         dims=tuple(int(v) for v in r.integers(1, 9, 3)))
        count = int(r.integers(1, 400))
        cloud = make_cloud(r.uniform(-3, 5, (count, 3)), r.uniform(-3, 5, (count, 3)),
                           contact=r.random(count) < 0.6)
        stats = accumulate(cloud, grid)
        _assert_same_dict(stats, _parent_accumulate_dict(stats.dense))
        n_min = int(r.integers(1, 30))
        full = expand_undersampled(stats, grid, n_min=n_min)
        want = _parent_expand_dict(stats, full.dense, n_min)
        _assert_same_dict(full, want)
        assert all(full[key] is stats[key] for key, s in stats.items() if s.n >= n_min)

    @pytest.mark.parametrize("own_first", [True, False])
    def test_own_voxels_are_the_same_object_in_both(self, own_first):
        r = np.random.default_rng(7)
        grid = _grid(w=0.5, dims=(6, 6, 6))
        cloud = make_cloud(r.uniform(-1, 4, (600, 3)), r.uniform(-1, 4, (600, 3)))
        stats = accumulate(cloud, grid)
        full = expand_undersampled(stats, grid, n_min=10)
        own = list(zip(*(a.tolist() for a in np.nonzero(stats.dense.n >= 10))))
        assert own
        first, second = (stats, full) if own_first else (full, stats)
        read = [first[key] for key in own]
        assert all(second[key] is s for key, s in zip(own, read))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_chord_additivity_property(seed):
    r = np.random.default_rng(seed)
    grid = VoxelGrid(origin=r.uniform(-2, 2, 3), voxel_width=float(r.uniform(0.1, 1.0)),
                     dims=tuple(int(v) for v in r.integers(1, 7, 3)))
    o = r.uniform(-4, 6, 3)
    e = r.uniform(-4, 6, 3)
    if np.linalg.norm(e - o) < 1e-9:
        return
    ray = Ray(o, e, 0.0, True)
    total = sum((t1 - t0) for _, t0, t1 in traverse(ray, grid)) * ray.length
    assert abs(total - _clip_length(o, e, grid.origin, grid.upper)) < 1e-6
