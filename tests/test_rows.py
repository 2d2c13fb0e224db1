"""Row direction estimation and per-row segmentation."""

import numpy as np
import pytest

from raycanopy.raycloud import RayCloud
from raycanopy.rows import (MIN_STEP, RowSegment, RowSegmentationError, Trajectory,
                            _chord_direction, row_direction, split_rows,
                            straightness_value, to_row_coordinates)
from raycanopy.synthetic import VineyardSpec, simulate_scan

from conftest import make_cloud


def _traj(points):
    points = np.asarray(points, dtype=float)
    if points.shape[1] == 2:
        points = np.column_stack([points, np.zeros(len(points))])
    return Trajectory(points, np.arange(len(points), dtype=float))


def _boustrophedon(rng, lanes=(0.0, 3.0, 6.0), length=25.0, step=0.4, noise=0.03):
    pts = []
    for k, x in enumerate(lanes):
        ys = np.arange(0.0, length, step)
        if k % 2:
            ys = ys[::-1]
        for y in ys:
            pts.append([x + noise * rng.normal(), y + noise * rng.normal()])
        # connecting sweep to the next lane
        if k + 1 < len(lanes):
            for t in np.linspace(0.1, 0.9, 6):
                yc = length if k % 2 == 0 else 0.0
                pts.append([x + t * (lanes[k + 1] - x), yc + 0.8 * np.sin(np.pi * t)])
    return _traj(pts)


def row_direction_exhaustive(traj: Trajectory) -> tuple[np.ndarray, float]:
    """O(N^2) search over all (i, j); the oracle for the greedy scan."""
    pos2 = traj.positions[:, :2]
    n = len(pos2)
    best_v, best = -1.0, (0, n - 1)
    for i in range(n - 1):
        for j in range(i + 1, n):
            v = straightness_value(pos2, i, j)
            if v > best_v:
                best_v, best = v, (i, j)
    return _chord_direction(pos2, *best), best_v


def _angle(u, v):
    c = abs(float(np.dot(u, v)))
    return np.degrees(np.arccos(min(c, 1.0)))


class TestRowDirection:
    def test_straight_line_recovers_axis(self):
        traj = _traj([[x, 0.0] for x in np.linspace(0, 10, 40)])
        d = row_direction(traj)
        assert _angle(d, [1.0, 0.0]) < 1e-6

    def test_l_shape_picks_the_longer_leg(self):
        leg1 = [[x, 0.0] for x in np.linspace(0, 12, 40)]
        leg2 = [[12.0, y] for y in np.linspace(0.3, 5, 16)]
        d = row_direction(_traj(leg1 + leg2))
        assert _angle(d, [1.0, 0.0]) < 1.0

    def test_boustrophedon_matches_exhaustive_oracle(self, rng):
        traj = _boustrophedon(rng)
        d_greedy = row_direction(traj)
        d_exact, _ = row_direction_exhaustive(traj)
        assert _angle(d_greedy, d_exact) < 0.5

    def test_greedy_value_near_exhaustive_maximum(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            pts = np.cumsum(r.normal(scale=0.5, size=(60, 2)), axis=0)
            pts[:, 0] += np.linspace(0, 20, 60)   # drifting but mostly straight
            traj = _traj(pts)
            _, v_best = row_direction_exhaustive(traj)
            # the greedy chord is at least 90% as straight as the optimum
            assert _greedy_best_value(traj.positions[:, :2]) >= 0.9 * v_best

    def test_rotation_equivariance(self, rng):
        traj = _boustrophedon(rng)
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        pts = traj.positions.copy()
        pts[:, :2] = pts[:, :2] @ rot.T
        d = row_direction(traj)
        d_rot = row_direction(Trajectory(pts, traj.times))
        assert _angle(rot @ d, d_rot) < 1e-6

    def test_short_trajectory_rejected(self):
        with pytest.raises(RowSegmentationError):
            row_direction(_traj([[0, 0], [0.1, 0]]))


def _greedy_best_value(pos2):
    n = len(pos2)
    i, j = 0, 1
    best = straightness_value(pos2, i, j)
    while not (j == n - 1 and i == j - 1):
        v_head = straightness_value(pos2, i, j + 1) if j + 1 < n else -np.inf
        v_tail = straightness_value(pos2, i + 1, j) if i + 1 < j else -np.inf
        if v_head >= v_tail:
            j += 1
            v = v_head
        else:
            i += 1
            v = v_tail
        best = max(best, v)
    return best


class TestTrajectory:
    def test_from_raycloud_downsamples(self, rng):
        n = 200
        origins = np.column_stack([np.linspace(0, 2, n), np.zeros(n), np.ones(n)])
        endpoints = origins + np.array([0, 1.0, 0])
        cloud = make_cloud(origins, endpoints)
        traj = Trajectory.from_raycloud(cloud)
        assert 2 < len(traj.positions) < n
        steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        assert np.all(steps >= MIN_STEP - 1e-12)

    def test_ground_shift_keeps_positions(self, rng):
        # subtract_ground shifts each ray by the terrain under its own endpoint
        stops = np.column_stack([np.linspace(0, 10, 100), np.zeros(100), np.full(100, 1.5)])
        origins = np.repeat(stops, 40, axis=0)
        endpoints = origins + rng.normal(size=origins.shape)
        times = np.arange(len(origins)) * 1e-3
        dz = np.column_stack([np.zeros((len(origins), 2)), rng.uniform(-0.2, 0.2, len(origins))])
        raw = Trajectory.from_raycloud(make_cloud(origins, endpoints, times=times))
        flat = Trajectory.from_raycloud(make_cloud(origins + dz, endpoints + dz, times=times))
        assert len(raw.positions) == 100
        np.testing.assert_array_equal(flat.positions[:, :2], raw.positions[:, :2])
        np.testing.assert_array_equal(flat.times, raw.times)

    def test_matches_per_ray_loop(self, rng):
        for _ in range(20):
            # runs of repeated origins, some revisiting an earlier position;
            # times tie, step back and repeat, also inside a run
            stops = rng.uniform(0, 2, (30, 3))
            stops = stops[rng.integers(0, 30, 40)]
            origins = np.repeat(stops, rng.integers(1, 6, 40), axis=0)
            times = np.round(np.arange(len(origins)) * 0.1 + rng.normal(0, 0.3, len(origins)), 1)
            cloud = make_cloud(origins, origins + 1.0, times=times)
            traj = Trajectory.from_raycloud(cloud)
            keep = _from_raycloud_reference(origins[:, :2], times)
            np.testing.assert_array_equal(traj.positions, origins[keep])
            np.testing.assert_array_equal(traj.times, times[keep])

    def test_validate_rejects_jump(self):
        traj = _traj([[0, 0], [1, 0], [20, 0]])
        with pytest.raises(RowSegmentationError, match="jump"):
            traj.validate()


def _from_raycloud_reference(xy, times):
    """The per-ray loop that Trajectory.from_raycloud replaced."""
    keep = [0]
    last = xy[0]
    for i in range(1, len(xy)):
        if np.linalg.norm(xy[i] - last) >= MIN_STEP and times[i] > times[keep[-1]]:
            keep.append(i)
            last = xy[i]
    return keep


def _three_row_cloud(rng, lanes=(0.0, 3.0, 6.0), n_per=300):
    """Drive lines along +x at the given lateral (y) positions.

    With direction (1, 0) the lateral coordinate used by split_rows is y.
    """
    origins, endpoints = [], []
    for y in lanes:
        o = np.column_stack([rng.uniform(0, 20, n_per),
                             y + 0.05 * rng.normal(size=n_per),
                             np.full(n_per, 1.0)])
        e = o + np.column_stack([rng.uniform(-0.5, 0.5, n_per),
                                 rng.uniform(-1.4, 1.4, n_per),
                                 rng.uniform(-0.8, 0.8, n_per)])
        origins.append(o)
        endpoints.append(e)
    return make_cloud(np.vstack(origins), np.vstack(endpoints))


class TestSplitRows:
    def test_three_lanes_give_expected_bands(self, rng):
        cloud = _three_row_cloud(rng)
        segments = split_rows(cloud, np.array([1.0, 0.0]))
        assert not any(s.fallback for s in segments)
        # two inter-lane bands plus a half-band beyond each outer lane
        assert len(segments) == 4
        intervals = [s.lateral_interval for s in segments]
        assert all(intervals[i][1] == intervals[i + 1][0] for i in range(3))
        cuts = [intervals[0][1], intervals[1][1], intervals[2][1]]
        np.testing.assert_allclose(cuts, [0.0, 3.0, 6.0], atol=0.25)

    def test_endpoints_partition_exactly(self, rng):
        cloud = _three_row_cloud(rng)
        d = np.array([1.0, 0.0])
        segments = split_rows(cloud, d)
        perp = np.array([-d[1], d[0]])
        lat = cloud.endpoints[:, :2] @ perp
        total = 0
        for s in segments:
            lo, hi = s.lateral_interval
            inside = (lat >= lo) & (lat < hi)
            total += int(inside.sum())
        # every endpoint falls in exactly one half-open band (outermost
        # endpoints sit on a band edge and stay countable once each)
        assert total >= len(cloud) - 2

    def test_single_cluster_falls_back_to_one_row(self, rng):
        o = np.column_stack([rng.uniform(0, 20, 200), 0.02 * rng.normal(size=200),
                             np.ones(200)])
        e = o + np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200),
                                 np.zeros(200)])
        cloud = make_cloud(o, e)
        segments = split_rows(cloud, np.array([1.0, 0.0]))
        assert len(segments) == 1
        assert segments[0].fallback

    def test_many_lanes_recovered_within_half_bin(self, rng):
        lanes = tuple(2.75 * k for k in range(8))
        cloud = _three_row_cloud(rng, lanes=lanes, n_per=400)
        segments = split_rows(cloud, np.array([1.0, 0.0]), bin_width=0.2)
        cuts = sorted(s.lateral_interval[1] for s in segments[:-1])
        assert len(cuts) == len(lanes)
        for cut, lane in zip(cuts, lanes):
            assert abs(cut - lane) <= 0.1 + 1e-9   # within bin_width / 2

    def test_long_rays_shared_between_bands(self, rng):
        cloud = _three_row_cloud(rng)
        # one ray spanning all bands laterally
        big = make_cloud(np.vstack([cloud.origins, [[5.0, -2.0, 1.0]]]),
                         np.vstack([cloud.endpoints, [[5.0, 8.0, 1.0]]]),
                         contact=np.append(cloud.contact, True))
        segments = split_rows(big, np.array([1.0, 0.0]))
        last = len(big) - 1
        shared = sum(_contains_ray(s, big, last) for s in segments)
        assert shared == len(segments)

    def test_empty_cloud_rejected(self):
        z = np.zeros((0, 3))
        empty = RayCloud(z, z, np.zeros(0), np.zeros(0, dtype=bool), 10.0)
        with pytest.raises(RowSegmentationError):
            split_rows(empty, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("direction, bin_width, name", [
        ((1.0, 0.0), 0.0, "bin_width"),
        ((1.0, 0.0), -1.0, "bin_width"),
        ((1.0, 0.0), float("nan"), "bin_width"),
        ((1.0, 0.0), float("inf"), "bin_width"),
        ((0.0, 0.0), 0.2, "direction"),
        ((float("nan"), 1.0), 0.2, "direction"),
        ((float("inf"), 1.0), 0.2, "direction"),
    ])
    def test_bad_argument_rejected_by_name(self, rng, direction, bin_width, name):
        with pytest.raises(RowSegmentationError, match=name):
            split_rows(_three_row_cloud(rng, n_per=20), np.array(direction), bin_width)


def _contains_ray(segment: RowSegment, cloud, idx) -> bool:
    return cloud.times[idx] in to_row_coordinates(cloud, segment).times


def _band(cloud, row):
    """The rays of `cloud` that `row`, a band in row coordinates, holds, in
    world coordinates (make_cloud gives each ray its own time)."""
    return cloud.select(np.isin(cloud.times, row.times))


class TestRowCoordinates:
    def test_axis_direction_is_swap_and_translation(self, rng):
        cloud = _three_row_cloud(rng)
        seg = split_rows(cloud, np.array([1.0, 0.0]))[1]
        row = to_row_coordinates(cloud, seg)
        band = _band(cloud, row)
        lo, hi = seg.lateral_interval
        centre = 0.5 * (lo + hi)
        # direction (1,0): row y is world x, row x measures -(y - band centre)
        np.testing.assert_allclose(row.endpoints[:, 0],
                                   centre - band.endpoints[:, 1], atol=1e-9)
        assert row.endpoints[:, 1].min() == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(row.endpoints[:, 2], band.endpoints[:, 2])

    def test_rigid_transform_preserves_distances(self, rng):
        cloud = _three_row_cloud(rng, lanes=(0.0, 3.0, 6.0))
        d = np.array([0.6, 0.8])
        d /= np.linalg.norm(d)
        seg = split_rows(cloud, d)[0]
        row = to_row_coordinates(cloud, seg)
        band = _band(cloud, row)
        pts_a = band.endpoints
        pts_b = row.endpoints
        k = min(len(pts_a), 60)
        da = np.linalg.norm(pts_a[:k, None] - pts_a[None, :k], axis=2)
        db = np.linalg.norm(pts_b[:k, None] - pts_b[None, :k], axis=2)
        np.testing.assert_allclose(db, da, atol=1e-9)
        np.testing.assert_allclose(row.lengths, band.lengths, atol=1e-9)

    def test_round_trip_inverse(self, rng):
        cloud = _three_row_cloud(rng, lanes=(0.0, 3.0, 6.0))
        d = np.array([0.6, 0.8])
        d /= np.linalg.norm(d)
        seg = split_rows(cloud, d)[0]
        row = to_row_coordinates(cloud, seg)
        band = _band(cloud, row)
        dx, dy = seg.direction
        rot = np.array([[dy, -dx, 0.0], [dx, dy, 0.0], [0.0, 0.0, 1.0]])
        lo, hi = seg.lateral_interval
        # invert: add back the shift, rotate back
        y_min = (band.endpoints @ rot.T)[:, 1].min()
        restored = (row.endpoints + np.array([-0.5 * (lo + hi), y_min, 0.0])) @ rot
        np.testing.assert_allclose(restored, band.endpoints, atol=1e-9)

    def test_band_holds_overlapping_rays_and_endpoints_in_half_open_interval(self):
        # direction (1, 0): the lateral coordinate is y, the band is 0 <= y < 1
        seg = RowSegment(np.array([1.0, 0.0]), (0.0, 1.0), index=0)
        origin_y = [-1.0, 0.5, 3.0, -2.0, 2.0]
        endpoint_y = [2.0, 0.5, 1.0, 0.0, 3.0]
        cloud = make_cloud([[i, y, 1.0] for i, y in enumerate(origin_y)],
                           [[i, y, 0.0] for i, y in enumerate(endpoint_y)])
        row = to_row_coordinates(cloud, seg)
        # crosses the band; lies in it; ends on the open edge; ends on the
        # closed edge; misses it
        assert row.times.tolist() == [0.0, 1.0, 3.0]


def _turned(cloud, degrees):
    """`cloud` turned about the z axis by `degrees`."""
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))

    def turn(p):
        return np.column_stack([c * p[:, 0] - s * p[:, 1], s * p[:, 0] + c * p[:, 1], p[:, 2]])
    return RayCloud(turn(cloud.origins), turn(cloud.endpoints), cloud.times, cloud.contact,
                    cloud.max_range, cloud.frame_id)


def test_diagonal_row_frame_is_the_explicit_formula_bit_for_bit(monkeypatch):
    """On a scan turned by 40 degrees, where products are not exact, the
    direction split_rows stores, the lateral coordinates it bins, the rays each
    band holds and their row-frame x and y are the explicit formulas: the
    direction over sqrt(dx*dx + dy*dy), x = X*dy + Y*(-dx), y = X*dx + Y*dy."""
    scan = simulate_scan(VineyardSpec(row_length=6, max_range=6), spacing=0.2,
                         rays_per_position=30, seed=3)
    cloud = _turned(scan, 40.0)
    binned, histogram = [], np.histogram
    monkeypatch.setattr(np, "histogram", lambda a, *args, **kwargs:
                        binned.append(np.copy(a)) or histogram(a, *args, **kwargs))
    d = 2.5 * np.array([-np.sin(np.radians(40.0)), np.cos(np.radians(40.0))])
    segments = split_rows(cloud, d)
    monkeypatch.undo()
    dx, dy = segments[0].direction
    assert segments[0].direction.tobytes() == (d / np.sqrt(d[0] * d[0] + d[1] * d[1])).tobytes()

    def frame(p):
        return p[:, 0] * dy + p[:, 1] * -dx, p[:, 0] * dx + p[:, 1] * dy
    (x_o, y_o), (x_e, y_e) = frame(cloud.origins), frame(cloud.endpoints)
    assert binned[0].tobytes() == (-x_o).tobytes()
    assert len(segments) >= 3 and not segments[0].fallback
    for seg in segments:
        lo, hi = seg.lateral_interval
        keep = ((np.minimum(-x_o, -x_e) < hi) & (np.maximum(-x_o, -x_e) > lo)) \
            | ((-x_e >= lo) & (-x_e < hi))
        row = to_row_coordinates(cloud, seg)
        assert row.times.tobytes() == cloud.times[keep].tobytes()
        y_min = y_e[keep].min()
        for got, x, y, p in ((row.origins, x_o, y_o, cloud.origins),
                             (row.endpoints, x_e, y_e, cloud.endpoints)):
            assert got[:, 0].tobytes() == (x[keep] + 0.5 * (lo + hi)).tobytes()
            assert got[:, 1].tobytes() == (y[keep] - y_min).tobytes()
            assert got[:, 2].tobytes() == p[keep, 2].tobytes()
