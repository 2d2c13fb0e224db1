"""Row direction estimation and per-row frames on a ray cloud.

The sensor trajectory (deduplicated ray origins) is scanned for its longest
straight run, which gives the row axis. Origin density perpendicular to that
axis then shows one peak per drive line; the peaks cut the lateral axis into
one band per row. A row is only its direction and lateral interval:
`to_row_coordinates` moves its band of the cloud into the row's frame. All
lengths and projections are elementwise multiply-adds, never BLAS calls.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .raycloud import RayCloud

log = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 0.2  # m, well below 2-3.2 m row spacing, above GPS jitter
MIN_RECT_WIDTH = 1e-4    # m, clamp for collinear segments in v = l^2 / w
MIN_STEP = 0.05          # m, x-y move that makes a new trajectory position


class RowSegmentationError(ValueError):
    pass


def _length(v):   # of an x-y vector; np.linalg.norm of one vector calls BLAS ddot
    return np.sqrt(v[0] * v[0] + v[1] * v[1])


@dataclass
class Trajectory:
    """Time-ordered sensor positions recovered from ray origins."""

    positions: np.ndarray  # (N, 3)
    times: np.ndarray      # (N,)

    @classmethod
    def from_raycloud(cls, cloud: RayCloud) -> "Trajectory":
        """Down-sample ray origins: keep a position once it moved MIN_STEP in x-y.

        The step ignores z: subtract_ground shifts each ray by the terrain
        height under its own endpoint, so on a flattened cloud the origins of
        one sensor position differ in z from ray to ray.
        """
        if len(cloud) == 0:
            raise RowSegmentationError("cannot build trajectory from empty cloud")
        xy = cloud.origins[:, :2]
        times = cloud.times
        # The loop visits runs of identical x-y origins (one per sensor
        # position), keeping what a per-ray loop keeps: a run's rays share one
        # distance to the last kept position, so the first ray later than the
        # last kept time is kept, and the rest of its run lies 0 m from it.
        starts = np.flatnonzero(np.any(xy[1:] != xy[:-1], axis=1)) + 1
        keep, last = [0], xy[0]
        for s, e in zip(starts.tolist(), starts[1:].tolist() + [len(xy)]):
            if not _length(xy[s] - last) >= MIN_STEP:
                continue
            later = np.flatnonzero(times[s:e] > times[keep[-1]])
            if len(later):
                keep.append(s + int(later[0]))
                last = xy[keep[-1]]
        return cls(cloud.origins[np.asarray(keep)], times[np.asarray(keep)])

    def validate(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise RowSegmentationError("trajectory times must be strictly increasing")
        step = np.linalg.norm(np.diff(self.positions, axis=0), axis=1)
        if step.size and step.max() > 5.0:
            raise RowSegmentationError("trajectory has a jump larger than 5 m")


@dataclass
class RowSegment:
    """One vineyard row band: the row direction and the band's lateral interval."""

    direction: np.ndarray            # horizontal unit 2-vector
    lateral_interval: tuple[float, float]
    index: int
    fallback: bool = False           # True when no drive-line peaks were found


def straightness_value(positions_2d: np.ndarray, i: int, j: int) -> float:
    """v = l^2 / w of the chord-aligned bounding rectangle of positions[i..j]."""
    pts = positions_2d[i:j + 1]
    chord = pts[-1] - pts[0]
    norm = _length(chord)
    if norm < 1e-12:
        return 0.0
    across, along = _frame(pts, chord / norm)
    l = along.max() - along.min()
    w = max(across.max() - across.min(), MIN_RECT_WIDTH)
    return l * l / w


def row_direction(traj: Trajectory) -> np.ndarray:
    """Estimate the row axis as the direction of the straightest long trajectory run.

    Greedy two-index scan: repeatedly advance whichever of head or tail yields
    the higher v = l^2/w, keeping the best segment seen. Approximate by design;
    ties advance the head for determinism.
    """
    pos2 = traj.positions[:, :2]
    n = len(pos2)
    if n < 2:
        raise RowSegmentationError("trajectory needs at least 2 positions")
    if _length(pos2.max(axis=0) - pos2.min(axis=0)) < 1.0:
        raise RowSegmentationError("trajectory spans less than 1 m")

    i, j = 0, 1
    best_v = straightness_value(pos2, i, j)
    best = (i, j)
    while not (j == n - 1 and i == j - 1):
        v_head = straightness_value(pos2, i, j + 1) if j + 1 < n else -np.inf
        v_tail = straightness_value(pos2, i + 1, j) if i + 1 < j else -np.inf
        if v_head >= v_tail:
            j += 1
            v = v_head
        else:
            i += 1
            v = v_tail
        if v > best_v:
            best_v, best = v, (i, j)
    return _chord_direction(pos2, *best)


def _chord_direction(pos2: np.ndarray, i: int, j: int) -> np.ndarray:
    chord = pos2[j] - pos2[i]
    norm = _length(chord)
    if norm < 1e-12:
        raise RowSegmentationError("zero-extent trajectory segment")
    return chord / norm


def _principal_peaks(counts: np.ndarray) -> list[int]:
    """Local peaks whose above-half-maximum neighbourhood holds no higher bin."""
    peaks = []
    n = len(counts)
    for i in range(n):
        left = counts[i - 1] if i > 0 else -1
        right = counts[i + 1] if i + 1 < n else -1
        if counts[i] <= 0 or counts[i] <= left or counts[i] < right:
            continue  # leftmost-of-plateau rule: strictly above left, >= right
        half = counts[i] / 2.0
        lo = i
        while lo - 1 >= 0 and counts[lo - 1] >= half:
            lo -= 1
        hi = i
        while hi + 1 < n and counts[hi + 1] >= half:
            hi += 1
        if np.any(counts[lo:hi + 1] > counts[i]):
            continue
        peaks.append(i)
    return peaks


def _frame(points: np.ndarray, direction) -> tuple[np.ndarray, np.ndarray]:
    """Across-row x and along-row y of each point's world x-y (right-handed, z up).

    x = X*dy + Y*(-dx) and y = X*dx + Y*dy for direction (dx, dy), as plain
    elementwise multiply-adds in that order, so no BLAS build can change them.
    """
    dx, dy = direction
    X, Y = points[:, 0], points[:, 1]
    return X * dy + Y * -dx, X * dx + Y * dy


def split_rows(cloud: RayCloud, direction: np.ndarray,
               bin_width: float = DEFAULT_BIN_WIDTH) -> list[RowSegment]:
    """Cut the lateral axis into row bands between drive-line density peaks.

    Bands are ordered by lateral coordinate; half-bands beyond the outermost
    peaks keep the boundary vines. Each segment carries the normalised
    direction, which `to_row_coordinates` uses as it is.
    """
    if len(cloud) == 0:
        raise RowSegmentationError("cannot split an empty cloud")
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise RowSegmentationError(f"bin_width must be positive and finite, not {bin_width!r}")
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,) or not np.all(np.isfinite(d)) or not np.any(d):
        raise RowSegmentationError(f"direction must be finite and nonzero, not {direction!r}")
    d = d / _length(d)
    lat_o, lat_e = -_frame(cloud.origins, d)[0], -_frame(cloud.endpoints, d)[0]

    lo_all = float(min(lat_o.min(), lat_e.min()))
    hi_all = float(max(lat_o.max(), lat_e.max()))
    nbins = max(int(np.ceil((lat_o.max() - lat_o.min()) / bin_width)), 1)
    counts, edges = np.histogram(lat_o, bins=nbins,
                                 range=(float(lat_o.min()), float(lat_o.min()) + nbins * bin_width))
    peak_bins = _principal_peaks(counts)
    split_points = [0.5 * (edges[b] + edges[b + 1]) for b in peak_bins]

    # one peak carries no row information: the single drive line could sit
    # anywhere relative to the vines, so keep the cloud whole
    fallback = len(split_points) < 2
    if fallback:
        log.warning("split_rows: no drive-line peaks found; returning a single row")
        bounds = [lo_all, hi_all]
    else:
        cuts = sorted(split_points)
        bounds = (([lo_all] if lo_all < cuts[0] else []) + cuts
                  + ([hi_all] if hi_all > cuts[-1] else []))
    return [RowSegment(direction=d, lateral_interval=(float(lo), float(hi)),
                       index=idx, fallback=fallback)
            for idx, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def to_row_coordinates(cloud: RayCloud, segment: RowSegment) -> RayCloud:
    """The segment's band of `cloud`, rigidly moved into row coordinates.

    The band holds every ray whose segment overlaps the lateral interval, so
    long rays can appear in more than one row, and every ray whose endpoint
    lies in the half-open interval. y runs along the row direction, x across
    it, z is unchanged (ground is subtracted upstream). The band's lateral
    centre maps to x = 0 and the minimum endpoint y to 0.
    """
    lo, hi = segment.lateral_interval
    x_o, y_o = _frame(cloud.origins, segment.direction)
    x_e, y_e = _frame(cloud.endpoints, segment.direction)
    lat_o, lat_e = -x_o, -x_e   # what split_rows cut the bands on
    overlap = (np.minimum(lat_o, lat_e) < hi) & (np.maximum(lat_o, lat_e) > lo)
    # half-open bands partition the endpoints exactly
    keep = overlap | ((lat_e >= lo) & (lat_e < hi))
    if not keep.any():
        raise RowSegmentationError("row segment cloud is empty")
    x_centre, y_min = -0.5 * (lo + hi), y_e[keep].min()
    origins, endpoints = (np.column_stack([x[keep] - x_centre, y[keep] - y_min, p[keep, 2]])
                          for x, y, p in ((x_o, y_o, cloud.origins), (x_e, y_e, cloud.endpoints)))
    return RayCloud(origins, endpoints, cloud.times[keep], cloud.contact[keep],
                    cloud.max_range, cloud.frame_id)
