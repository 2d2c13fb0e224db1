"""Row direction estimation and per-row segmentation of a ray cloud.

The sensor trajectory (deduplicated ray origins) is scanned for its longest
straight run, which gives the row axis. Origin density perpendicular to that
axis then shows one peak per drive line; the peaks split the cloud into one
ray cloud per row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .raycloud import RayCloud

log = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 0.2  # m, well below 2-3.2 m row spacing, above GPS jitter
MIN_RECT_WIDTH = 1e-4    # m, clamp for collinear segments in v = l^2 / w
MIN_STEP = 0.05          # m, x-y move that makes a new trajectory position


class RowSegmentationError(ValueError):
    pass


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
        keep = [0]
        last = xy[0]
        for s, e in zip(starts.tolist(), starts[1:].tolist() + [len(xy)]):
            if not np.linalg.norm(xy[s] - last) >= MIN_STEP:
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
    """One vineyard row band: direction, lateral interval and its ray cloud."""

    direction: np.ndarray            # horizontal unit 2-vector
    lateral_interval: tuple[float, float]
    index: int
    cloud: RayCloud                  # world coordinates until to_row_coordinates
    fallback: bool = False           # True when no drive-line peaks were found


def straightness_value(positions_2d: np.ndarray, i: int, j: int) -> float:
    """v = l^2 / w of the chord-aligned bounding rectangle of positions[i..j]."""
    pts = positions_2d[i:j + 1]
    chord = pts[-1] - pts[0]
    norm = np.linalg.norm(chord)
    if norm < 1e-12:
        return 0.0
    d = chord / norm
    proj = pts @ d
    perp = pts @ np.array([-d[1], d[0]])
    l = proj.max() - proj.min()
    w = max(perp.max() - perp.min(), MIN_RECT_WIDTH)
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
    if np.linalg.norm(pos2.max(axis=0) - pos2.min(axis=0)) < 1.0:
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
    norm = np.linalg.norm(chord)
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


def split_rows(cloud: RayCloud, direction: np.ndarray,
               bin_width: float = DEFAULT_BIN_WIDTH) -> list[RowSegment]:
    """Split the cloud into row bands between drive-line density peaks.

    A ray is assigned to every band its segment overlaps, so long rays can
    appear in more than one row. Bands are ordered by lateral coordinate;
    half-bands beyond the outermost peaks keep the boundary vines.
    """
    if len(cloud) == 0:
        raise RowSegmentationError("cannot split an empty cloud")
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    perp = np.array([-d[1], d[0]])
    lat_o = cloud.origins[:, :2] @ perp
    lat_e = cloud.endpoints[:, :2] @ perp

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
        bands = [(lo_all, hi_all)]
    else:
        cuts = sorted(split_points)
        bands = []
        if lo_all < cuts[0]:
            bands.append((lo_all, cuts[0]))
        bands.extend((cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1))
        if hi_all > cuts[-1]:
            bands.append((cuts[-1], hi_all))

    ray_lo = np.minimum(lat_o, lat_e)
    ray_hi = np.maximum(lat_o, lat_e)
    segments = []
    for idx, (lo, hi) in enumerate(bands):
        overlap = (ray_lo < hi) & (ray_hi > lo)
        # half-open bands partition the endpoints exactly
        endpoint_in = (lat_e >= lo) & (lat_e < hi)
        mask = overlap | endpoint_in
        segments.append(RowSegment(direction=d, lateral_interval=(float(lo), float(hi)),
                                   index=idx, cloud=cloud.select(mask), fallback=fallback))
    return segments


def to_row_coordinates(segment: RowSegment) -> RayCloud:
    """Rigidly transform the segment cloud into row coordinates.

    y runs along the row direction, x across it, z is unchanged (ground is
    subtracted upstream). The band's lateral centre maps to x = 0 and the
    minimum endpoint y to 0.
    """
    cloud = segment.cloud
    if len(cloud) == 0:
        raise RowSegmentationError("row segment cloud is empty")
    dx, dy = segment.direction
    # x across-row, y along-row, z up: right-handed
    rot = np.array([[dy, -dx, 0.0],
                    [dx, dy, 0.0],
                    [0.0, 0.0, 1.0]])
    origins = cloud.origins @ rot.T
    endpoints = cloud.endpoints @ rot.T
    lo, hi = segment.lateral_interval
    # lateral coordinate used in split_rows is -x in this frame
    x_centre = -0.5 * (lo + hi)
    y_min = endpoints[:, 1].min()
    shift = np.array([x_centre, y_min, 0.0])
    return RayCloud(origins - shift, endpoints - shift, cloud.times, cloud.contact,
                    cloud.max_range, cloud.frame_id)
