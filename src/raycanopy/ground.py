"""Lower-bound terrain mesh extraction and ground-height normalisation.

The terrain surface is recovered by lifting contact endpoints with a
paraboloid, taking the 3D convex hull, keeping only the downward-facing
triangles and un-lifting the retained vertices. Because the paraboloid is
convex, the resulting mesh is a strict lower bound of the input points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .raycloud import RayCloud

log = logging.getLogger(__name__)

DOWN_NORMAL_EPS = 1e-9
DEFAULT_CURVATURE = 0.1  # 1/m, fits typical vineyard undulation
HEIGHT_QUERY_BLOCK = 8192  # queries per batched pass of heights_at; bounds its pair arrays


class GroundExtractionError(ValueError):
    """Degenerate input: the lower hull of the endpoints is undefined."""


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass
class GroundMesh:
    """Height-field triangle mesh lower-bounding the terrain.

    Triangles never overlap in horizontal projection, so a vertical query hits
    at most one. Queries go through a horizontal grid of square bins of side
    bin_size, stored in CSR form: the triangles whose bounding box overlaps
    bin b are bin_tris[bin_start[b]:bin_start[b + 1]], in ascending id order.
    Bin b is (i, j) with b = i * bin_dims[1] + j.
    """

    vertices: np.ndarray              # (V, 3) float64
    triangles: np.ndarray             # (T, 3) int vertex indices
    bin_size: float
    bin_origin: np.ndarray = field(init=False)   # (2,) min corner of bin grid
    bin_dims: tuple[int, int] = field(init=False)
    bin_start: np.ndarray = field(init=False)    # (bins + 1,) offsets into bin_tris
    bin_tris: np.ndarray = field(init=False)     # triangle ids, grouped by bin

    def __post_init__(self):
        v2 = self.vertices[:, :2]
        tri2 = v2[self.triangles]                     # (T, 3, 2)
        self.bin_origin = v2.min(axis=0)
        span = v2.max(axis=0) - self.bin_origin
        self.bin_dims = tuple(int(np.floor(s / self.bin_size)) + 1 for s in span)
        lo = np.floor((tri2.min(axis=1) - self.bin_origin) / self.bin_size).astype(np.int64)
        hi = np.floor((tri2.max(axis=1) - self.bin_origin) / self.bin_size).astype(np.int64)
        # one entry per (triangle, bin of its bounding box), triangles in id order
        ni, nj = (hi - lo + 1).T
        per_tri = ni * nj
        tri_id = np.repeat(np.arange(len(self.triangles)), per_tri)
        k = _offsets(per_tri)
        i = lo[tri_id, 0] + k // nj[tri_id]
        j = lo[tri_id, 1] + k % nj[tri_id]
        b = i * self.bin_dims[1] + j
        order = np.argsort(b, kind="stable")          # stable: ids stay ascending per bin
        self.bin_tris = tri_id[order]
        counts = np.bincount(b, minlength=self.bin_dims[0] * self.bin_dims[1])
        self.bin_start = np.concatenate([[0], np.cumsum(counts)])


def _paraboloid(points: np.ndarray, k: float) -> np.ndarray:
    lifted = points.copy()
    lifted[:, 2] += k * (points[:, 0] ** 2 + points[:, 1] ** 2)
    return lifted


def extract_ground(cloud: RayCloud, k: float = DEFAULT_CURVATURE) -> GroundMesh:
    """Extract the lower-bound terrain mesh from the cloud's contact endpoints.

    Endpoints are lifted by z += k*(x^2 + y^2), hulled, and the downward-facing
    hull triangles (outward normal z < -1e-9) are kept and un-lifted. Sky
    points (non-contact endpoints) are not terrain evidence and are excluded.
    """
    if k <= 0:
        raise GroundExtractionError("curvature k must be positive")
    pts = cloud.endpoints[cloud.contact]
    if len(pts) < 4:
        raise GroundExtractionError(f"need >= 4 contact endpoints, got {len(pts)}")
    # hull is invariant to horizontal paraboloid placement; recentre for conditioning
    centre = pts[:, :2].mean(axis=0)
    shifted = pts.copy()
    shifted[:, :2] -= centre
    lifted = _paraboloid(shifted, k)
    try:
        hull = ConvexHull(lifted)
    except QhullError as exc:
        raise GroundExtractionError(f"degenerate endpoint set (coplanar or collinear): {exc}") from exc

    normals = hull.equations[:, :3]   # outward unit normals
    down = normals[:, 2] < -DOWN_NORMAL_EPS
    simplices = hull.simplices[down]
    if len(simplices) == 0:
        raise GroundExtractionError("no downward-facing hull triangles found")

    used = np.unique(simplices)
    remap = np.full(lifted.shape[0], -1, dtype=int)
    remap[used] = np.arange(len(used))
    verts = lifted[used]
    verts[:, 2] -= k * (verts[:, 0] ** 2 + verts[:, 1] ** 2)
    verts[:, :2] += centre
    tris = remap[simplices]
    return GroundMesh(vertices=verts, triangles=tris, bin_size=_bin_size(verts, tris))


def _bin_size(verts: np.ndarray, tris: np.ndarray) -> float:
    """Median horizontal edge length, clipped to [0.25, 5] m.

    The median, not the longest edge: the lower hull's boundary slivers can
    be metres long, and bins that large give hundreds of candidates a query.
    """
    corners = verts[:, :2][tris]
    loop = np.concatenate([corners, corners[:, :1]], axis=1)
    edge_len = np.linalg.norm(np.diff(loop, axis=1), axis=2)
    return float(np.clip(np.median(edge_len), 0.25, 5.0))


def height_at(mesh: GroundMesh, x: float, y: float) -> float | None:
    """Terrain height under (x, y), or None outside the mesh footprint."""
    h = heights_at(mesh, np.array([[x, y]], dtype=float))[0]
    return None if np.isnan(h) else float(h)


def heights_at(mesh: GroundMesh, xy: np.ndarray) -> np.ndarray:
    """Terrain height under each (x, y) row, NaN where the footprint does not cover.

    Each query tests the triangles of its bin in ascending id order and takes
    the first whose barycentric coordinates lie within 1e-9 of the triangle.
    All (query, candidate) pairs of HEIGHT_QUERY_BLOCK queries are tested in
    one pass.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    out = np.full(len(xy), np.nan)
    for s in range(0, len(xy), HEIGHT_QUERY_BLOCK):
        block = slice(s, s + HEIGHT_QUERY_BLOCK)
        out[block] = _heights_block(mesh, xy[block])
    return out


def _heights_block(mesh: GroundMesh, xy: np.ndarray) -> np.ndarray:
    out = np.full(len(xy), np.nan)
    ij = np.floor((xy - mesh.bin_origin) / mesh.bin_size)
    on_grid = np.all((ij >= 0) & (ij < mesh.bin_dims), axis=1)
    q = np.nonzero(on_grid)[0]
    bins = ij[q, 0].astype(np.int64) * mesh.bin_dims[1] + ij[q, 1].astype(np.int64)
    start = mesh.bin_start[bins]
    count = mesh.bin_start[bins + 1] - start
    # pairs grouped by query, each query's candidates in ascending id order
    pq = np.repeat(q, count)
    pt = mesh.bin_tris[np.repeat(start, count) + _offsets(count)]

    t = mesh.vertices[mesh.triangles[pt]]   # (pairs, 3, 3)
    a, b, c = t[:, 0, :2], t[:, 1, :2], t[:, 2, :2]
    d = xy[pq]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    ok = np.abs(det) > 1e-18
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = ((d[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
              - (d[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])) / det
        w2 = ((b[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1])
              - (b[:, 1] - a[:, 1]) * (d[:, 0] - a[:, 0])) / det
    eps = 1e-9
    inside = np.nonzero(ok & (w1 >= -eps) & (w2 >= -eps) & (w1 + w2 <= 1 + eps))[0]
    # first inside candidate of each query
    hit = inside[np.diff(pq[inside], prepend=-1) != 0]
    z = t[hit, :, 2]
    out[pq[hit]] = z[:, 0] + w1[hit] * (z[:, 1] - z[:, 0]) + w2[hit] * (z[:, 2] - z[:, 0])
    return out


def subtract_ground(mesh: GroundMesh, cloud: RayCloud) -> tuple[RayCloud, int]:
    """Shift every ray vertically so its endpoint height is relative to the terrain.

    Each ray is shifted rigidly (origin and endpoint by the same amount), so
    ray lengths are preserved. Rays whose endpoint falls outside the mesh
    footprint are dropped; the drop count is returned alongside the cloud.
    """
    h = heights_at(mesh, cloud.endpoints[:, :2])
    keep = np.isfinite(h)
    dropped = int((~keep).sum())
    if dropped:
        log.warning("subtract_ground: dropped %d rays outside ground mesh footprint", dropped)
    origins = cloud.origins[keep].copy()
    endpoints = cloud.endpoints[keep].copy()
    origins[:, 2] -= h[keep]
    endpoints[:, 2] -= h[keep]
    out = RayCloud(origins, endpoints, cloud.times[keep], cloud.contact[keep],
                   cloud.max_range, cloud.frame_id)
    return out, dropped


def export_obj(mesh: GroundMesh, path) -> None:
    """Write the mesh as ASCII OBJ for inspection; nothing reads it back."""
    vertices = tuple(mesh.vertices.ravel().tolist())
    faces = tuple((mesh.triangles + 1).ravel().tolist())
    with open(path, "w") as f:
        f.write("v %.9g %.9g %.9g\n" * len(mesh.vertices) % vertices)
        f.write("f %d %d %d\n" * len(mesh.triangles) % faces)
