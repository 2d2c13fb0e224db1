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
HEIGHT_TOL = 1e-6
DEFAULT_CURVATURE = 0.1  # 1/m, fits typical vineyard undulation


class GroundExtractionError(ValueError):
    """Degenerate input: the lower hull of the endpoints is undefined."""


@dataclass
class GroundMesh:
    """Height-field triangle mesh lower-bounding the terrain.

    Triangles never overlap in horizontal projection, so a vertical query hits
    at most one. Queries go through a horizontal bin grid holding candidate
    triangle indices per cell.
    """

    vertices: np.ndarray              # (V, 3) float64
    triangles: np.ndarray             # (T, 3) int vertex indices
    bin_size: float
    bin_origin: np.ndarray = field(default=None)   # (2,) min corner of bin grid
    bin_dims: tuple[int, int] = field(default=None)
    bin_grid: dict = field(default=None)            # (i, j) -> int array of triangle ids

    def __post_init__(self):
        if self.bin_grid is None:
            self._build_bins()

    def _build_bins(self):
        v2 = self.vertices[:, :2]
        tri2 = v2[self.triangles]                     # (T, 3, 2)
        self.bin_origin = v2.min(axis=0)
        span = v2.max(axis=0) - self.bin_origin
        self.bin_dims = tuple(int(np.floor(s / self.bin_size)) + 1 for s in span)
        grid: dict[tuple[int, int], list[int]] = {}
        lo = np.floor((tri2.min(axis=1) - self.bin_origin) / self.bin_size).astype(int)
        hi = np.floor((tri2.max(axis=1) - self.bin_origin) / self.bin_size).astype(int)
        for t in range(len(self.triangles)):
            for i in range(lo[t, 0], hi[t, 0] + 1):
                for j in range(lo[t, 1], hi[t, 1] + 1):
                    grid.setdefault((i, j), []).append(t)
        self.bin_grid = {k: np.asarray(v, dtype=int) for k, v in grid.items()}


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

    edges = verts[:, :2][tris]
    edge_len = np.linalg.norm(np.diff(np.concatenate([edges, edges[:, :1]], axis=1), axis=1),
                              axis=2)
    bin_size = float(np.clip(edge_len.max(), 0.25, 5.0))
    return GroundMesh(vertices=verts, triangles=tris, bin_size=bin_size)


def height_at(mesh: GroundMesh, x: float, y: float) -> float | None:
    """Terrain height under (x, y), or None outside the mesh footprint."""
    i = int(np.floor((x - mesh.bin_origin[0]) / mesh.bin_size))
    j = int(np.floor((y - mesh.bin_origin[1]) / mesh.bin_size))
    cand = mesh.bin_grid.get((i, j))
    if cand is None:
        return None
    return _height_from_candidates(mesh, x, y, cand)


def _height_from_candidates(mesh: GroundMesh, x: float, y: float,
                            cand: np.ndarray) -> float | None:
    tri = mesh.vertices[mesh.triangles[cand]]  # (C, 3, 3)
    a, b, c = tri[:, 0, :2], tri[:, 1, :2], tri[:, 2, :2]
    d = np.array([x, y])
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    ok = np.abs(det) > 1e-18
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = ((d[0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (d[1] - a[:, 1]) * (c[:, 0] - a[:, 0])) / det
        w2 = ((b[:, 0] - a[:, 0]) * (d[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (d[0] - a[:, 0])) / det
    eps = 1e-9
    inside = ok & (w1 >= -eps) & (w2 >= -eps) & (w1 + w2 <= 1 + eps)
    if not np.any(inside):
        return None
    t = int(np.argmax(inside))
    z = tri[t, 0, 2] + w1[t] * (tri[t, 1, 2] - tri[t, 0, 2]) + w2[t] * (tri[t, 2, 2] - tri[t, 0, 2])
    return float(z)


def heights_at(mesh: GroundMesh, xy: np.ndarray) -> np.ndarray:
    """height_at for each (x, y) row, one query at a time: NaN where the
    footprint does not cover."""
    out = np.full(len(xy), np.nan)
    for idx, (x, y) in enumerate(xy):
        h = height_at(mesh, float(x), float(y))
        if h is not None:
            out[idx] = h
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
    """Write the mesh as ASCII OBJ for inspection."""
    with open(path, "w") as f:
        f.write(f"# bin_size {mesh.bin_size:.9g}\n")
        for v in mesh.vertices:
            f.write("v %.9g %.9g %.9g\n" % tuple(v))
        for t in mesh.triangles:
            f.write("f %d %d %d\n" % tuple(t + 1))


def import_obj(path) -> GroundMesh:
    """Read a mesh written by export_obj."""
    verts, tris, face_lines = [], [], []
    bin_size = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            try:
                if not parts:
                    continue
                if parts[0] == "#" and len(parts) == 3 and parts[1] == "bin_size":
                    bin_size = float(parts[2])
                elif parts[0] in ("v", "f"):
                    if len(parts) < 4:
                        raise ValueError(f"{parts[0]!r} needs 3 entries")
                    if parts[0] == "v":
                        verts.append([float(p) for p in parts[1:4]])
                    else:
                        tris.append([int(p.split("/")[0]) for p in parts[1:4]])
                        face_lines.append(lineno)
            except ValueError as exc:
                raise GroundExtractionError(f"{path}:{lineno}: {exc}") from None
    if not verts or not tris:
        raise GroundExtractionError(f"{path}: no mesh data")
    verts = np.asarray(verts, dtype=float)
    tris = np.asarray(tris, dtype=int)
    bad = np.any((tris < 1) | (tris > len(verts)), axis=1)
    if np.any(bad):
        first = int(np.argmax(bad))
        raise GroundExtractionError(
            f"{path}:{face_lines[first]}: face {tris[first].tolist()} indexes outside "
            f"vertices 1..{len(verts)}")
    tris -= 1   # OBJ indices are 1-based
    if bin_size is None:
        edges = verts[:, :2][tris]
        loop = np.concatenate([edges, edges[:, :1]], axis=1)
        bin_size = float(np.clip(np.linalg.norm(np.diff(loop, axis=1), axis=2).max(),
                                 0.25, 5.0))
    return GroundMesh(vertices=verts, triangles=tris, bin_size=bin_size)
