"""Ray cloud data model and file I/O.

A ray cloud augments a point cloud with the sensor origin, timestamp and
contact flag of every measurement, so that free space along each beam is
preserved. Clouds are stored as flat numpy arrays for speed; the `Ray`
dataclass is a per-element view used at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LENGTH_TOL = 1e-6


class RayCloudError(ValueError):
    """Invalid ray cloud content or construction input."""


class RayCloudParseError(RayCloudError):
    """Malformed ray cloud file."""


@dataclass(frozen=True)
class Ray:
    """One lidar measurement: directed segment from sensor to contact/max-range point."""

    origin: np.ndarray
    endpoint: np.ndarray
    time: float
    contact: bool

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.endpoint - self.origin))


@dataclass
class RayCloud:
    """Immutable set of rays sharing one global frame and max sensor range."""

    origins: np.ndarray      # (N, 3) float64, metres
    endpoints: np.ndarray    # (N, 3) float64, metres
    times: np.ndarray        # (N,) float64, seconds
    contact: np.ndarray      # (N,) bool
    max_range: float
    frame_id: str = "map"

    def __post_init__(self):
        self.origins = np.ascontiguousarray(self.origins, dtype=np.float64).reshape(-1, 3)
        self.endpoints = np.ascontiguousarray(self.endpoints, dtype=np.float64).reshape(-1, 3)
        self.times = np.ascontiguousarray(self.times, dtype=np.float64).reshape(-1)
        self.contact = np.ascontiguousarray(self.contact, dtype=bool).reshape(-1)
        self.origins.setflags(write=False)
        self.endpoints.setflags(write=False)
        self.times.setflags(write=False)
        self.contact.setflags(write=False)

    def __len__(self) -> int:
        return self.origins.shape[0]

    def __getitem__(self, i: int) -> Ray:
        return Ray(self.origins[i].copy(), self.endpoints[i].copy(),
                   float(self.times[i]), bool(self.contact[i]))

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.endpoints - self.origins, axis=1)

    def validate(self) -> None:
        """Raise RayCloudError naming the first offending ray, if any invariant fails."""
        n = len(self)
        if self.endpoints.shape != (n, 3) or self.times.shape != (n,) or self.contact.shape != (n,):
            raise RayCloudError("field shapes disagree")
        if self.max_range <= 0:
            raise RayCloudError("max_range must be positive")
        if n == 0:
            return
        for name, arr in (("origins", self.origins), ("endpoints", self.endpoints),
                          ("times", self.times)):
            if not np.all(np.isfinite(arr)):
                idx = int(np.argwhere(~np.isfinite(arr))[0][0])
                raise RayCloudError(f"non-finite value in {name} at ray {idx}")
        if np.any(self.times < 0):
            idx = int(np.argmax(self.times < 0))
            raise RayCloudError(f"negative time at ray {idx}")
        lengths = self.lengths
        if np.any(lengths <= 0):
            idx = int(np.argmax(lengths <= 0))
            raise RayCloudError(f"zero-length ray at index {idx}")
        over = lengths > self.max_range + LENGTH_TOL
        if np.any(over):
            idx = int(np.argmax(over))
            raise RayCloudError(
                f"ray {idx} has length {lengths[idx]:.6f} exceeding max_range {self.max_range}")
        bad_nc = ~self.contact & (np.abs(lengths - self.max_range) > LENGTH_TOL)
        if np.any(bad_nc):
            idx = int(np.argmax(bad_nc))
            raise RayCloudError(
                f"non-contact ray {idx} has length {lengths[idx]:.6f}, expected max_range")
        if np.any(np.diff(self.times) < 0):
            raise RayCloudError("rays are not sorted by time")


# ---------------------------------------------------------------------------
# File I/O: binary little-endian PLY with endpoint + ray-vector channels,
# plus a CSV fallback accepted on load. `_PLY_DTYPE` is the record layout
# (raycloudtools'): the PLY property lines, the properties the reader accepts
# and the CSV columns all come from it.

_PLY_DTYPE = np.dtype([
    ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
    ("nx", "<f8"), ("ny", "<f8"), ("nz", "<f8"),
    ("time", "<f8"), ("flags", "u1"),
])
_PLY_PROPS = [({"<f8": "double", "|u1": "uchar"}[_PLY_DTYPE[name].str], name)
              for name in _PLY_DTYPE.names]
_CSV_COLUMNS = ",".join(_PLY_DTYPE.names)
_CSV_ROW = ",".join("%d" if _PLY_DTYPE[name].kind == "u" else "%.17g"
                    for name in _PLY_DTYPE.names) + "\n"


def _to_records(cloud: RayCloud) -> np.ndarray:
    rec = np.empty(len(cloud), dtype=_PLY_DTYPE)
    # endpoint stored directly, ray vector = origin - endpoint (viewer friendly)
    rec["x"], rec["y"], rec["z"] = cloud.endpoints.T
    rv = cloud.origins - cloud.endpoints
    rec["nx"], rec["ny"], rec["nz"] = rv.T
    rec["time"] = cloud.times
    rec["flags"] = cloud.contact.astype(np.uint8)  # bit0 = contact
    return rec


def _from_records(rec: np.ndarray, max_range: float, frame_id: str) -> RayCloud:
    endpoints = np.column_stack([rec["x"], rec["y"], rec["z"]])
    origins = endpoints + np.column_stack([rec["nx"], rec["ny"], rec["nz"]])
    contact = (rec["flags"] & 1).astype(bool)
    cloud = RayCloud(origins, endpoints, np.asarray(rec["time"], dtype=np.float64),
                     contact, max_range, frame_id)
    cloud.validate()
    return cloud


def save_raycloud(cloud: RayCloud, path) -> None:
    """Write the cloud as binary little-endian PLY (or CSV if path ends in .csv)."""
    path = Path(path)
    rec = _to_records(cloud)
    if path.suffix.lower() == ".csv":
        with open(path, "w") as f:
            f.write(f"# max_range {cloud.max_range!r} frame_id {cloud.frame_id}\n")
            f.write(_CSV_COLUMNS + "\n")
            for r in rec:
                f.write(_CSV_ROW % tuple(r))
        return
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"comment max_range {cloud.max_range!r}\n"
        f"comment frame_id {cloud.frame_id}\n"
        f"element vertex {len(cloud)}\n"
        + "".join(f"property {kind} {name}\n" for kind, name in _PLY_PROPS)
        + "end_header\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.tobytes())


def load_raycloud(path) -> RayCloud:
    """Load a ray cloud from binary PLY or the CSV fallback."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(4)
    if head.startswith(b"ply"):
        return _load_ply(path)
    return _load_csv(path)


def _load_ply(path: Path) -> RayCloud:
    with open(path, "rb") as f:
        data = f.read()
    end = data.find(b"end_header\n")
    if end < 0:
        raise RayCloudParseError(f"{path}: missing end_header")
    header_lines = data[:end].decode("ascii", errors="replace").splitlines()
    body = data[end + len(b"end_header\n"):]

    count = None
    max_range = None
    frame_id = "map"
    props: list[tuple[str, str]] = []
    for ln, line in enumerate(header_lines, 1):
        parts = line.split()
        try:
            if not parts:
                continue
            if parts[0] == "format" and parts[1:2] != ["binary_little_endian"]:
                raise ValueError(f"unsupported format {' '.join(parts[1:]) or '(none)'}")
            elif parts[0] == "comment" and len(parts) >= 3 and parts[1] == "max_range":
                max_range = float(parts[2])
            elif parts[0] == "comment" and len(parts) >= 3 and parts[1] == "frame_id":
                frame_id = parts[2]
            elif parts[0] == "element" and parts[1] == "vertex":
                count, count_ln = int(parts[2]), ln
                if count < 0:
                    raise ValueError(f"negative vertex count {count}")
            elif parts[0] == "property":
                props.append((parts[1], parts[2]))
        except (ValueError, IndexError) as exc:
            detail = exc if isinstance(exc, ValueError) else "missing field"
            raise RayCloudParseError(f"{path}:{ln}: {line!r}: {detail}") from None
    if count is None:
        raise RayCloudParseError(f"{path}: no vertex element in header")
    if max_range is None:
        raise RayCloudParseError(f"{path}: no max_range comment in header")
    if props != _PLY_PROPS:
        raise RayCloudParseError(f"{path}: unexpected vertex properties {props}")
    nbytes = count * _PLY_DTYPE.itemsize
    if len(body) < nbytes:
        raise RayCloudParseError(
            f"{path}:{count_ln}: truncated body, record {len(body) // _PLY_DTYPE.itemsize}"
            f" of {count}")
    if len(body) > nbytes:
        raise RayCloudParseError(
            f"{path}:{count_ln}: {len(body) - nbytes} bytes after the {count} declared records")
    rec = np.frombuffer(body, dtype=_PLY_DTYPE)
    return _from_records(rec, max_range, frame_id)


def _load_csv(path: Path) -> RayCloud:
    max_range = None
    frame_id = "map"
    rows = []
    with open(path, "r") as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.replace(" ", "").lower().startswith(_PLY_DTYPE.names[0] + ","):
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if "max_range" in parts:
                        max_range = float(parts[parts.index("max_range") + 1])
                    if "frame_id" in parts:
                        frame_id = parts[parts.index("frame_id") + 1]
                    continue
                vals = line.split(",")
                if len(vals) != len(_PLY_DTYPE):
                    raise ValueError(f"expected {len(_PLY_DTYPE)} columns, got {len(vals)}")
                *values, flags = vals   # flags, the one integer column, comes last
                flags = int(flags)
                if not 0 <= flags <= 255:
                    raise ValueError(f"flags {flags} outside 0..255")
                rows.append((*map(float, values), flags))
            except (ValueError, IndexError) as exc:
                detail = exc if isinstance(exc, ValueError) else "missing field"
                raise RayCloudParseError(f"{path}:{ln}: {line!r}: {detail}") from None
    rec = np.array(rows, dtype=_PLY_DTYPE)
    if max_range is None:
        if not rows:
            raise RayCloudParseError(f"{path}: empty CSV without max_range comment")
        # fall back to the longest ray; exact for clouds containing non-returns
        rv = np.column_stack([rec["nx"], rec["ny"], rec["nz"]])
        max_range = float(np.linalg.norm(rv, axis=1).max())
    return _from_records(rec, max_range, frame_id)
