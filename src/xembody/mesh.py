"""Triangle meshes: construction, loading, and area-weighted surface sampling."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TriMesh:
    """An indexed triangle mesh with vertices in meters.

    Invariants checked on construction: finite vertices, at least one face, all
    face indices in range. Winding is taken as authored; `sample_surface` fixes
    normal orientation by majority vote against the centroid.
    """

    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray  # (F, 3) int64

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValidationError(f"mesh vertices must be (V, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("mesh vertices must be finite")
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] < 1:
            raise ValidationError("mesh must have at least one triangular face")
        if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
            raise ValidationError("mesh face indices out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def triangles(self) -> np.ndarray:
        """(F, 3, 3) corner coordinates."""
        return self.vertices[self.faces]

    def face_areas(self) -> np.ndarray:
        return triangle_areas(self.triangles)

    def face_normals(self) -> np.ndarray:
        """Unit normals following the authored winding. Degenerate faces get zeros."""
        tri = self.triangles
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norms = np.linalg.norm(cross, axis=1, keepdims=True)
        return np.divide(cross, norms, out=np.zeros_like(cross), where=norms > 0)

    def area_centroid(self) -> np.ndarray:
        """Area-weighted centroid of the surface."""
        areas = self.face_areas()
        face_centers = self.triangles.mean(axis=1)
        total = areas.sum()
        if total <= 0:
            return self.vertices.mean(axis=0)
        return (face_centers * areas[:, None]).sum(axis=0) / total

    def total_area(self) -> float:
        return float(self.face_areas().sum())

    def scaled(self, factor: float) -> "TriMesh":
        return TriMesh(self.vertices * float(factor), self.faces)


def box_mesh(half_extents) -> TriMesh:
    """Axis-aligned box centered at the origin, 12 triangles wound outward.

    `half_extents` are the (hx, hy, hz) half side lengths, all strictly positive.
    """
    h = np.asarray(half_extents, dtype=float)
    if h.shape != (3,) or np.any(h <= 0):
        raise ValidationError(f"box half-extents must be 3 positive scalars, got {h}")
    hx, hy, hz = h
    vertices = np.array(
        [
            [-hx, -hy, -hz],
            [hx, -hy, -hz],
            [hx, hy, -hz],
            [-hx, hy, -hz],
            [-hx, -hy, hz],
            [hx, -hy, hz],
            [hx, hy, hz],
            [-hx, hy, hz],
        ]
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # -z
            [4, 5, 6], [4, 6, 7],  # +z
            [0, 1, 5], [0, 5, 4],  # -y
            [2, 3, 7], [2, 7, 6],  # +y
            [0, 4, 7], [0, 7, 3],  # -x
            [1, 2, 6], [1, 6, 5],  # +x
        ],
        dtype=np.int64,
    )
    return TriMesh(vertices, faces)


def outward_face_normals(mesh: TriMesh) -> np.ndarray:
    """Face normals oriented outward by majority vote against the centroid.

    If most authored normals point toward the area centroid, the whole set is
    flipped; individual faces are never flipped on their own, preserving
    orientation coherence of the authored winding.
    """
    normals = mesh.face_normals()
    centers = mesh.triangles.mean(axis=1)
    votes = np.einsum("ij,ij->i", normals, centers - mesh.area_centroid())
    if (votes < 0).sum() > (votes > 0).sum():
        normals = -normals
    return normals


def triangle_areas(triangles: np.ndarray) -> np.ndarray:
    """Areas of (F, 3, 3) triangles."""
    cross = np.cross(triangles[:, 1] - triangles[:, 0], triangles[:, 2] - triangles[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def sample_triangles(triangles: np.ndarray, count: int, rng: np.random.Generator):
    """Draw `count` area-weighted uniform samples from (F, 3, 3) triangles.

    Returns (points, face_indices); each point is the barycentric combination
    of its face's corners.
    """
    areas = triangle_areas(triangles)
    total = areas.sum()
    if total <= 0:
        raise ValidationError("surface has zero area")
    face_idx = rng.choice(len(areas), size=count, p=areas / total)
    # Uniform barycentric coordinates via the square-root trick.
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    a = 1.0 - r1
    b = r1 * (1.0 - r2)
    c = r1 * r2
    tri = triangles[face_idx]
    points = a[:, None] * tri[:, 0] + b[:, None] * tri[:, 1] + c[:, None] * tri[:, 2]
    return points, face_idx


def sample_surface(mesh: TriMesh, count: int, rng: np.random.Generator):
    """Draw `count` area-weighted uniform samples from the mesh surface.

    Returns (points, normals, face_indices): points lie exactly on their source
    face (barycentric combination of its corners), normals are the outward-
    oriented unit face normals.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    points, face_idx = sample_triangles(mesh.triangles, count, rng)
    return points, outward_face_normals(mesh)[face_idx], face_idx


def load_obj(text: str) -> TriMesh:
    """Parse a Wavefront OBJ string (v/f records; polygons are fan-triangulated)."""
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("v "):
            parts = line.split()
            vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
        elif line.startswith("f "):
            idx = [int(p.split("/")[0]) for p in line.split()[1:]]
            idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
            for k in range(1, len(idx) - 1):
                faces.append([idx[0], idx[k], idx[k + 1]])
    if not faces:
        raise ValidationError("OBJ document contains no faces")
    return TriMesh(np.array(vertices), np.array(faces, dtype=np.int64))


def load_stl(data: bytes) -> TriMesh:
    """Parse an STL file (binary or ASCII). Vertices are not deduplicated."""
    if data[:5].lower() == b"solid" and b"facet" in data[:500]:
        return _load_stl_ascii(data.decode("ascii", errors="replace"))
    if len(data) < 84:
        raise ValidationError("binary STL shorter than its 84-byte header")
    (n_tri,) = struct.unpack("<I", data[80:84])
    expected = 84 + 50 * n_tri
    if len(data) < expected:
        raise ValidationError(f"binary STL truncated: {len(data)} < {expected} bytes")
    records = np.frombuffer(data, dtype=np.uint8, count=50 * n_tri, offset=84)
    records = records.reshape(n_tri, 50)
    coords = records[:, 12:48].copy().view("<f4").reshape(n_tri, 3, 3).astype(float)
    vertices = coords.reshape(-1, 3)
    faces = np.arange(3 * n_tri, dtype=np.int64).reshape(n_tri, 3)
    return TriMesh(vertices, faces)


def _load_stl_ascii(text: str) -> TriMesh:
    coords = []
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["vertex"]:
            coords.append([float(parts[1]), float(parts[2]), float(parts[3])])
    if len(coords) % 3 != 0 or not coords:
        raise ValidationError("ASCII STL vertex count is not a multiple of 3")
    vertices = np.array(coords)
    faces = np.arange(len(coords), dtype=np.int64).reshape(-1, 3)
    return TriMesh(vertices, faces)


def load_mesh_file(path: str | Path) -> TriMesh:
    """Load a referenced mesh by extension (.obj or .stl)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".obj":
        try:
            return load_obj(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as err:
            raise ValidationError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") \
                from err
    if suffix == ".stl":
        return load_stl(path.read_bytes())
    raise ValidationError(f"unsupported mesh format {suffix!r} (expected .obj or .stl)")
