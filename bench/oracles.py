"""Reference computations the benchmark checks the program against.

Nothing here imports xembody: forward kinematics chases 4x4 homogeneous
matrices over the robot description document, the directional Chamfer
distance is a full pairwise matrix, farthest-point sampling is the plain
greedy loop, and frames are decoded straight from their bytes. Each is slow
and obvious on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def axis_rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues' formula: I + sin(a) K + (1 - cos(a)) K^2 for unit `axis`."""
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _homogeneous(rotation, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def dof_joints(doc: dict) -> list[str]:
    """Actuated joint names in configuration order: depth-first pre-order from
    the root, children in document order (the layout robot descriptions fix)."""
    children: dict[str, list[dict]] = {}
    for j in doc["joints"]:
        children.setdefault(j["parent"], []).append(j)
    child_links = {j["child"] for j in doc["joints"]}
    root = next(l["name"] for l in doc["links"] if l["name"] not in child_links)
    order: list[str] = []
    stack: list[tuple[str, dict | None]] = [(root, None)]
    while stack:
        link, via = stack.pop()
        if via is not None and via["kind"] != "fixed":
            order.append(via["name"])
        for j in reversed(children.get(link, [])):
            stack.append((j["child"], j))
    return order


def link_poses(doc: dict, q) -> dict[str, np.ndarray]:
    """World 4x4 pose of every link of a native robot document at `q`."""
    q = np.asarray(q, dtype=float)
    dof_index = {name: i for i, name in enumerate(dof_joints(doc))}
    joint_into = {j["child"]: j for j in doc["joints"]}
    base = (doc.get("manifest") or {}).get("world_to_base") or {}
    root_pose = _homogeneous(np.asarray(base.get("rotation", np.eye(3).ravel()),
                                        dtype=float).reshape(3, 3),
                             base.get("translation", (0.0, 0.0, 0.0)))
    poses: dict[str, np.ndarray] = {}

    def pose(link: str) -> np.ndarray:
        if link in poses:
            return poses[link]
        j = joint_into.get(link)
        if j is None:
            m = root_pose
        else:
            origin = j.get("origin", {})
            m = pose(j["parent"]) @ _homogeneous(
                np.asarray(origin.get("rotation", np.eye(3)), dtype=float).reshape(3, 3),
                origin.get("translation", (0.0, 0.0, 0.0)))
            axis = np.asarray(j.get("axis", (1.0, 0.0, 0.0)), dtype=float)
            if j["kind"] == "revolute":
                m = m @ _homogeneous(axis_rotation(axis, q[dof_index[j["name"]]]), np.zeros(3))
            elif j["kind"] == "prismatic":
                m = m @ _homogeneous(np.eye(3),
                                     q[dof_index[j["name"]]] * axis / np.linalg.norm(axis))
        poses[link] = m
        return m

    for link in doc["links"]:
        pose(link["name"])
    return poses


def posed_triangles(doc: dict, q) -> np.ndarray:
    """(T, 3, 3) world-frame triangles of every meshed link at `q`."""
    poses = link_poses(doc, q)
    out = []
    for link in doc["links"]:
        geometry = link.get("geometry")
        if geometry is None:
            continue
        m = poses[link["name"]]
        vertices = np.asarray(geometry["vertices"], dtype=float) @ m[:3, :3].T + m[:3, 3]
        out.append(vertices[np.asarray(geometry["faces"], dtype=np.int64)])
    return np.concatenate(out)


def point_triangle_distance(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the triangles (exact).

    Uses the closest-point-on-triangle region test (Ericson, Real-Time
    Collision Detection, 5.1.5), vectorized over all point/triangle pairs.
    """
    p = np.asarray(points, dtype=float)[:, None, :]
    a, b, c = (triangles[None, :, k, :] for k in range(3))
    ab, ac, ap = b - a, c - a, p - a
    d1 = np.einsum("ntk,ntk->nt", ab, ap)
    d2 = np.einsum("ntk,ntk->nt", ac, ap)
    bp = p - b
    d3 = np.einsum("ntk,ntk->nt", ab, bp)
    d4 = np.einsum("ntk,ntk->nt", ac, bp)
    cp = p - c
    d5 = np.einsum("ntk,ntk->nt", ab, cp)
    d6 = np.einsum("ntk,ntk->nt", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom
        v_ab = d1 / (d1 - d3)
        w_ac = d2 / (d2 - d6)
        w_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
    zero = np.zeros_like(d1)
    one = np.ones_like(d1)
    # Barycentric (v, w) of the closest point, region by region; the first
    # matching region wins, as in the scalar algorithm.
    regions = [
        ((d1 <= 0) & (d2 <= 0), zero, zero),                                   # vertex a
        ((d3 >= 0) & (d4 <= d3), one, zero),                                   # vertex b
        ((vc <= 0) & (d1 >= 0) & (d3 <= 0), v_ab, zero),                       # edge ab
        ((d6 >= 0) & (d5 <= d6), zero, one),                                   # vertex c
        ((vb <= 0) & (d2 >= 0) & (d6 <= 0), zero, w_ac),                       # edge ac
        ((va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0), 1.0 - w_bc, w_bc),   # edge bc
    ]
    v, w = v_in, w_in
    for cond, rv, rw in reversed(regions):
        v = np.where(cond, rv, v)
        w = np.where(cond, rw, w)
    closest = a + v[..., None] * ab + w[..., None] * ac
    dist = np.linalg.norm(p - closest, axis=2)
    return dist.min(axis=1)


def dcd(points_a, dirs_a, points_b, dirs_b, lam: float) -> float:
    """Directional Chamfer distance, epsilon = 0, by the full pairwise matrix."""
    diff = points_a[:, None, :] - points_b[None, :, :]
    # Elementwise products summed in a fixed order keep the matrix an exact
    # transpose when the sets swap, so the distance is exactly symmetric.
    cos = (dirs_a[:, None, :] * dirs_b[None, :, :]).sum(axis=2)
    cost = np.sqrt((diff * diff).sum(axis=2)) - lam * cos
    return float(cost.min(axis=1).mean() + cost.min(axis=0).mean())


def greedy_fps(points: np.ndarray, n: int, start: int) -> np.ndarray:
    """Greedy farthest-point indices from `start`; ties go to the lowest index."""
    selected = [start]
    dist = ((points - points[start]) ** 2).sum(axis=1)
    for _ in range(1, n):
        pick = int(np.argmax(dist))
        selected.append(pick)
        dist = np.minimum(dist, ((points - points[pick]) ** 2).sum(axis=1))
    return np.asarray(selected, dtype=np.int64)


def frame_checksum(demo_dir: Path, length: int) -> str:
    """BLAKE2b-64 (hex) of a demo's frame files concatenated in frame order."""
    digest = hashlib.blake2b(digest_size=8)
    for t in range(length):
        digest.update((demo_dir / "frames" / f"{t:06d}.bin").read_bytes())
    return digest.hexdigest()


def decode_demo(demo_dir: Path):
    """Decode a demo directory: (manifest, [points (M, 3)], proprio, action).

    Frames are little-endian float32: points, proprioception, action.
    """
    manifest = json.loads((demo_dir / "manifest.json").read_text())
    dof = int(manifest["arm_dof"]) + int(manifest["ee_dof"])
    clouds, proprio, action = [], [], []
    for t, m in enumerate(manifest["point_counts"]):
        raw = (demo_dir / "frames" / f"{t:06d}.bin").read_bytes()
        if len(raw) != 4 * (3 * m + 2 * dof):
            raise ValueError(f"{demo_dir.name} frame {t}: {len(raw)} bytes for {m} points")
        flat = np.frombuffer(raw, dtype="<f4")
        clouds.append(flat[: 3 * m].reshape(m, 3))
        proprio.append(flat[3 * m : 3 * m + dof])
        action.append(flat[3 * m + dof :])
    return manifest, clouds, np.array(proprio), np.array(action)
