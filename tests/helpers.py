"""Shared fixture builders: toy embodiments, trajectories, scenes, demos."""

from __future__ import annotations

import json
import math

import numpy as np

from xembody import (Demonstration, Embodiment, EmbodimentManifest, JointSpec, LinkSpec,
                     PointCloud, TriMesh, WorldFuncRep, box_mesh, build_embodiment)
from xembody.transforms import homogeneous, rotation_about_axis


def oracle_link_poses(e: Embodiment, q: np.ndarray) -> dict:
    """Independent FK oracle: chase parent chains with 4x4 homogeneous matrices."""
    joints = {j.name: j for j in e.joints}
    dof_index = {j.name: i for i, j in enumerate(e.actuated_joints)}
    poses = {}
    for link in e.links:
        if link.parent_joint is None:
            poses[link.name] = homogeneous(e.base_rotation, e.base_translation)
            continue
        j = joints[link.parent_joint]
        m = poses[j.parent_link] @ homogeneous(j.origin_rotation, j.origin_translation)
        if j.kind == "revolute":
            m = m @ homogeneous(rotation_about_axis(j.axis, q[dof_index[j.name]]), np.zeros(3))
        elif j.kind == "prismatic":
            m = m @ homogeneous(np.eye(3), q[dof_index[j.name]] * j.axis)
        poses[link.name] = m
    return poses


def surface_distance_reference(points, e: Embodiment, q) -> np.ndarray:
    """Dense, slow oracle for the source-robot mask: each point's distance to
    every triangle of every meshed link, posed by `oracle_link_poses` in the
    world frame, one pair at a time in Python floats."""
    poses = oracle_link_poses(e, np.asarray(q, dtype=float))
    triangles = []
    for link in e.links:
        if link.mesh is not None:
            m = poses[link.name]
            triangles.extend((link.mesh.triangles @ m[:3, :3].T + m[:3, 3]).tolist())
    return np.array([min(point_triangle_distance_reference(p, *t) for t in triangles)
                     for p in np.asarray(points, dtype=float).tolist()])


def point_triangle_distance_reference(p, a, b, c) -> float:
    """Distance from p to triangle abc: the nearest point of its three edges or,
    when the projection onto its plane falls inside, that projection. Each
    candidate is a point of the triangle, so a zero-area or collinear face
    reduces to its edges."""
    def sub(u, v):
        return [u[k] - v[k] for k in range(3)]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def segment(start, end):
        e = sub(end, start)
        length2 = dot(e, e)
        s = 0.0 if length2 == 0 else min(1.0, max(0.0, dot(sub(p, start), e) / length2))
        return math.dist(p, [start[k] + s * e[k] for k in range(3)])

    best = min(segment(a, b), segment(b, c), segment(c, a))
    ab, ac, ap = sub(b, a), sub(c, a), sub(p, a)
    # Cramer's rule on the normal equations of the projection a + v ab + w ac.
    g11, g12, g22, r1, r2 = dot(ab, ab), dot(ab, ac), dot(ac, ac), dot(ab, ap), dot(ac, ap)
    det = g11 * g22 - g12 * g12
    if det > 0:
        v, w = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
        if v >= 0 and w >= 0 and v + w <= 1:
            best = min(best, math.dist(p, [a[k] + v * ab[k] + w * ac[k] for k in range(3)]))
    return best


def translate_mesh(mesh: TriMesh, offset) -> TriMesh:
    return TriMesh(mesh.vertices + np.asarray(offset, dtype=float), mesh.faces)


def pad_plate(half_x: float, half_z: float, normal_y: float) -> TriMesh:
    """A 2-triangle rectangle at y = 0, wound so its normal is +/-y."""
    v = np.array([
        [-half_x, 0.0, -half_z],
        [half_x, 0.0, -half_z],
        [half_x, 0.0, half_z],
        [-half_x, 0.0, half_z],
    ])
    faces = np.array([[0, 2, 1], [0, 3, 2]]) if normal_y > 0 else np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(v, faces)


def grid_box_mesh(half: float, n: int) -> TriMesh:
    """A cube of half side `half` centred at the origin, each face split into
    n x n squares of two triangles: 12 n² faces over the surface of a box."""
    ticks = np.linspace(-half, half, n + 1)
    u, v = np.meshgrid(ticks, ticks, indexing="ij")
    vertices, faces = [], []
    for axis in range(3):
        for side in (-half, half):
            grid = np.empty((n + 1, n + 1, 3))
            grid[..., axis] = side
            grid[..., (axis + 1) % 3] = u
            grid[..., (axis + 2) % 3] = v
            idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1) + len(vertices) * (n + 1) ** 2
            a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
            faces += [np.stack(corners, -1).reshape(-1, 3) for corners in ((a, b, c), (a, c, d))]
            vertices.append(grid.reshape(-1, 3))
    return TriMesh(np.concatenate(vertices), np.concatenate(faces))


def box_surface_distance(points, half: float) -> np.ndarray:
    """Distance from each point to the surface of the cube |x|, |y|, |z| <= half."""
    excess = np.abs(np.asarray(points, dtype=float)) - half
    outside = np.linalg.norm(np.maximum(excess, 0.0), axis=1)
    return np.where(np.all(excess <= 0.0, axis=1), -excess.max(axis=1), outside)


def build_planar2(link_length: float = 1.0, with_geometry: bool = False) -> Embodiment:
    """Two revolute z-joints in the xy-plane plus a fixed tip link."""
    mesh = box_mesh((link_length / 2, 0.02, 0.02)) if with_geometry else None
    links = [
        LinkSpec("base"),
        LinkSpec("link1", mesh),
        LinkSpec("link2", mesh),
        LinkSpec("tip"),
    ]
    joints = [
        JointSpec("j1", "revolute", "base", "link1", axis=(0, 0, 1),
                  lower=-np.pi, upper=np.pi),
        JointSpec("j2", "revolute", "link1", "link2", axis=(0, 0, 1),
                  origin_translation=(link_length, 0, 0), lower=-np.pi, upper=np.pi),
        JointSpec("jtip", "fixed", "link2", "tip",
                  origin_translation=(link_length, 0, 0)),
    ]
    return build_embodiment("planar2", links, joints)


def build_gripper1() -> Embodiment:
    """A 1-dof parallel gripper: fixed jaw pad plus a prismatic moving jaw.

    Pads face each other across y; the moving pad slides from y = +0.030 (open)
    down to +0.030 + q with q in [-0.056, 0].
    """
    links = [
        LinkSpec("palm", translate_mesh(box_mesh((0.025, 0.032, 0.012)), (0, 0, 0.055))),
        LinkSpec("fixed_pad", pad_plate(0.012, 0.015, normal_y=+1.0)),
        LinkSpec("moving_pad", pad_plate(0.012, 0.015, normal_y=-1.0)),
    ]
    joints = [
        JointSpec("mount", "fixed", "palm", "fixed_pad",
                  origin_translation=(0, -0.030, 0)),
        JointSpec("slide", "prismatic", "palm", "moving_pad", axis=(0, 1, 0),
                  origin_translation=(0, 0.030, 0), lower=-0.056, upper=0.0),
    ]
    manifest = EmbodimentManifest(
        arm_joints=(), ee_joints=("slide",),
        pad_links=("fixed_pad", "moving_pad"),
        workspace=(np.array([-0.25, -0.25, -0.08]), np.array([0.25, 0.25, 0.30])),
    )
    return build_embodiment("gripper1", links, joints, manifest)


def build_hand6() -> Embodiment:
    """A 6-dof three-finger hand: per finger a y-slide carriage plus a curl.

    The thumb rides on the +y side (pad facing -y); two fingers ride on the -y
    side at x = +/-0.007 (pads facing +y). Pad centers sit at z = 0 when the
    curls are at zero, matching the gripper's grasp band.
    """
    def finger(name, x, side, pad_half_x):
        # side = +1 for the thumb (approaches from +y), -1 for fingers
        carriage = LinkSpec(f"{name}_carriage", box_mesh((0.008, 0.006, 0.012)))
        pad = LinkSpec(f"{name}_pad",
                       translate_mesh(pad_plate(pad_half_x, 0.012, normal_y=-side),
                                      (0, 0, -0.012)))
        slide_limits = (-0.075, 0.010) if side > 0 else (-0.010, 0.075)
        slide = JointSpec(f"{name}_slide", "prismatic", "palm", f"{name}_carriage",
                          axis=(0, 1, 0), origin_translation=(x, 0.038 * side, 0.030),
                          lower=slide_limits[0], upper=slide_limits[1])
        curl = JointSpec(f"{name}_curl", "revolute", f"{name}_carriage", f"{name}_pad",
                         axis=(1, 0, 0), origin_translation=(0, 0, -0.018),
                         lower=-0.5, upper=0.5)
        return [carriage, pad], [slide, curl]

    links = [LinkSpec("palm", translate_mesh(box_mesh((0.030, 0.048, 0.010)), (0, 0, 0.058)))]
    joints = []
    for name, x, side, half_x in (("thumb", 0.0, +1, 0.009),
                                  ("finger_l", 0.006, -1, 0.005),
                                  ("finger_r", -0.006, -1, 0.005)):
        l, j = finger(name, x, side, half_x)
        links.extend(l)
        joints.extend(j)
    manifest = EmbodimentManifest(
        arm_joints=(),
        ee_joints=("thumb_slide", "thumb_curl", "finger_l_slide", "finger_l_curl",
                   "finger_r_slide", "finger_r_curl"),
        pad_links=("thumb_pad", "finger_l_pad", "finger_r_pad"),
        workspace=(np.array([-0.25, -0.25, -0.08]), np.array([0.25, 0.25, 0.30])),
    )
    return build_embodiment("hand6", links, joints, manifest)


def pinch_trajectory(length: int = 60, hold: int = 10, closed: float = -0.054) -> np.ndarray:
    """Gripper slide trajectory: close linearly, then hold for `hold` frames."""
    hold = min(hold, max(1, length // 6))
    ramp = np.linspace(0.0, closed, length - hold)
    return np.concatenate([ramp, np.full(hold, closed)])[:, None]


def hand_trajectory(length: int = 50) -> np.ndarray:
    """A smooth in-limits 6-dof trajectory for build_hand6 (recorded-demo stand-in)."""
    t = np.linspace(0.0, 1.0, length)
    return np.stack([
        -0.010 - 0.050 * t,                      # thumb slide closes
        0.15 * np.sin(2 * np.pi * t),            # thumb curl wiggles
        0.000 + 0.008 * t,                       # finger_l slide
        -0.12 * np.sin(2 * np.pi * t + 0.5),     # finger_l curl
        0.002 + 0.006 * t,                       # finger_r slide
        0.10 * np.cos(2 * np.pi * t),            # finger_r curl
    ], axis=1)


def random_chain(rng: np.random.Generator, n_joints: int, prismatic_prob: float = 0.3,
                 fixed_prob: float = 0.2, meshed: bool = False) -> Embodiment:
    """A random serial chain with mixed joint kinds and random origins.

    With `meshed`, a random subset of links (always including the last) gets a
    small box so templates and robot clouds can be sampled.
    """
    links = [LinkSpec("link0")]
    joints = []
    for k in range(n_joints):
        kind = "fixed" if rng.random() < fixed_prob else (
            "prismatic" if rng.random() < prismatic_prob else "revolute")
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        origin_axis = rng.normal(size=3)
        origin_axis /= np.linalg.norm(origin_axis)
        rotation = rotation_about_axis(origin_axis, rng.uniform(-np.pi, np.pi))
        lower = rng.uniform(-2.0, -0.1)
        upper = rng.uniform(0.1, 2.0)
        mesh = None
        if meshed and (k == n_joints - 1 or rng.random() < 0.4):
            mesh = box_mesh(rng.uniform(0.02, 0.06, size=3))
        links.append(LinkSpec(f"link{k + 1}", mesh))
        joints.append(
            JointSpec(f"q{k}", kind, f"link{k}", f"link{k + 1}", axis=axis,
                      origin_rotation=rotation,
                      origin_translation=rng.uniform(-0.4, 0.4, size=3),
                      lower=lower, upper=upper)
        )
    return build_embodiment("chain", links, joints)


def random_config(rng: np.random.Generator, e: Embodiment, margin: float = 0.05) -> np.ndarray:
    lo, hi = e.lower_limits, e.upper_limits
    span = hi - lo
    return rng.uniform(lo + margin * span, hi - margin * span)


def random_funcrep(rng: np.random.Generator, n: int, scale: float = 1.0) -> WorldFuncRep:
    points = rng.normal(size=(n, 3)) * scale
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return WorldFuncRep(points, dirs)


def pair_costs(points_a, dirs_a, points_b, dirs_b, cfg) -> np.ndarray:
    """(N, M) DCD pair costs smooth(|p_a - p_b|) - lam * <n_a, n_b>, one
    (N, M) numpy pass per axis: the reference for the compiled match kernel.

    Each sum over the three axes runs as (x + z) + y. That order reproduces
    np.einsum("nmk,nmk->nm") for the squared distance and np.einsum("nk,mk->nm")
    for the dot product bit for bit (tests/test_chamfer.py); (x + y) + z does
    not. Negated differences square to the same value and products commute,
    so the matrix for (b, a) is exactly the transpose of the one for (a, b).
    """
    sq = np.subtract(points_a[:, 0, None], points_b[:, 0])
    sq *= sq
    for k in (2, 1):
        d = np.subtract(points_a[:, k, None], points_b[:, k])
        sq += d * d
    cost = np.sqrt(sq, out=sq)
    if cfg.epsilon != 0.0:
        cost *= cost
        cost += cfg.epsilon * cfg.epsilon
        np.sqrt(cost, out=cost)
        cost -= cfg.epsilon
    if cfg.lam != 0.0:
        dot = np.multiply(dirs_a[:, 0, None], dirs_b[:, 0])
        for k in (2, 1):
            dot += np.multiply(dirs_a[:, k, None], dirs_b[:, k])
        dot *= cfg.lam
        cost = cost - dot
    return cost


def table_scene(rng: np.random.Generator, n_table: int = 700, n_object: int = 160) -> PointCloud:
    """A flat table patch plus a small object cluster near the grasp region."""
    table = np.column_stack([
        rng.uniform(-0.2, 0.2, n_table),
        rng.uniform(-0.2, 0.2, n_table),
        np.full(n_table, -0.05) + rng.normal(0, 1e-4, n_table),
    ])
    obj = np.column_stack([
        rng.uniform(-0.010, 0.010, n_object),
        rng.uniform(-0.029, -0.025, n_object),
        rng.uniform(-0.012, 0.012, n_object),
    ])
    return PointCloud(np.vstack([table, obj]))


def make_source_demo(e: Embodiment, trajectory: np.ndarray, seed: int = 0,
                     n_table: int = 700, n_object: int = 160) -> Demonstration:
    """A synthetic recorded demonstration: static scene + proprioception."""
    rng = np.random.default_rng(seed)
    length = len(trajectory)
    clouds = tuple(table_scene(rng, n_table, n_object) for _ in range(length))
    arm = np.array(e.arm_indices, dtype=np.int64)
    ee = np.array(e.ee_indices, dtype=np.int64)
    targets = np.vstack([trajectory[1:], trajectory[-1:]])
    return Demonstration(
        embodiment=e.name,
        clouds=clouds,
        arm_positions=trajectory[:, arm],
        ee_positions=trajectory[:, ee],
        arm_targets=targets[:, arm],
        ee_targets=targets[:, ee],
        initial_state={"object": "toy"},
        seed=seed,
    )


def arm_hand_native_doc() -> str:
    """A 19-dof native JSON document: 7-joint arm plus a 12-joint hand."""
    links = [{"name": "base", "geometry": None}]
    joints = []
    for k in range(7):
        links.append({"name": f"arm_link{k + 1}", "geometry": None})
        joints.append({
            "name": f"arm_j{k}", "kind": "revolute",
            "parent": "base" if k == 0 else f"arm_link{k}",
            "child": f"arm_link{k + 1}",
            "axis": [0, 0, 1] if k % 2 == 0 else [0, 1, 0],
            "origin": {"translation": [0, 0, 0.1]},
            "lower": -2.8, "upper": 2.8,
        })
    links.append({"name": "hand_base", "geometry": None})
    joints.append({"name": "wrist", "kind": "fixed", "parent": "arm_link7",
                   "child": "hand_base", "origin": {"translation": [0, 0, 0.05]}})
    for f in range(4):
        parent = "hand_base"
        for s in range(3):
            name = f"f{f}s{s}"
            links.append({"name": f"{name}_link", "geometry": None})
            joints.append({
                "name": f"{name}_j", "kind": "revolute", "parent": parent,
                "child": f"{name}_link", "axis": [1, 0, 0],
                "origin": {"translation": [0.01 * f, 0, 0.03]},
                "lower": -1.6, "upper": 1.6,
            })
            parent = f"{name}_link"
    manifest = {
        "arm_joints": [f"arm_j{k}" for k in range(7)],
        "ee_joints": [f"f{f}s{s}_j" for f in range(4) for s in range(3)],
    }
    return json.dumps({
        "format": "xembody-robot", "version": 1, "name": "arm7hand12",
        "links": links, "joints": joints, "manifest": manifest,
    })
