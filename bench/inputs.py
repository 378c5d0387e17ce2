"""Benchmark inputs: robot descriptions and synthetic demonstrations.

The robots are the toy pair the acceptance suite's c11 throughput test uses:
a 1-dof parallel gripper (`gripper1`) as the source and a 6-dof three-finger
hand (`hand6`) as the target. They are written here as native JSON documents,
so the benchmark owns its inputs and its oracles read the same documents the
program loads. Every random draw comes from a generator seeded by the
workload seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracles

WORKSPACE = ((-0.25, -0.25, -0.08), (0.25, 0.25, 0.30))
# The object cluster of the table scene, padded slightly; no gripper surface
# enters it, so `augment` moves object points only.
OBJECT_BOX = ((-0.0105, -0.0292, -0.0125), (0.0105, -0.0248, 0.0125))


def _box(half, offset=(0.0, 0.0, 0.0)):
    hx, hy, hz = half
    v = np.array([[-hx, -hy, -hz], [hx, -hy, -hz], [hx, hy, -hz], [-hx, hy, -hz],
                  [-hx, -hy, hz], [hx, -hy, hz], [hx, hy, hz], [-hx, hy, hz]]) + offset
    f = [[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7], [0, 1, 5], [0, 5, 4],
         [2, 3, 7], [2, 7, 6], [0, 4, 7], [0, 7, 3], [1, 2, 6], [1, 6, 5]]
    return {"type": "mesh", "vertices": v.tolist(), "faces": f}


def _plate(half_x, half_z, normal_y, offset=(0.0, 0.0, 0.0)):
    """Two triangles at y = 0 wound so the face normal is +/-y."""
    v = np.array([[-half_x, 0.0, -half_z], [half_x, 0.0, -half_z],
                  [half_x, 0.0, half_z], [-half_x, 0.0, half_z]]) + offset
    f = [[0, 2, 1], [0, 3, 2]] if normal_y > 0 else [[0, 1, 2], [0, 2, 3]]
    return {"type": "mesh", "vertices": v.tolist(), "faces": f}


def _joint(name, kind, parent, child, axis=(1.0, 0.0, 0.0), translation=(0.0, 0.0, 0.0),
           lower=0.0, upper=0.0):
    return {"name": name, "kind": kind, "parent": parent, "child": child,
            "axis": list(axis),
            "origin": {"rotation": np.eye(3).tolist(), "translation": list(translation)},
            "lower": lower, "upper": upper}


def _manifest(ee_joints, pad_links):
    return {"arm_joints": [], "ee_joints": list(ee_joints), "pad_links": list(pad_links),
            "workspace": {"min": list(WORKSPACE[0]), "max": list(WORKSPACE[1])}}


def gripper1_doc() -> dict:
    """Fixed jaw pad plus a prismatic jaw sliding from y = +0.030 by q in [-0.056, 0]."""
    return {
        "format": "xembody-robot", "version": 1, "name": "gripper1",
        "links": [
            {"name": "palm", "geometry": _box((0.025, 0.032, 0.012), (0.0, 0.0, 0.055))},
            {"name": "fixed_pad", "geometry": _plate(0.012, 0.015, +1.0)},
            {"name": "moving_pad", "geometry": _plate(0.012, 0.015, -1.0)},
        ],
        "joints": [
            _joint("mount", "fixed", "palm", "fixed_pad", translation=(0.0, -0.030, 0.0)),
            _joint("slide", "prismatic", "palm", "moving_pad", axis=(0.0, 1.0, 0.0),
                   translation=(0.0, 0.030, 0.0), lower=-0.056, upper=0.0),
        ],
        "manifest": _manifest(["slide"], ["fixed_pad", "moving_pad"]),
    }


def hand6_doc() -> dict:
    """Three fingers, each a y-slide carriage plus a curl about x; thumb on +y."""
    links = [{"name": "palm", "geometry": _box((0.030, 0.048, 0.010), (0.0, 0.0, 0.058))}]
    joints = []
    for name, x, side, half_x in (("thumb", 0.0, +1, 0.009),
                                  ("finger_l", 0.006, -1, 0.005),
                                  ("finger_r", -0.006, -1, 0.005)):
        links.append({"name": f"{name}_carriage", "geometry": _box((0.008, 0.006, 0.012))})
        links.append({"name": f"{name}_pad",
                      "geometry": _plate(half_x, 0.012, -side, (0.0, 0.0, -0.012))})
        lower, upper = (-0.075, 0.010) if side > 0 else (-0.010, 0.075)
        joints.append(_joint(f"{name}_slide", "prismatic", "palm", f"{name}_carriage",
                             axis=(0.0, 1.0, 0.0), translation=(x, 0.038 * side, 0.030),
                             lower=lower, upper=upper))
        joints.append(_joint(f"{name}_curl", "revolute", f"{name}_carriage", f"{name}_pad",
                             axis=(1.0, 0.0, 0.0), translation=(0.0, 0.0, -0.018),
                             lower=-0.5, upper=0.5))
    return {
        "format": "xembody-robot", "version": 1, "name": "hand6",
        "links": links, "joints": joints,
        "manifest": _manifest([j["name"] for j in joints if j["kind"] != "fixed"],
                              ["thumb_pad", "finger_l_pad", "finger_r_pad"]),
    }


def joint_limits(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    by_name = {j["name"]: j for j in doc["joints"]}
    names = oracles.dof_joints(doc)
    return (np.array([by_name[n]["lower"] for n in names]),
            np.array([by_name[n]["upper"] for n in names]))


def write_robots(root: Path) -> tuple[Path, Path]:
    root.mkdir(parents=True, exist_ok=True)
    paths = root / "gripper1.json", root / "hand6.json"
    for path, doc in zip(paths, (gripper1_doc(), hand6_doc())):
        path.write_text(json.dumps(doc, sort_keys=True))
    return paths


def pinch(length: int, hold: int = 10, closed: float = -0.054) -> np.ndarray:
    """Gripper slide closing linearly, then holding (the c11 trajectory shape)."""
    hold = min(hold, max(1, length // 6))
    return np.concatenate([np.linspace(0.0, closed, length - hold),
                           np.full(hold, closed)])[:, None]


def table_scene(rng: np.random.Generator, n_table: int = 700, n_object: int = 160):
    """A flat table patch plus a small object cluster beside the fixed jaw."""
    table = np.column_stack([rng.uniform(-0.2, 0.2, n_table), rng.uniform(-0.2, 0.2, n_table),
                             np.full(n_table, -0.05) + rng.normal(0, 1e-4, n_table)])
    obj = np.column_stack([rng.uniform(-0.010, 0.010, n_object),
                           rng.uniform(-0.029, -0.025, n_object),
                           rng.uniform(-0.012, 0.012, n_object)])
    return np.vstack([table, obj])


def surface_samples(doc: dict, q, count: int, rng: np.random.Generator,
                    links=None) -> tuple[np.ndarray, np.ndarray]:
    """Area-weighted samples on the link meshes posed at `q` (link-local
    frames when `q` is None): (points, face normals)."""
    poses = None if q is None else oracles.link_poses(doc, q)
    tris, normals = [], []
    for link in doc["links"]:
        if link["geometry"] is None or (links is not None and link["name"] not in links):
            continue
        m = np.eye(4) if poses is None else poses[link["name"]]
        v = np.asarray(link["geometry"]["vertices"]) @ m[:3, :3].T + m[:3, 3]
        t = v[np.asarray(link["geometry"]["faces"])]
        n = np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])
        tris.append(t)
        normals.append(n / np.linalg.norm(n, axis=1, keepdims=True))
    tris, normals = np.concatenate(tris), np.concatenate(normals)
    area = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                                axis=1)
    face = rng.choice(len(tris), size=count, p=area / area.sum())
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
    return np.einsum("nk,nkj->nj", bary, tris[face]), normals[face]


def gripper_demo(rng: np.random.Generator, length: int, robot_points: int):
    """A recorded gripper pinch: per frame the table scene plus `robot_points`
    samples on the gripper at that frame's configuration, shuffled together.

    Returns (demo dict for `make_demo`, float32 gripper points of all frames).
    """
    doc = gripper1_doc()
    traj = pinch(length)
    clouds, robot = [], []
    for q in traj:
        on_robot, _ = surface_samples(doc, q, robot_points, rng)
        cloud = np.vstack([table_scene(rng), on_robot])
        clouds.append(cloud[rng.permutation(len(cloud))])
        robot.append(on_robot.astype("<f4"))
    return {"embodiment": "gripper1", "clouds": clouds, "configs": traj}, np.vstack(robot)


def hand_configs(length: int) -> np.ndarray:
    """A hand6 trajectory that mirrors a gripper pinch: the thumb follows the
    moving jaw, both fingers sit on the fixed jaw."""
    slide = pinch(length)[:, 0]
    q = np.zeros((length, 6))
    q[:, 0] = slide - 0.008
    q[:, 2] = q[:, 4] = 0.008
    return q


def hand_demo(rng: np.random.Generator, length: int, points: int):
    """A demo shaped like `retarget` output: hand6 configurations, `points`
    points per frame (scene plus hand surface samples)."""
    doc = hand6_doc()
    configs = hand_configs(length)
    clouds = []
    for q in configs:
        on_hand, _ = surface_samples(doc, q, points // 2, rng)
        scene = table_scene(rng)
        clouds.append(np.vstack([scene[rng.choice(len(scene), points - points // 2,
                                                  replace=False)], on_hand]))
    return {"embodiment": "hand6", "clouds": clouds, "configs": configs}


class PadTemplate:
    """Link-local point/normal pairs on a robot's pad links, `count` per pad
    (the same fields as the program's FunctionalTemplate)."""

    def __init__(self, doc: dict, count: int, rng: np.random.Generator):
        pads = doc["manifest"]["pad_links"]
        samples = [surface_samples(doc, None, count, rng, links=[pad]) for pad in pads]
        self.link_names = tuple(pad for pad in pads for _ in range(count))
        self.points = np.concatenate([p for p, _ in samples])
        self.normals = np.concatenate([n for _, n in samples])


def make_demo(xembody, spec: dict, seed: int):
    """Build the program's Demonstration from a demo dict (actions = next frame)."""
    configs = spec["configs"]
    targets = np.vstack([configs[1:], configs[-1:]])
    return xembody.Demonstration(
        embodiment=spec["embodiment"],
        clouds=tuple(xembody.PointCloud(c) for c in spec["clouds"]),
        arm_positions=configs[:, :0], ee_positions=configs,
        arm_targets=targets[:, :0], ee_targets=targets,
        initial_state={"object": "toy"}, seed=seed,
    )
