"""Checks of the program's outputs, made apart from the program.

Each check returns a list of problems (empty when the output is right). They
decode the written bytes themselves, recompute checksums, pose the target
robot with the oracle's 4x4 forward kinematics and recompute the directional
Chamfer distance by brute force.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import inputs
import oracles

# Output points are float32 on disk: 1 um is ~30 float32 ulps at workspace scale.
POINT_TOL = 1e-6
# Configurations are float32 on disk; limits hold up to one float32 ulp.
LIMIT_TOL = 1e-6
# The reported DCD is taken at the float64 configuration, the oracle at the
# float32 one written to disk.
DCD_TOL = 1e-6


def run_cli(program, argv: list[str]) -> int:
    """Run one `xembody` command in this process, discarding what it prints
    (its reports are read from the files it writes)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return program.cli.main(argv)


def validate(program, dataset: Path, points: int, hand_path: Path, report: Path):
    """Run `xembody validate`; returns (exit code, report document)."""
    code = run_cli(program, ["validate", str(dataset), "--points", str(points),
                             "--embodiment", str(hand_path), "--out", str(report)])
    return code, json.loads(report.read_text())


def check_validate(program, dataset: Path, points: int, hand_path: Path,
                   work: Path) -> list[str]:
    """`validate` finds nothing on the dataset, and exactly one thing on a copy
    with one byte of one frame flipped."""
    problems = []
    code, doc = validate(program, dataset, points, hand_path, work / "validate-clean.json")
    if code != 0 or doc["findings"]:
        problems.append(f"validate on clean output: exit {code}, findings {doc['findings'][:3]}")
    corrupt = work / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(dataset, corrupt)
    first = json.loads((corrupt / "index.json").read_text())["demos"][0]
    frame = corrupt / first["path"] / "frames" / f"{first['length'] - 1:06d}.bin"
    data = bytearray(frame.read_bytes())
    data[len(data) // 2] ^= 0x01
    frame.write_bytes(bytes(data))
    code, doc = validate(program, corrupt, points, hand_path, work / "validate-corrupt.json")
    if code != 1 or len(doc["findings"]) != 1:
        problems.append(f"validate on a one-byte flip: exit {code}, "
                        f"{len(doc['findings'])} findings (expected 1)")
    shutil.rmtree(corrupt)
    return problems


def decode_checked(out_dir: Path, entry: dict, hand: dict, points: int, problems: list):
    """Checksum, decode and check one output demo's frames; returns its
    configurations (float32 values as float64) and clouds, or None."""
    demo_dir = out_dir / entry["path"]
    name = entry["id"]
    if oracles.frame_checksum(demo_dir, entry["length"]) != entry["checksum"]:
        problems.append(f"{name}: frame bytes do not match the index checksum")
    try:
        manifest, clouds, proprio, action = oracles.decode_demo(demo_dir)
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"{name}: cannot decode: {err}")
        return None
    if manifest["embodiment"] != "hand6" or len(clouds) != entry["length"]:
        problems.append(f"{name}: embodiment {manifest['embodiment']!r}, "
                        f"{len(clouds)} frames for index length {entry['length']}")
    bad = [t for t, c in enumerate(clouds) if len(c) != points or not np.all(np.isfinite(c))]
    if bad:
        problems.append(f"{name}: frames {bad[:5]} lack {points} finite points")
    if not (np.all(np.isfinite(proprio)) and np.all(np.isfinite(action))):
        problems.append(f"{name}: non-finite configuration or action")
    lo, hi = inputs.joint_limits(hand)
    if np.any(proprio < lo - LIMIT_TOL) or np.any(proprio > hi + LIMIT_TOL):
        problems.append(f"{name}: configuration outside the hand6 joint limits")
    if not (np.array_equal(action[:-1], proprio[1:]) and np.array_equal(action[-1], proprio[-1])):
        problems.append(f"{name}: action t is not configuration t+1 (last held)")
    return proprio.astype(float), clouds


def stray_points(cloud: np.ndarray, scene: np.ndarray, hand: dict, q) -> int:
    """Points that are neither a scene point inside the workspace box nor on a
    hand6 link posed at `q`."""
    lo, hi = (np.asarray(b) for b in inputs.WORKSPACE)
    inside = scene[np.all((scene >= lo) & (scene <= hi), axis=1)]
    cloud = cloud.astype(float)
    near_scene, _ = cKDTree(inside).query(cloud)
    rest = cloud[near_scene > POINT_TOL]
    if len(rest) == 0:
        return 0
    near_hand = oracles.point_triangle_distance(rest, oracles.posed_triangles(hand, q))
    return int(np.sum(near_hand > POINT_TOL))


def posed_template(doc: dict, template, q) -> tuple[np.ndarray, np.ndarray]:
    """World points and directions of a template at `q`, by the oracle's FK."""
    poses = oracles.link_poses(doc, q)
    rot = np.stack([poses[name][:3, :3] for name in template.link_names])
    trans = np.stack([poses[name][:3, 3] for name in template.link_names])
    points = np.einsum("nij,nj->ni", rot, template.points) + trans
    return points, np.einsum("nij,nj->ni", rot, template.normals)


def check_retargeted(out_dir: Path, expected: dict, report: dict, hand: dict, points: int,
                     source_frames, source_rep, hand_template, lam: float) -> list[str]:
    """Check a `retarget`/`augment` output dataset.

    `expected` maps each output id to its source demo id. `source_frames(id, t)`
    returns the scene a frame must draw from; `source_rep(id, t)` returns the
    source template's (points, directions) at frame t; `hand_template` is the
    target template, posed here at the written configuration.
    """
    problems = []
    index = json.loads((out_dir / "index.json").read_text())["demos"]
    ids = sorted(e["id"] for e in index)
    if ids != sorted(expected):
        problems.append(f"output ids {len(ids)} != expected {len(expected)}")
    reported = {d["id"]: d for d in report["demos"]}
    for entry in index:
        decoded = decode_checked(out_dir, entry, hand, points, problems)
        if decoded is None or entry["id"] not in expected:
            continue
        configs, clouds = decoded
        out_id = entry["id"]
        stray = sum(stray_points(c, source_frames(out_id, t), hand, configs[t])
                    for t, c in enumerate(clouds))
        if stray:
            problems.append(f"{out_id}: {stray} points neither scene nor on the hand")
        length = len(clouds)
        for t in sorted({0, length // 2, length - 1}):
            x_points, x_dirs = source_rep(out_id, t)
            y_points, y_dirs = posed_template(hand, hand_template, configs[t])
            want = oracles.dcd(x_points, x_dirs, y_points, y_dirs, lam)
            got = reported[out_id]["dcd"][t]
            if abs(want - got) > DCD_TOL:
                problems.append(f"{out_id} frame {t}: reported DCD {got} != oracle {want}")
    return problems
