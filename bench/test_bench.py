"""Tests of the benchmark's own oracles, and a smoke run of each workload.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import xembody  # noqa: E402
from xembody.kinematics import forward_kinematics  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

LAM = 0.5


def unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_chain_doc(rng, n_joints: int) -> dict:
    """A random serial chain with mixed joint kinds, origins and axes."""
    links = [{"name": "link0", "geometry": None}]
    joints = []
    for k in range(n_joints):
        kind = rng.choice(["revolute", "prismatic", "fixed"], p=[0.5, 0.3, 0.2])
        angle = rng.uniform(-np.pi, np.pi)
        links.append({"name": f"link{k + 1}", "geometry": None})
        joints.append({
            "name": f"q{k}", "kind": str(kind), "parent": f"link{k}", "child": f"link{k + 1}",
            "axis": unit_rows(rng, 1)[0].tolist(),
            "origin": {"rotation": oracles.axis_rotation(unit_rows(rng, 1)[0], angle).tolist(),
                       "translation": rng.uniform(-0.4, 0.4, 3).tolist()},
            "lower": -1.5, "upper": 1.5,
        })
    return {"format": "xembody-robot", "version": 1, "name": "chain",
            "links": links, "joints": joints}


@pytest.mark.parametrize("seed", range(6))
def test_fk_oracle_matches_forward_kinematics(seed):
    rng = np.random.default_rng(seed)
    doc = random_chain_doc(rng, int(rng.integers(1, 9)))
    e = xembody.parse_robot_description(json.dumps(doc), "native")
    q = rng.uniform(-1.4, 1.4, e.dof)
    poses = forward_kinematics(e, q)
    oracle = oracles.link_poses(doc, q)
    assert oracles.dof_joints(doc) == list(e.actuated_joint_names)
    for i, link in enumerate(e.links):
        np.testing.assert_allclose(poses.rotations[i], oracle[link.name][:3, :3], atol=1e-12)
        np.testing.assert_allclose(poses.translations[i], oracle[link.name][:3, 3], atol=1e-12)


def test_fk_oracle_on_hand6_matches_program():
    doc = inputs.hand6_doc()
    e = xembody.parse_robot_description(json.dumps(doc), "native")
    lo, hi = inputs.joint_limits(doc)
    assert np.array_equal(lo, e.lower_limits) and np.array_equal(hi, e.upper_limits)
    q = np.random.default_rng(1).uniform(lo, hi)
    poses = forward_kinematics(e, q)
    oracle = oracles.link_poses(doc, q)
    for i, link in enumerate(e.links):
        np.testing.assert_allclose(poses.translations[i], oracle[link.name][:3, 3], atol=1e-12)


def test_dcd_oracle_identity_and_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, m = rng.integers(1, 40, size=2)
        a, da = rng.normal(size=(n, 3)), unit_rows(rng, n)
        b, db = rng.normal(size=(m, 3)), unit_rows(rng, m)
        assert oracles.dcd(a, da, a, da, LAM) == pytest.approx(-2 * LAM, abs=1e-12)
        assert oracles.dcd(a, da, b, db, LAM) == oracles.dcd(b, db, a, da, LAM)


def test_dcd_oracle_matches_program():
    rng = np.random.default_rng(3)
    cfg = xembody.MetricConfig(lam=LAM, epsilon=0.0)
    for n, m in ((5, 7), (48, 32), (600, 40)):  # the last takes the KD-tree path
        a, da = rng.normal(size=(n, 3)), unit_rows(rng, n)
        b, db = rng.normal(size=(m, 3)), unit_rows(rng, m)
        got = xembody.dcd(xembody.WorldFuncRep(a, da), xembody.WorldFuncRep(b, db), cfg)
        assert got == pytest.approx(oracles.dcd(a, da, b, db, LAM), abs=1e-12)


def test_greedy_fps_matches_program():
    rng = np.random.default_rng(4)
    points = rng.uniform(-0.2, 0.2, size=(700, 3))
    points[10] = points[20]  # a duplicate: ties go to the lowest index
    idx = oracles.greedy_fps(points, 100, 5)
    assert len(set(idx.tolist())) == 100
    got = xembody.fps_downsample(xembody.PointCloud(points), 100, 5)
    assert np.array_equal(got.points, points[idx])


def test_point_triangle_distance():
    rng = np.random.default_rng(5)
    tris = rng.normal(size=(6, 3, 3))
    # Points on a triangle are at distance 0.
    bary = rng.dirichlet(np.ones(3), size=50)
    on = np.einsum("nk,kj->nj", bary, tris[2])
    assert np.all(oracles.point_triangle_distance(on, tris) < 1e-12)
    # Off the triangles, no dense sample of their surfaces is closer.
    probes = rng.normal(size=(40, 3)) * 2
    dense = np.einsum("nk,tkj->tnj", rng.dirichlet(np.ones(3), size=4000), tris).reshape(-1, 3)
    sampled = np.linalg.norm(probes[:, None] - dense[None], axis=2).min(axis=1)
    exact = oracles.point_triangle_distance(probes, tris)
    assert np.all(exact <= sampled + 1e-12)
    assert np.all(sampled - exact < 0.05)


def test_checksum_and_decode_match_program(tmp_path):
    rng = np.random.default_rng(6)
    spec = inputs.hand_demo(rng, 4, 32)
    demo = inputs.make_demo(xembody, spec, 0)
    index = xembody.write_dataset({"d": demo}, tmp_path)
    assert oracles.frame_checksum(tmp_path / "d", 4) == index.entries[0].checksum
    _, clouds, proprio, action = oracles.decode_demo(tmp_path / "d")
    assert all(np.array_equal(c, s.astype("<f4")) for c, s in zip(clouds, spec["clouds"]))
    assert np.array_equal(proprio, spec["configs"].astype("<f4"))
    assert np.array_equal(action[:-1], proprio[1:]) and np.array_equal(action[-1], proprio[-1])


def test_gripper_samples_lie_on_the_gripper():
    doc = inputs.gripper1_doc()
    q = np.array([-0.02])
    points, normals = inputs.surface_samples(doc, q, 200, np.random.default_rng(7))
    assert np.all(oracles.point_triangle_distance(points, oracles.posed_triangles(doc, q)) < 1e-12)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so a smoke run takes seconds."""
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run.Retarget, "demos", 2)
    monkeypatch.setattr(run.Retarget, "lengths", (5, 7))
    monkeypatch.setattr(run.Retarget, "points", 128)
    monkeypatch.setattr(run.Augment, "lengths", (4, 5))
    monkeypatch.setattr(run.Augment, "points", 32)
    monkeypatch.setattr(run.Augment, "eis_samples", 20)
    monkeypatch.setattr(run.DatasetRoundtrip, "demos", 2)
    monkeypatch.setattr(run.DatasetRoundtrip, "length", 4)
    monkeypatch.setattr(run.DatasetRoundtrip, "points", 64)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and workload == "augment":
        layers = result["metrics"]
        variants = len(run.Augment.anchors) * run.Augment.grid_n ** 2
        assert layers["align.eis_samples"]["value"] == 20 * variants
        assert layers["chamfer.grad_calls"]["value"] == layers["align.steps"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "retarget",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
