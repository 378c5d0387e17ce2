"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the throughput report.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import helpers
from xembody import (AlignmentConfig, LinkSpec, MetricConfig, align_frame, box_mesh,
                     build_embodiment, build_template, dcd, eis_initialize, eval_template,
                     fps_downsample, functional_similarity, grid_transforms,
                     joint_limit_penalty, mask_robot_points, serialize_embodiment,
                     template_trajectory, write_dataset)
from xembody.align import minimize_with_patience
from xembody.augment import SpatialTransform, augment_rep_trajectory
from xembody.chamfer import _DcdWorkspace, dcd_value_and_cotangent
from xembody.cli import main
from xembody.dataset import read_demonstration, read_index
from xembody.funcrep import WorldFuncRep
from xembody.kinematics import (_PullbackWorkspace, evaluate_with_pullback, evaluate_world_set,
                                forward_kinematics)
from xembody.synth import PointCloud


def report(line):
    print(f"\n{line}")


# --------------------------------------------------------------------------
# 1. DCD oracle equivalence + exact symmetry
# --------------------------------------------------------------------------

def oracle_dcd(x, xp, lam):
    total = 0.0
    for a, b in ((x, xp), (xp, x)):
        acc = 0.0
        for i in range(len(a)):
            acc += min(
                np.linalg.norm(a.points[i] - b.points[j])
                - lam * float(np.dot(a.directions[i], b.directions[j]))
                for j in range(len(b))
            )
        total += acc / len(a)
    return total


def test_c01_dcd_oracle_equivalence():
    rng = np.random.default_rng(10)
    cfg = MetricConfig(0.5, 0.0)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x = helpers.random_funcrep(rng, int(rng.integers(1, 9)))
        xp = helpers.random_funcrep(rng, int(rng.integers(1, 9)))
        got = dcd(x, xp, cfg)
        worst = max(worst, abs(got - oracle_dcd(x, xp, 0.5)))
        assert got == dcd(xp, x, cfg)  # symmetry, exact
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(f"PASS criterion 1: DCD matches the exhaustive oracle on 1000 pairs "
           f"(worst {worst:.2e}), symmetry exact, {elapsed:.2f}s < 5s")


# --------------------------------------------------------------------------
# 2. DCD identity
# --------------------------------------------------------------------------

def test_c02_dcd_identity():
    rng = np.random.default_rng(20)
    cfg = MetricConfig(0.5, 0.0)
    worst = 0.0
    for _ in range(100):
        x = helpers.random_funcrep(rng, int(rng.integers(1, 16)))
        worst = max(worst, abs(dcd(x, x, cfg) - (-1.0)))
    assert worst <= 1e-12
    report(f"PASS criterion 2: dcd(X, X) = -2*lambda = -1.0 on 100 sets (worst {worst:.2e})")


# --------------------------------------------------------------------------
# 3. FK oracle
# --------------------------------------------------------------------------

def test_c03_fk_oracle():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(200):
        e = helpers.random_chain(rng, int(rng.integers(1, 9)))
        q = helpers.random_config(rng, e)
        poses = forward_kinematics(e, q)
        oracle = helpers.oracle_link_poses(e, q)
        for i, link in enumerate(e.links):
            m = oracle[link.name]
            worst = max(worst,
                        np.abs(poses.rotations[i] - m[:3, :3]).max(),
                        np.abs(poses.translations[i] - m[:3, 3]).max())
    assert worst <= 1e-12
    report(f"PASS criterion 3: FK matches the homogeneous-matrix oracle on 200 chains "
           f"(worst {worst:.2e})")


# --------------------------------------------------------------------------
# 4. Full alignment-loss gradient vs central finite differences
# --------------------------------------------------------------------------

def _align_loss_and_grad(e, template, x_t, metric):
    def loss(q):
        pts, dirs = evaluate_world_set(e, q, template.link_names, template.points,
                                       template.normals)
        return dcd(x_t, WorldFuncRep(pts, dirs), metric) + joint_limit_penalty(q, e)[0]

    def grad(q):
        pts, dirs, pullback = evaluate_with_pullback(
            _PullbackWorkspace(e, template.link_names, template.points, template.normals), q)
        _, dp, dd = dcd_value_and_cotangent(x_t, WorldFuncRep(pts, dirs),
                                            _DcdWorkspace(len(x_t), len(pts), metric))
        return pullback(dp, dd) + joint_limit_penalty(q, e)[1]

    return loss, grad


def _argmin_margin(x, xq, metric):
    """Gap between the best and second-best combined cost over rows and columns."""
    cost = helpers.pair_costs(x.points, x.directions, xq.points, xq.directions, metric)
    rows = np.sort(cost, axis=1)
    cols = np.sort(cost, axis=0)
    row_gap = np.min(rows[:, 1] - rows[:, 0]) if cost.shape[1] > 1 else np.inf
    col_gap = np.min(cols[1, :] - cols[0, :]) if cost.shape[0] > 1 else np.inf
    return min(row_gap, col_gap)


def test_c04_gradient_check():
    rng = np.random.default_rng(40)
    metric = MetricConfig(0.5, 1e-9)
    h = 1e-5
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        e = helpers.random_chain(rng, int(rng.integers(2, 9)), meshed=True)
        if e.dof == 0:
            continue
        pads = [l.name for l in e.links if l.mesh is not None][:2]
        template = build_template(e, pads, 6, seed=int(rng.integers(1 << 30)))
        q = helpers.random_config(rng, e, margin=0.1)
        x_t = helpers.random_funcrep(rng, int(rng.integers(4, 10)), scale=0.3)
        pts, dirs = evaluate_world_set(e, q, template.link_names, template.points,
                                       template.normals)
        if _argmin_margin(x_t, WorldFuncRep(pts, dirs), metric) < 1e-3:
            continue  # stay away from argmin ties
        loss, grad = _align_loss_and_grad(e, template, x_t, metric)
        analytic = grad(q)
        fd = np.array([
            (loss(q + h * np.eye(e.dof)[d]) - loss(q - h * np.eye(e.dof)[d])) / (2 * h)
            for d in range(e.dof)
        ])
        rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-9)
        worst = max(worst, rel)
        assert rel <= 1e-3
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(f"PASS criterion 4: L_align gradient matches central differences on 100 "
           f"instances (worst rel {worst:.2e}), {elapsed:.1f}s < 60s")


# --------------------------------------------------------------------------
# 5. Self-transfer fixed point
# --------------------------------------------------------------------------

def test_c05_self_transfer_fixed_point():
    e = helpers.build_hand6()
    template = build_template(e, e.pad_links, 12, seed=50)
    trajectory = helpers.hand_trajectory(50)
    cfg = AlignmentConfig()
    worst_dcd = -np.inf
    worst_dev = 0.0
    worst_pen = 0.0
    for t in range(len(trajectory)):
        x_t = eval_template(e, template, trajectory[t])
        q_hat, diag = align_frame(e, template, x_t, trajectory[t], cfg, frame_index=t)
        worst_dcd = max(worst_dcd, diag.final_dcd)
        worst_dev = max(worst_dev, float(np.abs(q_hat - trajectory[t]).max()))
        worst_pen = max(worst_pen, joint_limit_penalty(q_hat, e)[0])
    assert worst_dcd <= -1.0 + 1e-6
    assert worst_pen == 0.0
    assert worst_dev <= 1e-3
    report(f"PASS criterion 5: 50-frame self-transfer fixed point (worst DCD "
           f"{worst_dcd:.9f} <= -1+1e-6, max deviation {worst_dev:.2e} <= 1e-3, penalty 0)")


# --------------------------------------------------------------------------
# 6. Stopping discipline
# --------------------------------------------------------------------------

def test_c06_stopping_discipline():
    cfg = AlignmentConfig(max_steps=300, patience=10)

    def frozen(q):
        return 1.0, np.zeros_like(q)

    _, _, trace, steps, early = minimize_with_patience(frozen, np.zeros(4), cfg)
    assert early and steps == 1 + 10 and len(trace) == steps

    # A loss flat after step k halts at exactly k + patience.
    k = 37
    counter = {"n": 0}

    def flat_after_k(q):
        counter["n"] += 1
        value = max(0.0, float(k - counter["n"]))
        return value, np.zeros_like(q)

    _, _, _, steps, early = minimize_with_patience(flat_after_k, np.zeros(2), cfg)
    assert early and steps == k + 10

    counter["n"] = 0

    def strictly_descending(q):
        counter["n"] += 1
        return -float(counter["n"]), np.zeros_like(q)

    _, _, _, steps, early = minimize_with_patience(strictly_descending, np.zeros(2), cfg)
    assert not early and steps == 300

    # On real frames: the step cap holds and the flag matches the halting mode.
    e = helpers.build_gripper1()
    template = build_template(e, e.pad_links, 8, seed=60)
    for target in (-0.01, -0.04):
        x_t = eval_template(e, template, np.array([target]))
        _, diag = align_frame(e, template, x_t, np.zeros(1), cfg)
        assert diag.steps_used <= 300
        if diag.steps_used < 300:
            assert diag.early_stopped
        if not diag.early_stopped:
            assert diag.steps_used == 300
    report("PASS criterion 6: step cap 300 and patience-10 halting verified "
           "(frozen loss halts at k + 10 exactly)")


# --------------------------------------------------------------------------
# 7. Toy cross-embodiment transfer
# --------------------------------------------------------------------------

def distance_to_hull(points, x):
    """Upper bound on the distance from x to conv(points) via a simplex QP.

    Any feasible simplex weight vector yields a point inside the hull, so the
    returned distance can only overestimate; asserting it under a threshold is
    sound. The QP runs over the hull vertices only.
    """
    from scipy.spatial import ConvexHull

    vertices = points[ConvexHull(points).vertices]
    k = len(vertices)

    def f(a):
        r = vertices.T @ a - x
        return float(r @ r)

    def g(a):
        return 2.0 * vertices @ (vertices.T @ a - x)

    res = minimize(f, np.full(k, 1.0 / k), jac=g, method="SLSQP",
                   bounds=[(0.0, 1.0)] * k,
                   constraints=({"type": "eq", "fun": lambda a: a.sum() - 1.0,
                                 "jac": lambda a: np.ones(k)},),
                   options={"maxiter": 300, "ftol": 1e-14})
    a = np.clip(res.x, 0.0, None)
    a /= a.sum()  # feasible point of the hull -> valid upper bound
    return float(np.linalg.norm(vertices.T @ a - x))


def test_c07_toy_cross_embodiment_transfer():
    started = time.perf_counter()
    gripper = helpers.build_gripper1()
    hand = helpers.build_hand6()
    source_template = build_template(gripper, gripper.pad_links, 24, seed=70)
    target_template = build_template(hand, hand.pad_links, 16, seed=70)
    trajectory = helpers.pinch_trajectory(60)
    rep = template_trajectory(gripper, source_template, trajectory)

    from xembody import align_trajectory

    aligned = align_trajectory(rep, hand, target_template, cfg=AlignmentConfig())
    grasp_frames = range(50, 60)
    names = np.array(target_template.link_names)
    worst_hull = 0.0
    for t in grasp_frames:
        target_rep = eval_template(hand, target_template, aligned.configs[t])
        for p in target_rep.points:
            # Distance to the nearest source point already upper-bounds the
            # hull distance; only tight cases need the QP.
            bound = float(np.linalg.norm(rep[t].points - p, axis=1).min())
            if bound > 0.003:
                bound = distance_to_hull(rep[t].points, p)
            worst_hull = max(worst_hull, bound)
        thumb = target_rep.directions[names == "thumb_pad"].mean(axis=0)
        for finger in ("finger_l_pad", "finger_r_pad"):
            other = target_rep.directions[names == finger].mean(axis=0)
            assert float(thumb @ other) < 0.0
    elapsed = time.perf_counter() - started
    assert worst_hull <= 0.005
    assert elapsed < 60.0
    report(f"PASS criterion 7: gripper(1-dof) -> hand(6-dof) pinch transfer; grasp-phase "
           f"points within {worst_hull * 1000:.2f}mm <= 5mm of the source hull, opposing "
           f"pads anti-aligned, {elapsed:.1f}s < 60s")


# --------------------------------------------------------------------------
# 8. Observation pipeline
# --------------------------------------------------------------------------

def test_c08_observation_pipeline():
    from xembody import SynthConfig, synthesize_observation

    gripper = helpers.build_gripper1()
    hand = helpers.build_hand6()
    rng = np.random.default_rng(80)

    # exactly 1024 points out, across frames of differing input sizes
    cfg = SynthConfig(robot_points=1024, output_size=1024, seed=8)
    for n_table in (400, 900):
        scene = helpers.table_scene(rng, n_table=n_table)
        out = synthesize_observation(scene, gripper, np.array([-0.02]), hand,
                                     hand.mid_range_configuration(), cfg)
        assert len(out) == 1024

    # masking semantics at tau = 5mm, against a one-link box robot
    box = build_embodiment("box", [LinkSpec("base", box_mesh((0.02, 0.02, 0.02)))], [])
    scene = PointCloud(np.array([[0.024, 0, 0], [0.026, 0, 0]]))
    survivors = mask_robot_points(scene, box, np.zeros(0), 0.005)
    assert np.allclose(survivors.points, [[0.026, 0, 0]])

    # FPS equals the quadratic greedy oracle on clouds <= 64 points
    for trial in range(10):
        m = int(rng.integers(9, 65))
        pts = rng.normal(size=(m, 3))
        start = int(rng.integers(m))
        out = fps_downsample(PointCloud(pts), 8, start_index=start)
        selected = [start]
        dist = np.linalg.norm(pts - pts[start], axis=1)
        while len(selected) < 8:
            pick = int(np.argmax(dist))
            selected.append(pick)
            dist = np.minimum(dist, np.linalg.norm(pts - pts[pick], axis=1))
        assert np.array_equal(out.points, pts[selected])
    report("PASS criterion 8: synthesized frames have exactly 1024 points; tau masking "
           "removes 4mm and keeps 6mm; FPS matches the greedy oracle")


# --------------------------------------------------------------------------
# 9. Spatial augmentation
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    gripper = helpers.build_gripper1()
    hand = helpers.build_hand6()
    (root / "gripper1.json").write_text(serialize_embodiment(gripper))
    (root / "hand6.json").write_text(serialize_embodiment(hand))
    return root


def test_c09_spatial_augmentation(cli_workspace):
    gripper = helpers.build_gripper1()
    template = build_template(gripper, gripper.pad_links, 8, seed=90)
    rep = template_trajectory(gripper, template, helpers.pinch_trajectory(20))
    transforms = grid_transforms(np.zeros((1, 3)), 10, 0.08)
    assert len(transforms) == 100
    length = len(rep)
    for t in transforms:
        out = augment_rep_trajectory(rep, t.transform)
        assert np.array_equal(out[0].points, rep[0].points)  # bit-exact shared start
        assert np.array_equal(out[0].directions, rep[0].directions)
        for k in range(int(np.ceil(0.8 * length)), length):
            moved = t.transform.apply(rep[k])
            assert np.abs(out[k].points - moved.points).max() <= 1e-12
            assert np.abs(out[k].directions - moved.directions).max() <= 1e-12

    # one demo x 10 anchors x 10x10 grid -> exactly 1000 output demos
    root = cli_workspace
    demo = helpers.make_source_demo(helpers.build_gripper1(), helpers.pinch_trajectory(3),
                                    seed=9, n_table=60, n_object=12)
    write_dataset({"d": demo}, root / "aug_in")
    anchors = [[0.02 * k, 0.0, 0.0] for k in range(10)]
    (root / "anchors.json").write_text(json.dumps({"anchors": anchors}))
    code = main(["augment", "--source", str(root / "gripper1.json"),
                 "--target", str(root / "hand6.json"),
                 "--input", str(root / "aug_in"), "--out", str(root / "aug_out"),
                 "--seed", "1", "--points", "32", "--max-steps", "20",
                 "--anchors-file", str(root / "anchors.json"),
                 "--grid-n", "10", "--grid-range", "0.08"])
    assert code == 0
    assert len(read_index(root / "aug_out")) == 1000
    report("PASS criterion 9: frame-0 bit-equality over 100 grid transforms, saturation "
           "frames equal T(X_t) within 1e-12, 10 anchors x 10x10 grid -> 1000 demos")


# --------------------------------------------------------------------------
# 10. Elite-based initialization
# --------------------------------------------------------------------------

def test_c10_eis():
    hand = helpers.build_hand6()
    template = build_template(hand, hand.pad_links, 8, seed=100)
    x0 = eval_template(hand, template, hand.mid_range_configuration() + 0.02)

    samples, fraction, seed = 1000, 0.10, 7
    eis_initialize(hand, template, x0, samples, fraction, seed)
    rng = np.random.default_rng(seed)
    candidates = rng.uniform(hand.lower_limits, hand.upper_limits, (samples, hand.dof))
    scores = np.array([
        functional_similarity(x0, eval_template(hand, template, c)) for c in candidates
    ])
    elite_count = int(np.ceil(samples * fraction))
    elite_scores = np.sort(scores)[-elite_count:]
    p90 = np.percentile(scores, 90.0)
    assert np.all(elite_scores >= p90 - 1e-12)

    # M = 10 returns the argmax candidate exactly
    gripper = helpers.build_gripper1()
    template_g = build_template(gripper, gripper.pad_links, 8, seed=101)
    x0g = eval_template(gripper, template_g, np.array([-0.03]))
    got = eis_initialize(gripper, template_g, x0g, 10, 0.10, seed=13)
    rng = np.random.default_rng(13)
    pool = rng.uniform(gripper.lower_limits, gripper.upper_limits, (10, 1))
    best = pool[int(np.argmax([
        functional_similarity(x0g, eval_template(gripper, template_g, c)) for c in pool
    ]))]
    assert np.array_equal(got, best)
    report(f"PASS criterion 10: all {elite_count} elites score >= the 90th percentile; "
           "M=10 returns the argmax candidate exactly")


# --------------------------------------------------------------------------
# 11. Throughput (informational) + 12. determinism
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def throughput_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("throughput")
    gripper = helpers.build_gripper1()
    lengths = [95, 100, 105, 110, 115] * 5  # 25 demos, average length 105
    demos = {}
    for k, length in enumerate(lengths):
        demo = helpers.make_source_demo(
            gripper, helpers.pinch_trajectory(length, hold=10), seed=k)
        for dup in range(4):  # duplication at ratio 4x -> 100 demos
            demos[f"demo{k:02d}-dup{dup}"] = demo
    write_dataset(demos, root / "source")
    return root


def test_c11_throughput_informational(cli_workspace, throughput_dataset):
    root = throughput_dataset
    out = root / "retargeted"
    manifest = {
        "source": {"description": str(cli_workspace / "gripper1.json")},
        "target": {"description": str(cli_workspace / "hand6.json")},
        "input": str(root / "source"),
        "output": str(out),
        "seed": 11,
        "workers": 1,
        "template": {"points_per_link": 16},
        "synthesis": {"robot_points": 1024, "output_size": 1024},
    }
    (root / "run.json").write_text(json.dumps(manifest))
    started = time.perf_counter()
    code = main(["retarget", "--manifest", str(root / "run.json")])
    elapsed = time.perf_counter() - started
    assert code == 0
    index = read_index(out)
    assert len(index) == 100
    assert sum(e.length for e in index.entries) == 10500
    demo = read_demonstration(out / index.entries[0].path, index.entries[0].checksum)
    assert all(len(c) == 1024 for c in demo.clouds)
    report_path = json.loads(Path(str(out) + ".report.json").read_text())
    assert report_path["totals"]["failed"] == 0
    report(f"INFO criterion 11: retargeted 100 demos (avg length 105, 10500 frames) in "
           f"{elapsed / 60:.1f} min on 1 core (reference 2.5 min; envelope 30 min on 8 cores)")


def test_c12_worker_count_determinism(cli_workspace, tmp_path):
    gripper = helpers.build_gripper1()
    demos = {
        f"demo{k}": helpers.make_source_demo(
            gripper, helpers.pinch_trajectory(6 + k), seed=k, n_table=200, n_object=40)
        for k in range(3)
    }
    source = tmp_path / "src"
    write_dataset(demos, source)

    def run(out, workers):
        code = main(["retarget",
                     "--source", str(cli_workspace / "gripper1.json"),
                     "--target", str(cli_workspace / "hand6.json"),
                     "--input", str(source), "--out", str(out),
                     "--seed", "4", "--workers", str(workers),
                     "--points", "256", "--max-steps", "60"])
        assert code == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(Path(out).rglob("*")) if p.is_file()}

    first = run(tmp_path / "out1", 1)
    second = run(tmp_path / "out2", 2)
    assert first == second
    report("PASS criterion 12: identical manifests with 1 vs 2 workers produce "
           "byte-identical datasets")
