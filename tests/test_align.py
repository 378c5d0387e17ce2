import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from xembody import align
from xembody import (AlignmentConfig, AlignmentError, MetricConfig, ValidationError,
                     align_frame, align_trajectory, build_template, dcd, eis_initialize,
                     eval_template, functional_similarity, joint_limit_penalty,
                     template_trajectory)
from xembody.align import _dcd_lower_bounds, minimize_with_patience
from xembody.funcrep import FuncRepTrajectory, FunctionalTemplate, WorldFuncRep
from xembody.kinematics import _fk_frames, evaluate_world_set
from xembody.robot import EmbodimentManifest, JointSpec, LinkSpec, build_embodiment
from xembody.transforms import rotation_about_axis


def test_penalty_zero_inside_limits(hand6):
    loss, grad = joint_limit_penalty(hand6.mid_range_configuration(), hand6)
    assert loss == 0.0 and not np.any(grad)


def test_penalty_hinge_squared(hand6):
    q = hand6.mid_range_configuration()
    q[1] = hand6.upper_limits[1] + 0.1
    assert np.isclose(joint_limit_penalty(q, hand6)[0], 0.01, atol=1e-15)


def test_penalty_gradient_matches_finite_differences(hand6):
    rng = np.random.default_rng(4)
    q = hand6.upper_limits + rng.uniform(0.01, 0.2, hand6.dof)
    q[::2] = hand6.lower_limits[::2] - rng.uniform(0.01, 0.2, hand6.dof)[::2]
    _, grad = joint_limit_penalty(q, hand6)
    h = 1e-7
    fd = np.array([
        (joint_limit_penalty(q + h * np.eye(hand6.dof)[d], hand6)[0]
         - joint_limit_penalty(q - h * np.eye(hand6.dof)[d], hand6)[0]) / (2 * h)
        for d in range(hand6.dof)
    ])
    assert np.abs(grad - fd).max() <= 1e-6


def test_frozen_loss_halts_after_patience():
    cfg = AlignmentConfig(max_steps=300, patience=10)
    calls = []

    def frozen(q):
        calls.append(1)
        return 1.0, np.zeros_like(q)

    _, trace, steps, early = minimize_with_patience(frozen, np.zeros(3), cfg)
    # First evaluation improves from +inf; the next `patience` do not.
    assert steps == 1 + cfg.patience
    assert early
    assert len(trace) == steps


def test_step_cap_without_early_stop():
    cfg = AlignmentConfig(max_steps=25, patience=10)

    def descending(q):
        # Strictly improving loss: patience never triggers.
        return float(q[0]), np.ones_like(q)

    _, trace, steps, early = minimize_with_patience(descending, np.zeros(1), cfg)
    assert steps == 25 and not early


def test_nonfinite_loss_names_frame(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 4, seed=0)
    bad = WorldFuncRep(np.full((2, 3), 1e308), np.tile([0.0, 0.0, 1.0], (2, 1)))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(AlignmentError, match="frame 3"):
            align_frame(gripper1, template, bad, np.zeros(1), AlignmentConfig(), frame_index=3)


def test_self_transfer_fixed_point(hand6):
    template = build_template(hand6, hand6.pad_links, 12, seed=1)
    q = hand6.mid_range_configuration() + 0.01
    x_t = eval_template(hand6, template, q)
    q_hat, diag = align_frame(hand6, template, x_t, q, AlignmentConfig())
    assert diag.final_dcd <= -1.0 + 1e-6
    assert joint_limit_penalty(q_hat, hand6)[0] == 0.0
    assert np.abs(q_hat - q).max() <= 1e-9
    assert diag.early_stopped and diag.steps_used <= 300


def test_best_loss_trace_is_monotone_under_accumulation(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=2)
    x_t = eval_template(gripper1, template, np.array([-0.04]))
    _, diag = align_frame(gripper1, template, x_t, np.zeros(1), AlignmentConfig())
    best = np.minimum.accumulate(diag.loss_trace)
    assert np.all(np.diff(best) <= 0)


def test_clamped_output_is_feasible(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=3)
    # Ask for a grasp far below the slide's lower limit: the unconstrained
    # optimum violates, the clamp must land exactly on the boundary.
    x_t = eval_template(gripper1, template, np.array([-0.056]))
    moved = WorldFuncRep(x_t.points + np.array([0, -0.05, 0]), x_t.directions)
    q_hat, _ = align_frame(gripper1, template, moved, np.array([-0.02]), AlignmentConfig())
    assert gripper1.lower_limits[0] <= q_hat[0] <= gripper1.upper_limits[0]


def test_rotated_copy_recovery():
    e = helpers.build_planar2(with_geometry=True)
    template = build_template(e, ("link2",), 32, seed=5)
    q0 = np.array([0.3, -0.5])
    angle = 0.15
    rz = rotation_about_axis(np.array([0.0, 0.0, 1.0]), angle)
    base = eval_template(e, template, q0)
    rotated = WorldFuncRep(base.points @ rz.T, base.directions @ rz.T)
    cfg = AlignmentConfig(step_size=0.005, patience=40)
    q_hat, diag = align_frame(e, template, rotated, q0, cfg)
    assert np.abs(q_hat - (q0 + [angle, 0.0])).max() <= 1e-3
    assert diag.final_dcd <= -1.0 + 1e-3


def test_constant_source_trajectory_converges_to_constant(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=6)
    frame = eval_template(gripper1, template, np.array([-0.03]))
    rep = FuncRepTrajectory(tuple([frame] * 6))
    aligned = align_trajectory(rep, gripper1, template, np.array([-0.01]), AlignmentConfig())
    for t in range(2, 6):
        assert np.abs(aligned.configs[t] - aligned.configs[1]).max() <= 1e-6


def test_warm_start_self_transfer_tracks_source():
    e = helpers.build_planar2(with_geometry=True)
    template = build_template(e, ("link2",), 32, seed=5)
    t = np.linspace(0.0, 1.0, 50)
    traj = np.stack([0.3 + 0.10 * np.sin(2 * np.pi * t),
                     -0.5 + 0.08 * np.cos(2 * np.pi * t)], axis=1)
    rep = template_trajectory(e, template, traj)
    cfg = AlignmentConfig(step_size=0.001, patience=40)
    aligned = align_trajectory(rep, e, template, traj[0], cfg)
    assert np.abs(aligned.configs - traj).max() <= 1e-3


def test_temporal_consistency_bound():
    e = helpers.build_planar2(with_geometry=True)
    template = build_template(e, ("link2",), 32, seed=5)
    t = np.linspace(0.0, 1.0, 30)
    traj = np.stack([0.3 + 0.10 * np.sin(2 * np.pi * t),
                     -0.5 + 0.08 * np.cos(2 * np.pi * t)], axis=1)
    rep = template_trajectory(e, template, traj)
    aligned = align_trajectory(rep, e, template, traj[0], AlignmentConfig())

    max_disp = max(
        np.linalg.norm(rep[t + 1].points - rep[t].points, axis=1).max()
        for t in range(len(rep) - 1)
    )
    min_lever = np.inf
    for t in range(len(rep)):
        _, _, axes, pivots = _fk_frames(e, traj[t])
        for d in range(e.dof):
            rel = rep[t].points - pivots[d]
            along = rel @ axes[d]
            min_lever = min(min_lever, np.linalg.norm(
                rel - along[:, None] * axes[d], axis=1).min())
    bound = max_disp / min_lever * 10.0
    deltas = np.abs(np.diff(aligned.configs, axis=0)).max()
    assert deltas <= bound


def test_alignment_is_bit_reproducible(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=7)
    rep = template_trajectory(gripper1, template, helpers.pinch_trajectory(8))
    a = align_trajectory(rep, gripper1, template, np.zeros(1), AlignmentConfig())
    b = align_trajectory(rep, gripper1, template, np.zeros(1), AlignmentConfig())
    assert np.array_equal(a.configs, b.configs)


def test_lambda_zero_ablation_still_optimizes(gripper1, hand6):
    source_template = build_template(gripper1, gripper1.pad_links, 8, seed=8)
    target_template = build_template(hand6, hand6.pad_links, 8, seed=8)
    rep = template_trajectory(gripper1, source_template, helpers.pinch_trajectory(5))
    cfg = AlignmentConfig(metric=MetricConfig(lam=0.0, epsilon=1e-9))
    aligned = align_trajectory(rep, hand6, target_template, cfg=cfg)
    assert len(aligned) == 5
    for diag in aligned.diagnostics:
        best = np.minimum.accumulate(diag.loss_trace)
        assert np.all(np.diff(best) <= 0)
        assert diag.steps_used <= 300


def test_eis_degenerate_limits_returns_that_configuration():
    links = [LinkSpec("base", helpers.box_mesh((0.05, 0.05, 0.05))), LinkSpec("a", None, None)]
    joints = [JointSpec("j", "revolute", "base", "a", axis=(0, 0, 1), lower=0.3, upper=0.3)]
    e = build_embodiment("frozen", links, joints, EmbodimentManifest(pad_links=("base",)))
    template = build_template(e, ("base",), 8, seed=0)
    x0 = eval_template(e, template, np.array([0.3]))
    q = eis_initialize(e, template, x0, samples=20, seed=1)
    assert np.array_equal(q, np.array([0.3]))


def test_eis_m10_returns_argmax(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=9)
    x0 = eval_template(gripper1, template, np.array([-0.02]))
    seed = 11
    q = eis_initialize(gripper1, template, x0, samples=10, elite_fraction=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    candidates = rng.uniform(gripper1.lower_limits, gripper1.upper_limits, (10, 1))
    scores = [functional_similarity(x0, eval_template(gripper1, template, c))
              for c in candidates]
    assert np.array_equal(q, candidates[int(np.argmax(scores))])


def test_eis_elites_beat_90th_percentile(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=10)
    x0 = eval_template(gripper1, template, np.array([-0.05]))
    samples, fraction, seed = 200, 0.1, 3
    eis_initialize(gripper1, template, x0, samples, fraction, seed)
    rng = np.random.default_rng(seed)
    candidates = rng.uniform(gripper1.lower_limits, gripper1.upper_limits, (samples, 1))
    scores = np.array([functional_similarity(x0, eval_template(gripper1, template, c))
                       for c in candidates])
    elite_count = int(np.ceil(samples * fraction))
    elite_scores = np.sort(scores)[-elite_count:]
    assert np.all(elite_scores >= np.percentile(scores, 90.0) - 1e-12)


def test_eis_requires_ten_samples(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 4, seed=0)
    x0 = eval_template(gripper1, template, np.zeros(1))
    with pytest.raises(ValidationError):
        eis_initialize(gripper1, template, x0, samples=5)


def test_eis_rejects_an_empty_source_set(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 4, seed=0)
    empty = WorldFuncRep(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValidationError, match="non-empty"):
        eis_initialize(gripper1, template, empty, samples=10)


def test_eis_warns_on_wide_elite_span():
    # A joint with no effect on the template: every candidate scores the same,
    # so the elites are an arbitrary wide slice of a +/-2pi range.
    links = [LinkSpec("base", helpers.box_mesh((0.05, 0.05, 0.05))), LinkSpec("a", None, None)]
    joints = [JointSpec("j", "revolute", "base", "a", axis=(0, 0, 1),
                        lower=-2 * np.pi, upper=2 * np.pi)]
    e = build_embodiment("loose", links, joints, EmbodimentManifest(pad_links=("base",)))
    template = build_template(e, ("base",), 4, seed=0)
    x0 = eval_template(e, template, np.zeros(1))
    with pytest.warns(UserWarning, match="span more than pi"):
        eis_initialize(e, template, x0, samples=50, seed=0)


def test_alignment_config_validation():
    with pytest.raises(ValidationError):
        AlignmentConfig(w1=-1.0)
    with pytest.raises(ValidationError):
        AlignmentConfig(max_steps=0)
    with pytest.raises(ValidationError):
        AlignmentConfig(patience=0)
    with pytest.raises(ValidationError):
        AlignmentConfig(step_size=0.0)


def _eis_reference(target, template, x_0, samples, elite_fraction=0.10, seed=0, cfg=None):
    """The scoring loop `eis_initialize` replaced: an exact DCD for every
    candidate. Its elites, their order and their mean must come out bit-equal."""
    metric = cfg.metric if cfg is not None else MetricConfig()
    rng = np.random.default_rng(seed)
    candidates = rng.uniform(target.lower_limits, target.upper_limits,
                             size=(samples, target.dof))
    points, dirs = evaluate_world_set(target, candidates, template.link_names,
                                      template.points, template.normals)
    scores = np.empty(samples)
    for b in range(samples):
        scores[b] = functional_similarity(x_0, WorldFuncRep(points[b], dirs[b]), metric)
    elite_count = int(np.ceil(samples * elite_fraction))
    order = np.argsort(-scores, kind="stable")
    elites = candidates[order[:elite_count]]
    span = elites.max(axis=0) - elites.min(axis=0)
    if np.any(span > np.pi):
        warnings.warn("elite configurations span more than pi radians", stacklevel=2)
    return elites.mean(axis=0)


@st.composite
def eis_cases(draw):
    """A random chain whose pads are flat plates (narrow direction cones),
    box meshes (wide cones) or only the base (no joint moves them, so every
    score ties), optionally with degenerate limits, and a source set whose
    directions may not be unit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pads_on = draw(st.sampled_from(["plates", "boxes", "base"]))
    degenerate = draw(st.booleans())
    n_joints = draw(st.integers(1, 4))

    def geometry():
        if pads_on == "boxes":
            return helpers.box_mesh(rng.uniform(0.01, 0.04, size=3))
        return helpers.pad_plate(*rng.uniform(0.005, 0.02, size=2), rng.choice([-1.0, 1.0]))

    links = [LinkSpec("link0", helpers.box_mesh((0.02, 0.02, 0.02)))]
    joints, pads = [], ["link0"] if pads_on == "base" else []
    for k in range(n_joints):
        axis = rng.normal(size=3)
        turn = rng.normal(size=3)
        rotation = rotation_about_axis(turn / np.linalg.norm(turn), rng.uniform(-np.pi, np.pi))
        lower, upper = rng.uniform(-1.5, -0.05), rng.uniform(0.05, 1.5)
        if degenerate and rng.random() < 0.5:
            lower = upper
        links.append(LinkSpec(f"link{k + 1}", geometry()))
        joints.append(JointSpec(f"q{k}", str(rng.choice(["revolute", "prismatic", "fixed"])),
                                f"link{k}", f"link{k + 1}", axis=axis / np.linalg.norm(axis),
                                origin_rotation=rotation,
                                origin_translation=rng.uniform(-0.1, 0.1, size=3),
                                lower=lower, upper=upper))
        if pads_on != "base" and (k == n_joints - 1 or rng.random() < 0.5):
            pads.append(f"link{k + 1}")
    if all(j.kind == "fixed" for j in joints):
        joints[-1] = dataclasses.replace(joints[-1], kind="revolute")
    e = build_embodiment("chain", links, joints, EmbodimentManifest(pad_links=tuple(pads)))
    template = build_template(e, pads, draw(st.integers(1, 12)), seed=int(rng.integers(1 << 30)))

    x_0 = eval_template(e, template, rng.uniform(e.lower_limits, e.upper_limits))
    points = x_0.points + rng.normal(scale=draw(st.sampled_from([0.0, 0.01])), size=(len(x_0), 3))
    dirs = x_0.directions
    if draw(st.booleans()):  # lengths from 0 to 2
        dirs = dirs * rng.choice([0.0, 0.5, 1.0, 2.0], size=(len(x_0), 1))
    cfg = AlignmentConfig(metric=MetricConfig(draw(st.sampled_from([0.0, 0.5, 2.0])),
                                              draw(st.sampled_from([0.0, 1e-9]))))
    samples, fraction = draw(st.sampled_from([(10, 0.1), (40, 0.1), (200, 0.1), (200, 0.35),
                                              (30, 1.0)]))
    return e, template, WorldFuncRep(points, dirs), samples, fraction, cfg


@settings(max_examples=80, deadline=None)
@given(case=eis_cases(), seed=st.integers(0, 2**32 - 1))
def test_eis_equals_scoring_every_candidate(case, seed):
    e, template, x_0, samples, fraction, cfg = case
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = eis_initialize(e, template, x_0, samples, fraction, seed, cfg)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = _eis_reference(e, template, x_0, samples, fraction, seed, cfg)
    assert np.array_equal(got, want)
    assert len(got_warnings) == len(want_warnings)


@settings(max_examples=80, deadline=None)
@given(case=eis_cases(), seed=st.integers(0, 2**32 - 1), skewed=st.booleans())
def test_dcd_lower_bound_holds_for_every_candidate(case, seed, skewed):
    e, template, x_0, samples, _, cfg = case
    rng = np.random.default_rng(seed)
    qs = rng.uniform(e.lower_limits, e.upper_limits, (samples, e.dof))
    points, dirs = evaluate_world_set(e, qs, template.link_names, template.points,
                                      template.normals)
    _, link_of_row = np.unique(template.link_names, return_inverse=True)
    if skewed:  # link frames that are not orthonormal: directions of any length
        for link in np.unique(link_of_row):
            rows = link_of_row == link
            points[:, rows] = points[:, rows] @ (np.eye(3) + rng.normal(scale=0.3, size=(3, 3)))
            dirs[:, rows] = dirs[:, rows] @ (np.eye(3) + rng.normal(scale=0.3, size=(3, 3)))
    bounds = _dcd_lower_bounds(x_0, points, dirs, link_of_row, cfg.metric)
    exact = [dcd(x_0, WorldFuncRep(p, d), cfg.metric) for p, d in zip(points, dirs)]
    assert np.all(bounds <= exact)


def test_eis_scores_few_candidates_exactly(gripper1, hand6, monkeypatch):
    # The bench's augment shape: 64 template points per pad link, 1,000 samples.
    source = build_template(gripper1, gripper1.pad_links, 64, seed=1)
    target = build_template(hand6, hand6.pad_links, 64, seed=2)
    x_0 = eval_template(gripper1, source, np.array([-0.03]))
    scored = []
    exact = align.functional_similarity
    monkeypatch.setattr(align, "functional_similarity",
                        lambda *args: scored.append(1) or exact(*args))
    q = eis_initialize(hand6, target, x_0, samples=1000, seed=4)
    assert len(scored) < 250
    assert np.array_equal(q, _eis_reference(hand6, target, x_0, samples=1000, seed=4))
