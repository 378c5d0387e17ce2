import dataclasses
import tracemalloc
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
from xembody.kinematics import _chain, _fk_frames, _resolve_link_indices, evaluate_world_set
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

    _, _, trace, steps, early = minimize_with_patience(frozen, np.zeros(3), cfg)
    # First evaluation improves from +inf; the next `patience` do not.
    assert steps == 1 + cfg.patience
    assert early
    assert len(trace) == steps


def test_step_cap_without_early_stop():
    cfg = AlignmentConfig(max_steps=25, patience=10)

    def descending(q):
        # Strictly improving loss: patience never triggers.
        return float(q[0]), np.ones_like(q)

    _, _, trace, steps, early = minimize_with_patience(descending, np.zeros(1), cfg)
    assert steps == 25 and not early


def test_nonfinite_loss_names_frame(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 4, seed=0)
    bad = WorldFuncRep(np.full((2, 3), 1e308), np.tile([0.0, 0.0, 1.0], (2, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
                        lambda *args, **kwargs: scored.append(1) or exact(*args, **kwargs))
    q = eis_initialize(hand6, target, x_0, samples=1000, seed=4)
    assert len(scored) < 250
    assert np.array_equal(q, _eis_reference(hand6, target, x_0, samples=1000, seed=4))


def _pullback_reference(e, q, link_indices, world_points, world_dirs, d_points, d_normals):
    """The pullback before the alignment workspace: a boolean-mask gather and
    Python-scalar sums per link, links ascending, dofs root to link."""
    table = _chain(e)
    _, _, axis_world, pivot_world = _fk_frames(e, q)
    grad = np.zeros(e.dof)
    for link in np.unique(link_indices):
        dofs = table.ancestor_dofs[link]
        if not dofs:
            continue
        rows = link_indices == link
        dp = d_points[rows]
        fx, fy, fz = dp.sum(axis=0)
        torque = np.cross(world_points[rows], dp).sum(axis=0)
        spin = np.cross(world_dirs[rows], d_normals[rows]).sum(axis=0)
        moment = torque + spin
        for d in dofs:
            a = axis_world[d]
            if table.dof_kinds[d] == "revolute":
                ox, oy, oz = pivot_world[d]
                grad[d] += (a[0] * (moment[0] - (oy * fz - oz * fy))
                            + a[1] * (moment[1] - (oz * fx - ox * fz))
                            + a[2] * (moment[2] - (ox * fy - oy * fx)))
            else:
                grad[d] += a[0] * fx + a[1] * fy + a[2] * fz
    return grad


def _value_and_grad_reference(target, template, x_t, cfg):
    """The per-step objective before the alignment workspace, with everything
    built per call: link indices, the gathered world set, the full cost
    matrix's argmins, the cotangent, the limit penalty and the pullback."""
    link_indices = _resolve_link_indices(target, template.link_names)
    metric = cfg.metric

    def value_and_grad(q):
        rot, trans, _, _ = _fk_frames(target, q)
        r = rot[link_indices]
        points = np.einsum("...nij,nj->...ni", r, template.points) + trans[link_indices]
        dirs = np.einsum("...nij,nj->...ni", r, template.normals)
        cost = helpers.pair_costs(x_t.points, x_t.directions, points, dirs, metric)
        fwd, bwd = np.argmin(cost, axis=1), np.argmin(cost, axis=0)
        n, m = cost.shape
        value = float(cost[np.arange(n), fwd].mean() + cost[bwd, np.arange(m)].mean())
        d_pts, d_dirs = helpers.cotangent_reference(x_t, points, fwd, bwd, metric)
        over = np.maximum(0.0, q - target.upper_limits)
        under = np.maximum(0.0, target.lower_limits - q)
        penalty = float(np.sum(over * over) + np.sum(under * under))
        grad = _pullback_reference(target, q, link_indices, points, dirs,
                                   cfg.w1 * d_pts, cfg.w1 * d_dirs)
        grad += cfg.w2 * (2.0 * (over - under))
        return cfg.w1 * value + cfg.w2 * penalty, grad

    return value_and_grad


def _minimize_reference(value_and_grad, q0, cfg):
    """Adam with fresh arrays per update, as before the in-place update."""
    q, best_q, best, bad, trace, early = np.array(q0, dtype=float), None, np.inf, 0, [], False
    m, v = np.zeros_like(q), np.zeros_like(q)
    for step in range(1, cfg.max_steps + 1):
        loss, grad = value_and_grad(q)
        trace.append(float(loss))
        if loss < best - align.IMPROVEMENT_TOL:
            best, best_q, bad = float(loss), q.copy(), 0
        else:
            bad += 1
            if bad >= cfg.patience:
                early = True
                break
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        q = q - cfg.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)
    return best_q, trace, len(trace), early


def _align_trajectory_reference(rep, target, template, q, cfg):
    """Frame by frame with the reference objective and the old epilogue: FK,
    DCD and penalty recomputed at every returned configuration."""
    configs, diags = [], []
    for x_t in rep.frames:
        best_q, trace, steps, early = _minimize_reference(
            _value_and_grad_reference(target, template, x_t, cfg), q, cfg)
        q = np.clip(best_q, target.lower_limits, target.upper_limits)
        x_hat = eval_template(target, template, q)
        final_dcd = dcd(x_t, x_hat, MetricConfig(lam=cfg.metric.lam, epsilon=0.0))
        final_loss = cfg.w1 * dcd(x_t, x_hat, cfg.metric) \
            + cfg.w2 * joint_limit_penalty(q, target)[0]
        configs.append(q)
        diags.append((float(final_loss), float(final_dcd), steps, early, tuple(trace)))
    return np.array(configs), diags


def _diagnostic_tuples(aligned):
    return [(d.final_loss, d.final_dcd, d.steps_used, d.early_stopped, d.loss_trace)
            for d in aligned.diagnostics]


@st.composite
def step_cases(draw):
    """A random chain with revolute, prismatic and fixed joints (optionally a
    fixed-joint prefix), pads in any order (possibly one with no actuated
    ancestor), a source set, and a metric with lam and epsilon possibly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_joints = draw(st.integers(1, 5))
    prefix = draw(st.integers(0, 2))
    links = [LinkSpec("link0", helpers.box_mesh(rng.uniform(0.01, 0.04, size=3)))]
    joints = []
    for k in range(prefix + n_joints):
        kind = "fixed" if k < prefix else str(rng.choice(["revolute", "prismatic", "fixed"]))
        axis, turn = rng.normal(size=3), rng.normal(size=3)
        links.append(LinkSpec(f"link{k + 1}", helpers.box_mesh(rng.uniform(0.01, 0.04, size=3))))
        joints.append(JointSpec(f"q{k}", kind, f"link{k}", f"link{k + 1}",
                                axis=axis / np.linalg.norm(axis),
                                origin_rotation=rotation_about_axis(
                                    turn / np.linalg.norm(turn), rng.uniform(-np.pi, np.pi)),
                                origin_translation=rng.uniform(-0.1, 0.1, size=3),
                                lower=rng.uniform(-1.5, -0.05), upper=rng.uniform(0.05, 1.5)))
    if all(j.kind == "fixed" for j in joints):
        joints[-1] = dataclasses.replace(joints[-1], kind="revolute")
    e = build_embodiment("chain", links, joints)
    names = [link.name for link in links]
    pads = [str(p) for p in rng.choice(names, size=draw(st.integers(1, min(4, len(names)))),
                                       replace=False)]
    if draw(st.booleans()):
        pads.insert(int(rng.integers(0, len(pads) + 1)), "link0")  # no actuated ancestor
    pads = list(dict.fromkeys(pads))
    template = build_template(e, pads, draw(st.integers(1, 12)), seed=int(rng.integers(1 << 30)))
    source = eval_template(e, template, rng.uniform(e.lower_limits, e.upper_limits))
    rows = draw(st.integers(1, 40))
    pick = rng.integers(0, len(source), rows)
    x_t = WorldFuncRep(source.points[pick] + rng.normal(scale=0.01, size=(rows, 3)),
                       source.directions[pick])
    metric = MetricConfig(draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.0, 1e-9])))
    cfg = AlignmentConfig(metric=metric, w1=draw(st.sampled_from([1.0, 0.7])),
                          w2=draw(st.sampled_from([1.0, 3.0])))
    qs = rng.uniform(e.lower_limits - 0.2, e.upper_limits + 0.2, size=(4, e.dof))
    return e, template, x_t, cfg, qs


@settings(max_examples=80, deadline=None)
@given(case=step_cases())
def test_workspace_step_equals_reference(case):
    e, template, x_t, cfg, qs = case
    workspace = align._AlignmentWorkspace(e, template, len(x_t), cfg)
    reference = _value_and_grad_reference(e, template, x_t, cfg)
    # Two source sets in turn: the per-source constants must follow the frame.
    other = WorldFuncRep(x_t.points[::-1] + 0.01, x_t.directions[::-1])
    for frame, q in zip((x_t, other, other, x_t), qs):
        workspace.frame = frame
        loss, grad = workspace.value_and_grad(q)
        want_loss, want_grad = (reference if frame is x_t else
                                _value_and_grad_reference(e, template, frame, cfg))(q)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(want_grad))


def test_align_trajectory_equals_reference_loop(gripper1, hand6):
    source = build_template(gripper1, gripper1.pad_links, 16, seed=1)
    target = build_template(hand6, hand6.pad_links, 16, seed=2)
    rep = template_trajectory(gripper1, source, helpers.pinch_trajectory(12))
    cfg = AlignmentConfig()
    aligned = align_trajectory(rep, hand6, target, None, cfg)
    configs, diags = _align_trajectory_reference(rep, hand6, target,
                                                 hand6.mid_range_configuration(), cfg)
    assert np.array_equal(aligned.configs, configs)
    assert _diagnostic_tuples(aligned) == diags


def test_final_loss_reuses_only_unclamped_frames(gripper1, monkeypatch):
    # A slide asked to go past its lower limit: some frames clamp, others do not.
    template = build_template(gripper1, gripper1.pad_links, 8, seed=3)
    frames = []
    for q, shift in ((-0.02, 0.0), (-0.056, -0.05), (-0.03, 0.0), (-0.056, -0.04)):
        x = eval_template(gripper1, template, np.array([q]))
        frames.append(WorldFuncRep(x.points + np.array([0.0, shift, 0.0]), x.directions))
    rep = FuncRepTrajectory(tuple(frames))
    cfg = AlignmentConfig(w2=0.5)
    evaluations = []
    exact = align.dcd
    monkeypatch.setattr(align, "dcd", lambda *a, **k: evaluations.append(1) or exact(*a, **k))
    aligned = align_trajectory(rep, gripper1, template, np.array([-0.01]), cfg)
    configs, diags = _align_trajectory_reference(rep, gripper1, template, np.array([-0.01]), cfg)
    assert np.array_equal(aligned.configs, configs)
    assert _diagnostic_tuples(aligned) == diags
    clamped = np.sum(aligned.configs[:, 0] == gripper1.lower_limits[0])
    assert 0 < clamped < len(rep)
    assert len(evaluations) == len(rep) + clamped  # the reported DCD, plus a loss if clamped


def test_step_calls_each_traced_layer_once(gripper1, hand6, monkeypatch):
    source = build_template(gripper1, gripper1.pad_links, 8, seed=4)
    target = build_template(hand6, hand6.pad_links, 8, seed=5)
    rep = template_trajectory(gripper1, source, helpers.pinch_trajectory(6))
    calls = {}
    for name in ("dcd_value_and_cotangent", "evaluate_with_pullback", "joint_limit_penalty"):
        original = getattr(align, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.setdefault(_name, []).append((args, result))
            return result

        monkeypatch.setattr(align, name, recorded)
    aligned = align_trajectory(rep, hand6, target, None, AlignmentConfig())
    assert np.all((aligned.configs > hand6.lower_limits) & (aligned.configs < hand6.upper_limits))
    steps = [d.steps_used for d in aligned.diagnostics]
    assert {name: len(made) for name, made in calls.items()} == {
        "dcd_value_and_cotangent": sum(steps), "evaluate_with_pullback": sum(steps),
        "joint_limit_penalty": sum(steps)}
    # What bench/tracing.py reads: the frame being aligned and the template's
    # world set as the DCD kernel's first two arguments, and the pullback as
    # the third result of the FK kernel.
    frames = [frame for frame, n in zip(rep.frames, steps) for _ in range(n)]
    for (args, _), frame in zip(calls["dcd_value_and_cotangent"], frames):
        assert args[0] is frame
        assert len(args[1]) == len(target)
    assert all(callable(result[2]) for _, result in calls["evaluate_with_pullback"])


@pytest.mark.parametrize("settings_", [
    {"step_size": np.nan}, {"step_size": np.inf}, {"w1": np.nan}, {"w2": np.inf},
    {"metric": "lam=nan"}, {"metric": "lam=inf"}, {"metric": "epsilon=inf"},
])
def test_nonfinite_alignment_settings_are_refused(settings_):
    with pytest.raises(ValidationError, match="finite"):
        if "metric" in settings_:
            name, value = settings_["metric"].split("=")
            MetricConfig(**{name: float(value)})
        else:
            AlignmentConfig(**settings_)


def test_eis_world_set_memory_stays_blocked(gripper1, hand6):
    # The bench's augment shape. The two (1000, 192, 3) world sets are 8.8 MiB
    # and the bound pass adds about 3.2 MiB; a gathered rotation per candidate
    # row would add 13 MiB more.
    source = build_template(gripper1, gripper1.pad_links, 64, seed=1)
    target = build_template(hand6, hand6.pad_links, 64, seed=2)
    x_0 = eval_template(gripper1, source, np.array([-0.03]))
    tracemalloc.start()
    try:
        eis_initialize(hand6, target, x_0, samples=1000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20
