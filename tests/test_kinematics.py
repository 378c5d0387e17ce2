from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from xembody import (FunctionalTemplate, ValidationError, eval_template, evaluate_world_set,
                     forward_kinematics, template_trajectory)
from xembody import kinematics
from xembody.kinematics import _fk_frames, _PullbackWorkspace, evaluate_with_pullback
from xembody.robot import EmbodimentManifest, JointSpec, LinkSpec, build_embodiment
from xembody.transforms import homogeneous, rotation_about_axis

oracle_link_poses = helpers.oracle_link_poses


def _axis_rotation_reference(axis, angle):
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    t = 1.0 - c
    return np.array([[t * x * x + c, t * x * y - s * z, t * x * z + s * y],
                     [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
                     [t * x * z - s * y, t * y * z + s * x, t * z * z + c]])


def _fk_frames_reference(e, q):
    """The one-configuration FK walk before batching: 3x3 `@`, one link at a time."""
    link_index = {l.name: i for i, l in enumerate(e.links)}
    joints = {j.name: j for j in e.joints}
    dof_index = {j.name: d for d, j in enumerate(e.actuated_joints)}
    rot = np.empty((len(e.links), 3, 3))
    trans = np.empty((len(e.links), 3))
    axis_world = np.zeros((e.dof, 3))
    pivot_world = np.zeros((e.dof, 3))
    for i, link in enumerate(e.links):
        if link.parent_joint is None:
            rot[i], trans[i] = e.base_rotation, e.base_translation
            continue
        j = joints[link.parent_joint]
        p = link_index[j.parent_link]
        pre_rot = rot[p] @ j.origin_rotation
        pre_trans = rot[p] @ j.origin_translation + trans[p]
        rot[i], trans[i] = pre_rot, pre_trans
        if j.kind == "fixed":
            continue
        d = dof_index[j.name]
        a = pre_rot @ j.axis
        axis_world[d], pivot_world[d] = a, pre_trans
        if j.kind == "revolute":
            rot[i] = pre_rot @ _axis_rotation_reference(j.axis, q[d])
        else:
            trans[i] = pre_trans + q[d] * a
    return rot, trans, axis_world, pivot_world


def test_straight_chain_tip(planar2):
    poses = forward_kinematics(planar2, np.zeros(2))
    assert np.allclose(poses.translations[planar2.link_index("tip")], [2, 0, 0], atol=1e-12)


def test_quarter_turn_tip(planar2):
    poses = forward_kinematics(planar2, np.array([np.pi / 2, 0.0]))
    assert np.allclose(poses.translations[planar2.link_index("tip")], [0, 2, 0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_fk_matches_homogeneous_oracle(seed):
    rng = np.random.default_rng(seed)
    e = helpers.random_chain(rng, int(rng.integers(1, 9)))
    q = helpers.random_config(rng, e)
    poses = forward_kinematics(e, q)
    oracle = oracle_link_poses(e, q)
    for i, link in enumerate(e.links):
        m = oracle[link.name]
        assert np.allclose(poses.rotations[i], m[:3, :3], atol=1e-12)
        assert np.allclose(poses.translations[i], m[:3, 3], atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_rotations_stay_orthonormal(seed):
    rng = np.random.default_rng(100 + seed)
    e = helpers.random_chain(rng, 8)
    poses = forward_kinematics(e, helpers.random_config(rng, e))
    for r in poses.rotations:
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-9)


def test_child_pose_composes_from_parent():
    rng = np.random.default_rng(17)
    e = helpers.random_chain(rng, 6)
    q = helpers.random_config(rng, e)
    poses = forward_kinematics(e, q)
    dof_index = {j.name: i for i, j in enumerate(e.actuated_joints)}
    for i, link in enumerate(e.links):
        if link.parent_joint is None:
            continue
        j = next(jj for jj in e.joints if jj.name == link.parent_joint)
        p = e.link_index(j.parent_link)
        m = homogeneous(poses.rotations[p], poses.translations[p]) \
            @ homogeneous(j.origin_rotation, j.origin_translation)
        if j.kind == "revolute":
            m = m @ homogeneous(rotation_about_axis(j.axis, q[dof_index[j.name]]), np.zeros(3))
        elif j.kind == "prismatic":
            m = m @ homogeneous(np.eye(3), q[dof_index[j.name]] * j.axis)
        assert np.allclose(poses.rotations[i], m[:3, :3], atol=1e-12)
        assert np.allclose(poses.translations[i], m[:3, 3], atol=1e-12)


def test_base_transform_applies_to_every_link():
    links = [LinkSpec("base"), LinkSpec("a", None, None)]
    joints = [JointSpec("j", "revolute", "base", "a", axis=(0, 0, 1), lower=-1, upper=1,
                        origin_translation=(1, 0, 0))]
    manifest = EmbodimentManifest(base_translation=np.array([1.0, 2.0, 3.0]))
    e = build_embodiment("based", links, joints, manifest)
    poses = forward_kinematics(e, np.zeros(1))
    assert np.allclose(poses.translations[0], [1, 2, 3], atol=1e-12)
    assert np.allclose(poses.translations[1], [2, 2, 3], atol=1e-12)


def test_dimension_mismatch_raises(planar2):
    with pytest.raises(ValidationError):
        forward_kinematics(planar2, np.zeros(3))
    with pytest.raises(ValidationError):
        forward_kinematics(planar2, np.array([np.nan, 0.0]))


def test_batch_fk_matches_single(planar2):
    rng = np.random.default_rng(2)
    qs = rng.uniform(-1, 1, size=(16, 2))
    ids = [1, 2, 2]
    pts = rng.normal(size=(3, 3))
    nrm = rng.normal(size=(3, 3))
    points, dirs = evaluate_world_set(planar2, qs, ids, pts, nrm)
    for b in range(len(qs)):
        single_points, single_dirs = evaluate_world_set(planar2, qs[b], ids, pts, nrm)
        assert np.array_equal(points[b], single_points)
        assert np.array_equal(dirs[b], single_dirs)


def _batch_world_set(e, qs):
    return evaluate_world_set(e, qs, [0], np.zeros((1, 3)), np.zeros((1, 3)))


def test_batch_fk_rejects_bad_configurations(hand6):
    with pytest.raises(ValidationError, match="non-finite"):
        _batch_world_set(hand6, np.full((2, 6), np.nan))
    with pytest.raises(ValidationError, match="non-finite"):
        _batch_world_set(hand6, np.array([np.zeros(6), [0, 0, np.inf, 0, 0, 0]]))
    for shape in ((5,), (2, 5), (2, 2, 6)):
        with pytest.raises(ValidationError, match="does not match dof"):
            _batch_world_set(hand6, np.zeros(shape))


def test_batch_world_set_needs_one_link_id_per_point(hand6):
    with pytest.raises(ValidationError, match="one link id is required per point"):
        evaluate_world_set(hand6, np.zeros((2, 6)), ["palm"], np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="non-finite"):
        evaluate_world_set(hand6, np.full((2, 6), np.nan), ["palm"], np.zeros((1, 3)),
                           np.zeros((1, 3)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_joints=st.integers(1, 8), batch=st.integers(1, 8))
def test_fk_walk_is_batch_independent(seed, n_joints, batch):
    # Random chains mix fixed, prismatic and revolute joints with rotated origins.
    rng = np.random.default_rng(seed)
    e = helpers.random_chain(rng, n_joints)
    qs = rng.uniform(e.lower_limits, e.upper_limits, size=(batch, e.dof))
    batched = _fk_frames(e, qs)
    for b in range(batch):
        single = _fk_frames(e, qs[b])
        for got, want in zip(single, _fk_frames_reference(e, qs[b])):
            assert np.array_equal(got, want)
        for rows, want in zip(batched, single):
            assert np.array_equal(rows[b], want)
    for got, want in zip(_fk_frames(e, qs[None]), batched):  # (..., dof): any batch shape
        assert np.array_equal(got[0], want)

    n = 9
    ids = rng.integers(0, len(e.links), n)
    points = rng.normal(size=(n, 3)) * 0.2
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    world_points, world_dirs = evaluate_world_set(e, qs, ids, points, normals)
    for rows in (n, 2 * n + 1):  # blocks of one configuration, and of two plus a remainder
        with mock.patch.object(kinematics, "_WORLD_SET_ROWS", rows):
            blocked = evaluate_world_set(e, qs, ids, points, normals)
        assert np.array_equal(blocked[0], world_points)
        assert np.array_equal(blocked[1], world_dirs)
    template = FunctionalTemplate(tuple(e.links[i].name for i in ids), points, normals)
    trajectory = template_trajectory(e, template, qs)
    for b in range(batch):
        one_points, one_dirs = evaluate_world_set(e, qs[b], ids, points, normals)
        assert np.array_equal(world_points[b], one_points)
        assert np.array_equal(world_dirs[b], one_dirs)
        frame = eval_template(e, template, qs[b])
        assert np.array_equal(trajectory[b].points, frame.points)
        assert np.array_equal(trajectory[b].directions, frame.directions)


def test_evaluate_world_set_identity_and_translation(planar2):
    pts = np.array([[0.1, 0.2, 0.0], [0.0, 0.0, 0.0]])
    nrm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    world_p, world_n = evaluate_world_set(planar2, np.zeros(2), ["base", "base"], pts, nrm)
    assert np.allclose(world_p, pts, atol=1e-15) and np.allclose(world_n, nrm, atol=1e-15)

    links = [LinkSpec("base")]
    manifest = EmbodimentManifest(base_translation=np.array([1.0, 2.0, 3.0]))
    e = build_embodiment("shift", links, [], manifest)
    world_p, world_n = evaluate_world_set(e, np.zeros(0), ["base", "base"], pts, nrm)
    assert np.allclose(world_p, pts + [1, 2, 3], atol=1e-15)
    assert np.allclose(world_n, nrm, atol=1e-15)  # directions ignore translation


def test_evaluate_world_set_matches_matrix_oracle():
    rng = np.random.default_rng(23)
    e = helpers.random_chain(rng, 6)
    q = helpers.random_config(rng, e)
    n = 11
    ids = rng.integers(0, len(e.links), n)
    pts = rng.normal(size=(n, 3)) * 0.3
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    world_p, world_n = evaluate_world_set(e, q, ids, pts, nrm)
    oracle = oracle_link_poses(e, q)
    for k in range(n):
        m = oracle[e.links[ids[k]].name]
        assert np.allclose(world_p[k], m[:3, :3] @ pts[k] + m[:3, 3], atol=1e-12)
        assert np.allclose(world_n[k], m[:3, :3] @ nrm[k], atol=1e-12)
        assert np.isclose(np.linalg.norm(world_n[k]), 1.0, atol=1e-9)


def test_unknown_link_id_raises(planar2):
    with pytest.raises(ValidationError):
        evaluate_world_set(planar2, np.zeros(2), ["nope"], np.zeros((1, 3)), np.zeros((1, 3)))


def _pullback(e, q, link_ids, points, normals, d_points, d_normals):
    """dL/dq from world-frame cotangents, through the closure alignment runs."""
    _, _, pullback = evaluate_with_pullback(_PullbackWorkspace(e, link_ids, points, normals), q)
    return pullback(d_points, d_normals)


def test_pullback_zero_cotangent_is_zero(planar2):
    g = _pullback(planar2, np.array([0.3, -0.2]), ["link2"],
                           np.array([[0.5, 0, 0]]), np.array([[0, 0, 1.0]]),
                           np.zeros((1, 3)), np.zeros((1, 3)))
    assert np.array_equal(g, np.zeros(2))


def test_pullback_lever_arm_identity():
    # Single revolute joint, a point at radius r, cotangent tangent to its circle.
    links = [LinkSpec("base"), LinkSpec("a", None, None)]
    joints = [JointSpec("j", "revolute", "base", "a", axis=(0, 0, 1), lower=-np.pi, upper=np.pi)]
    e = build_embodiment("lever", links, joints)
    r = 0.73
    q = np.array([0.4])
    world_p, _ = evaluate_world_set(e, q, ["a"], np.array([[r, 0, 0]]), np.array([[0, 0, 1.0]]))
    tangent = np.cross([0, 0, 1.0], world_p[0])
    tangent /= np.linalg.norm(tangent)
    g = _pullback(e, q, ["a"], np.array([[r, 0, 0]]), np.array([[0, 0, 1.0]]),
                           tangent[None, :], np.zeros((1, 3)))
    assert np.isclose(abs(g[0]), r, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_pullback_matches_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    e = helpers.random_chain(rng, int(rng.integers(2, 9)))
    q = helpers.random_config(rng, e)
    n = 6
    ids = rng.integers(0, len(e.links), n)
    pts = rng.normal(size=(n, 3)) * 0.2
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    cp = rng.normal(size=(n, 3))
    cn = rng.normal(size=(n, 3))
    grad = _pullback(e, q, ids, pts, nrm, cp, cn)

    def scalar(qv):
        wp, wn = evaluate_world_set(e, qv, ids, pts, nrm)
        return float(np.sum(cp * wp) + np.sum(cn * wn))

    h = 1e-6
    fd = np.array([
        (scalar(q + h * np.eye(e.dof)[d]) - scalar(q - h * np.eye(e.dof)[d])) / (2 * h)
        for d in range(e.dof)
    ])
    scale = max(np.abs(fd).max(), 1e-9)
    assert np.abs(grad - fd).max() / scale <= 1e-5

