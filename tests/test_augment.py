import numpy as np
import pytest

import helpers
from xembody import (AlignmentConfig, AugmentationSchedule, PointCloud, SpatialTransform,
                     ValidationError, align_trajectory, augment_rep_trajectory,
                     augment_scene_cloud, build_template, clipped_growth, grid_transforms,
                     template_trajectory)
from xembody.funcrep import FuncRepTrajectory, WorldFuncRep
from xembody.transforms import rotation_about_axis


def test_growth_at_zero():
    assert clipped_growth(0, 40) == 0.0


def test_growth_saturates_at_knee():
    length = 40
    t = int(0.8 * length)
    assert clipped_growth(t, length, knee=0.8) == 1.0
    assert clipped_growth(length - 1, length) == 1.0


def test_growth_linear_midpoint():
    length = 40
    assert np.isclose(clipped_growth(int(0.4 * length), length, 0.8), 0.5, atol=1e-12)


def test_growth_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        clipped_growth(0, 0)
    with pytest.raises(ValidationError):
        clipped_growth(5, 5)


def test_identity_transform_is_identity(rng):
    frames = tuple(helpers.random_funcrep(rng, 6) for _ in range(10))
    traj = FuncRepTrajectory(frames)
    out = augment_rep_trajectory(traj, SpatialTransform())
    for t in range(10):
        assert np.allclose(out[t].points, traj[t].points, atol=1e-15)
        assert np.allclose(out[t].directions, traj[t].directions, atol=1e-12)


def test_frame_zero_is_bit_exact(rng):
    frames = tuple(helpers.random_funcrep(rng, 5) for _ in range(8))
    traj = FuncRepTrajectory(frames)
    transform = SpatialTransform(rotation_about_axis(np.array([0, 0, 1.0]), 0.4),
                                 np.array([0.08, 0.0, 0.0]))
    out = augment_rep_trajectory(traj, transform)
    assert np.array_equal(out[0].points, traj[0].points)
    assert np.array_equal(out[0].directions, traj[0].directions)


def test_saturated_frames_equal_transformed_copy(rng):
    frames = tuple(helpers.random_funcrep(rng, 5) for _ in range(10))
    traj = FuncRepTrajectory(frames)
    translation = np.array([0.08, 0.0, 0.0])
    out = augment_rep_trajectory(traj, SpatialTransform(np.eye(3), translation))
    for t in range(int(0.8 * 10), 10):
        assert np.abs(out[t].points - (traj[t].points + translation)).max() <= 1e-12
        assert np.array_equal(out[t].directions, traj[t].directions)


def test_mid_schedule_blend_matches_per_point_oracle(rng):
    frames = tuple(helpers.random_funcrep(rng, 7) for _ in range(10))
    traj = FuncRepTrajectory(frames)
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.3)
    trans = np.array([0.05, -0.02, 0.0])
    transform = SpatialTransform(rot, trans)
    schedule = AugmentationSchedule(0.8)
    out = augment_rep_trajectory(traj, transform, schedule)
    t = 3
    g = clipped_growth(t, 10, 0.8)
    assert 0.0 < g < 1.0
    for i in range(7):
        p = traj[t].points[i]
        d = traj[t].directions[i]
        p_expected = p + g * ((rot @ p + trans) - p)
        d_blend = d + g * (rot @ d - d)
        d_expected = d_blend / np.linalg.norm(d_blend)
        assert np.allclose(out[t].points[i], p_expected, atol=1e-12)
        assert np.allclose(out[t].directions[i], d_expected, atol=1e-12)


def test_antiparallel_blend_is_an_error():
    points = np.zeros((1, 3))
    dirs = np.array([[1.0, 0.0, 0.0]])
    frames = tuple(WorldFuncRep(points, dirs) for _ in range(10))
    flip = SpatialTransform(rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi))
    with pytest.raises(ValidationError, match="frame"):
        augment_rep_trajectory(FuncRepTrajectory(frames), flip)


def test_grid_counts_and_extrema():
    anchors = np.zeros((10, 3))
    transforms = grid_transforms(anchors, 10, 0.08)
    assert len(transforms) == 1000
    xs = sorted({t.transform.translation[0] for t in transforms})
    assert xs[0] == -0.08 and xs[-1] == 0.08
    assert all(np.array_equal(t.transform.rotation, np.eye(3)) for t in transforms)


def test_grid_n1_is_anchor_only():
    anchors = np.array([[0.1, 0.2, 0.0], [0.3, -0.1, 0.0]])
    transforms = grid_transforms(anchors, 1, 0.08)
    assert len(transforms) == 2
    for t, anchor in zip(transforms, anchors):
        assert np.array_equal(t.transform.translation, anchor)


def test_scene_cloud_growth_zero_is_identity(rng):
    pc = PointCloud(rng.normal(size=(30, 3)))
    mask = rng.random(30) < 0.5
    transform = SpatialTransform(np.eye(3), np.array([0.1, 0.0, 0.0]))
    out = augment_scene_cloud(pc, mask, transform, 0.0)
    assert np.array_equal(out.points, pc.points)


def test_scene_cloud_full_growth_translates_object_only(rng):
    pc = PointCloud(rng.normal(size=(30, 3)))
    mask = np.zeros(30, dtype=bool)
    mask[:10] = True
    translation = np.array([0.08, 0.0, 0.0])
    out = augment_scene_cloud(pc, mask, SpatialTransform(np.eye(3), translation), 1.0)
    assert np.allclose(out.points[:10], pc.points[:10] + translation, atol=1e-15)
    assert np.array_equal(out.points[10:], pc.points[10:])


def test_scene_cloud_half_growth_rotates_half_angle(rng):
    pc = PointCloud(rng.normal(size=(20, 3)))
    mask = np.ones(20, dtype=bool)
    theta = 0.8
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), theta)
    out = augment_scene_cloud(pc, mask, SpatialTransform(rot), 0.5)
    half = rotation_about_axis(np.array([0.0, 0.0, 1.0]), theta / 2)
    assert np.allclose(out.points, pc.points @ half.T, atol=1e-12)


def test_scene_cloud_mask_length_mismatch(rng):
    pc = PointCloud(rng.normal(size=(5, 3)))
    with pytest.raises(ValidationError):
        augment_scene_cloud(pc, np.ones(4, dtype=bool), SpatialTransform(), 0.5)


def test_augmented_trajectory_feeds_the_aligner(gripper1, hand6):
    source_template = build_template(gripper1, gripper1.pad_links, 8, seed=0)
    target_template = build_template(hand6, hand6.pad_links, 8, seed=0)
    rep = template_trajectory(gripper1, source_template, helpers.pinch_trajectory(6))
    moved = augment_rep_trajectory(rep, SpatialTransform(np.eye(3), np.array([0.03, 0, 0])))
    aligned = align_trajectory(moved, hand6, target_template, cfg=AlignmentConfig())
    assert len(aligned) == 6
    # all variants share frame 0, so the frame-0 solution matches the unaugmented one
    base = align_trajectory(rep, hand6, target_template, cfg=AlignmentConfig())
    assert np.array_equal(aligned.configs[0], base.configs[0])


def test_spatial_transform_validation():
    with pytest.raises(ValidationError):
        SpatialTransform(np.eye(3) * 2.0)
    with pytest.raises(ValidationError):
        SpatialTransform(np.eye(3), np.zeros(2))
    with pytest.raises(ValidationError):
        AugmentationSchedule(0.0)
