import numpy as np
import pytest

import helpers
from xembody import (FunctionalTemplate, ValidationError, build_template, eval_template,
                     sample_surface, template_trajectory)
from xembody.funcrep import _subseed
from xembody.robot import EmbodimentManifest, build_embodiment
from xembody.transforms import rotation_about_axis


def test_standard_count(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 32, seed=0)
    assert len(template) == 64
    assert set(template.link_names) == {"fixed_pad", "moving_pad"}


@pytest.mark.parametrize("pads", [("fixed_pad", "moving_pad"), ("moving_pad", "fixed_pad"),
                                  ("moving_pad",)])
def test_template_is_each_pads_own_surface_stream(gripper1, pads):
    # Pins the template bytes: pad by pad, in the listed order, the draw of
    # `sample_surface` on that pad's mesh with the `_subseed(seed, pad)` stream.
    template = build_template(gripper1, pads, 24, 5)
    points, normals, names = [], [], []
    for pad in pads:
        rng = np.random.default_rng(_subseed(5, pad))
        p, n, _ = sample_surface(gripper1.link(pad).mesh, 24, rng)
        points.append(p)
        normals.append(n)
        names += [pad] * 24
    assert template.link_names == tuple(names)
    assert np.array_equal(template.points, np.concatenate(points))
    assert np.array_equal(template.normals, np.concatenate(normals))


def test_empty_pad_list_is_an_error(gripper1):
    with pytest.raises(ValidationError):
        build_template(gripper1, (), 8, seed=0)


def test_eval_template_at_origin():
    links = [helpers.LinkSpec("base", helpers.box_mesh((0.1, 0.1, 0.1)))]
    e = build_embodiment("solo", links, [], EmbodimentManifest(pad_links=("base",)))
    template = FunctionalTemplate(("base",), np.array([[0.0, 0.0, 0.0]]),
                                  np.array([[0.0, 0.0, 1.0]]))
    rep = eval_template(e, template, np.zeros(0))
    assert np.allclose(rep.points, [[0, 0, 0]], atol=1e-15)


def test_base_rotation_equivariance(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 16, seed=2)
    q = np.array([-0.02])
    rep = eval_template(gripper1, template, q)

    rz = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi)
    manifest = EmbodimentManifest(
        arm_joints=(), ee_joints=("slide",), pad_links=gripper1.pad_links,
        base_rotation=rz,
    )
    rotated = build_embodiment("rot", list(gripper1.links), list(gripper1.joints), manifest)
    rep_rot = eval_template(rotated, template, q)
    assert np.allclose(rep_rot.points[:, :2], -rep.points[:, :2], atol=1e-9)
    assert np.allclose(rep_rot.points[:, 2], rep.points[:, 2], atol=1e-9)
    assert np.allclose(rep_rot.directions[:, :2], -rep.directions[:, :2], atol=1e-9)


def test_general_rigid_equivariance(gripper1, rng):
    template = build_template(gripper1, gripper1.pad_links, 16, seed=8)
    q = np.array([-0.03])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))
    trans = rng.normal(size=3)

    manifest = EmbodimentManifest(
        arm_joints=(), ee_joints=("slide",), pad_links=gripper1.pad_links,
        base_rotation=rot, base_translation=trans,
    )
    moved_e = build_embodiment("moved", list(gripper1.links), list(gripper1.joints), manifest)
    before = eval_template(gripper1, template, q)
    after = eval_template(moved_e, template, q)
    assert np.allclose(after.points, before.points @ rot.T + trans, atol=1e-9)
    assert np.allclose(after.directions, before.directions @ rot.T, atol=1e-9)


def test_trajectory_matches_per_frame_eval(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=3)
    traj = helpers.pinch_trajectory(12)
    rep = template_trajectory(gripper1, template, traj)
    assert len(rep) == 12
    for t in range(12):
        frame = eval_template(gripper1, template, traj[t])
        assert np.array_equal(rep[t].points, frame.points)
        assert np.array_equal(rep[t].directions, frame.directions)


def test_constant_trajectory_frames_identical(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=4)
    rep = template_trajectory(gripper1, template, np.full((5, 1), -0.01))
    for t in range(1, 5):
        assert np.array_equal(rep[t].points, rep[0].points)


def test_single_frame_trajectory(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=5)
    rep = template_trajectory(gripper1, template, np.zeros((1, 1)))
    assert len(rep) == 1


def test_empty_trajectory_is_an_error(gripper1):
    template = build_template(gripper1, gripper1.pad_links, 8, seed=6)
    with pytest.raises(ValidationError):
        template_trajectory(gripper1, template, np.zeros((0, 1)))


def test_template_validation():
    with pytest.raises(ValidationError):
        FunctionalTemplate(("a",), np.zeros((1, 3)), np.array([[0.0, 0.0, 0.5]]))  # non-unit
    with pytest.raises(ValidationError):
        FunctionalTemplate((), np.zeros((0, 3)), np.zeros((0, 3)))  # empty
