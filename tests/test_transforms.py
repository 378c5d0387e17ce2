import numpy as np
import pytest

from xembody import transforms as tf


def test_rotation_about_axis_quarter_turn():
    r = tf.rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    assert tf.is_rotation(r)


def test_rotation_about_axis_over_an_angle_array_matches_scalar_calls():
    rng = np.random.default_rng(7)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angles = rng.uniform(-np.pi, np.pi, size=(4, 5))
    r = tf.rotation_about_axis(axis, angles)
    assert r.shape == (4, 5, 3, 3) and r.flags.c_contiguous
    for i, j in np.ndindex(angles.shape):
        assert np.array_equal(r[i, j], tf.rotation_about_axis(axis, angles[i, j]))
    assert tf.rotation_about_axis(axis, angles[0, :1]).shape == (1, 3, 3)


def test_rpy_matches_composed_elementary_rotations():
    roll, pitch, yaw = 0.3, -0.7, 1.1
    rx = tf.rotation_about_axis(np.array([1.0, 0, 0]), roll)
    ry = tf.rotation_about_axis(np.array([0, 1.0, 0]), pitch)
    rz = tf.rotation_about_axis(np.array([0, 0, 1.0]), yaw)
    assert np.allclose(tf.rpy_matrix(roll, pitch, yaw), rz @ ry @ rx, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_axis_angle_round_trip(seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.01, np.pi - 0.01)
    r = tf.rotation_about_axis(axis, angle)
    got_axis, got_angle = tf.axis_angle_of(r)
    assert np.isclose(got_angle, angle, atol=1e-9)
    assert np.allclose(got_axis, axis, atol=1e-7)


def test_axis_angle_identity_and_half_turn():
    axis, angle = tf.axis_angle_of(np.eye(3))
    assert angle == 0.0
    r = tf.rotation_about_axis(np.array([0, 1.0, 0]), np.pi)
    got_axis, got_angle = tf.axis_angle_of(r)
    assert np.isclose(got_angle, np.pi, atol=1e-9)
    assert np.allclose(np.abs(got_axis), [0, 1, 0], atol=1e-6)


def test_scale_rotation_halves_the_angle():
    axis = np.array([0.0, 0.0, 1.0])
    r = tf.rotation_about_axis(axis, 0.8)
    assert np.allclose(tf.scale_rotation(r, 0.5), tf.rotation_about_axis(axis, 0.4), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_quaternion_round_trip(seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    r = tf.rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))
    q = tf.quaternion_from_matrix(r)
    assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-12)
    assert np.allclose(tf.matrix_from_quaternion(q), r, atol=1e-9)


def test_compose_matches_homogeneous_product():
    rng = np.random.default_rng(3)
    ra = tf.rotation_about_axis(np.array([1.0, 0, 0]), 0.4)
    rb = tf.rotation_about_axis(np.array([0, 1.0, 0]), -0.9)
    ta, tb = rng.normal(size=3), rng.normal(size=3)
    rc, tc = tf.compose(ra, ta, rb, tb)
    assert np.allclose(tf.homogeneous(rc, tc),
                       tf.homogeneous(ra, ta) @ tf.homogeneous(rb, tb), atol=1e-12)
