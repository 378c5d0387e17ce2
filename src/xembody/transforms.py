"""Rigid-transform helpers on plain numpy arrays.

A rigid transform is carried as a pair ``(R, t)`` with ``R`` a (3, 3) rotation
matrix and ``t`` a (3,) translation, both float64. World-frame conventions:
``x_world = R @ x_local + t``.
"""

from __future__ import annotations

import numpy as np


def rotation_about_axis(axis: np.ndarray, angle) -> np.ndarray:
    """Right-handed rotation of `angle` about a unit `axis`.

    `angle` may have any shape (...); the result is (..., 3, 3), each matrix
    C-contiguous and bit-equal to the call on that angle alone.
    """
    x, y, z = axis
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    m = np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    )
    if m.ndim > 2:  # (3, 3, ...) -> (..., 3, 3), one C-contiguous matrix per angle
        m = np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))
    return m


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis XYZ roll/pitch/yaw rotation (URDF convention): Rz(yaw)Ry(pitch)Rx(roll)."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def apply_to_points(r: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a rigid transform to an (N, 3) array of points."""
    return points @ r.T + t


def apply_to_directions(r: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Rotate an (N, 3) array of direction vectors (translation does not apply)."""
    return directions @ r.T


def homogeneous(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pack (R, t) into a 4x4 homogeneous matrix."""
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    return m


def axis_angle_of(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Recover (unit axis, angle in [0, pi]) from a rotation matrix.

    The axis is arbitrary (x) for the identity rotation.
    """
    cos_angle = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0]), 0.0
    if np.pi - angle < 1e-6:
        # Near pi the off-diagonal extraction degenerates; use the symmetric part.
        m = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diagonal(m), 0.0, None))
        # Fix signs from the largest component.
        k = int(np.argmax(axis))
        signs = np.sign(m[k])
        signs[signs == 0] = 1.0
        axis = axis * signs / np.sign(axis[k] if axis[k] != 0 else 1.0)
        return axis / np.linalg.norm(axis), angle
    axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return axis / (2.0 * np.sin(angle)), angle


def scale_rotation(r: np.ndarray, factor: float) -> np.ndarray:
    """Rotation about the same axis with the angle scaled by `factor` (geodesic)."""
    axis, angle = axis_angle_of(r)
    return rotation_about_axis(axis, factor * angle)


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when r is orthonormal with determinant +1, both within `tol`."""
    r = np.asarray(r)
    if r.shape != (3, 3):
        return False
    return bool(
        np.allclose(r.T @ r, np.eye(3), atol=tol) and abs(np.linalg.det(r) - 1.0) <= tol
    )
