"""Spatial augmentation: one demonstration fanned out over a transform grid.

A rigid transform T displaces the object (and hence the contact trajectory).
Each frame blends the source representation toward its transformed copy with a
clipped linear growth g(t) = min(t / (knee * L), 1): every variant shares the
original initial state and reaches the fully transformed terminal state.
Scene clouds interpolate rigidly (rotation angle scaled by g) so objects stay
rigid at intermediate growth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .funcrep import FuncRepTrajectory, WorldFuncRep
from .synth import PointCloud
from . import transforms as tf


@dataclass(frozen=True, eq=False)
class SpatialTransform:
    """A proper rigid transform: x -> R x + t."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if not tf.is_rotation(rotation):
            raise ValidationError("spatial transform rotation must be orthonormal, det +1")
        if translation.shape != (3,):
            raise ValidationError(f"translation must be a 3-vector, got {translation.shape}")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def apply(self, rep: WorldFuncRep) -> WorldFuncRep:
        return WorldFuncRep(
            tf.apply_to_points(self.rotation, self.translation, rep.points),
            tf.apply_to_directions(self.rotation, rep.directions),
        )

    def partial(self, growth: float) -> "SpatialTransform":
        """Geodesic interpolation from identity: angle and translation scaled."""
        return SpatialTransform(tf.scale_rotation(self.rotation, growth),
                                growth * self.translation)


@dataclass(frozen=True)
class AnchoredTransform:
    """A grid transform with its provenance (anchor and grid cell)."""

    transform: SpatialTransform
    anchor_index: int
    grid_i: int
    grid_j: int


@dataclass(frozen=True)
class AugmentationSchedule:
    """Growth schedule; the knee is the fraction of frames where growth saturates."""

    knee: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.knee <= 1.0:
            raise ValidationError(f"growth knee must be in (0, 1], got {self.knee}")


def clipped_growth(t: int, length: int, knee: float = 0.8) -> float:
    """min(t / (knee * length), 1) with growth 0 at frame 0."""
    if length == 0:
        raise ValidationError("trajectory length must be positive")
    if not 0 <= t < length:
        raise ValidationError(f"frame index {t} out of range for length {length}")
    return min(t / (knee * length), 1.0)


def augment_rep_trajectory(traj: FuncRepTrajectory, transform: SpatialTransform,
                           schedule: AugmentationSchedule | None = None) -> FuncRepTrajectory:
    """Blend each frame toward its transformed copy by the growth schedule.

    Points blend linearly; directions blend then renormalize. Frame 0 is the
    input bit-for-bit, saturated frames equal the transformed copy exactly. A
    near-zero blended direction (anti-parallel pair at mid growth) is an error.
    """
    schedule = schedule or AugmentationSchedule()
    length = len(traj)
    frames = []
    for t, frame in enumerate(traj.frames):
        g = clipped_growth(t, length, schedule.knee)
        if g == 0.0:
            frames.append(WorldFuncRep(frame.points.copy(), frame.directions.copy()))
            continue
        moved = transform.apply(frame)
        if g == 1.0:
            frames.append(moved)
            continue
        points = frame.points + g * (moved.points - frame.points)
        directions = frame.directions + g * (moved.directions - frame.directions)
        norms = np.linalg.norm(directions, axis=1)
        if np.any(norms < 1e-8):
            raise ValidationError(
                f"degenerate blended direction at frame {t}: transform flips a "
                "direction nearly anti-parallel at this growth"
            )
        frames.append(WorldFuncRep(points, directions / norms[:, None]))
    return FuncRepTrajectory(tuple(frames))


def grid_transforms(anchors, n: int, extent: float) -> list[AnchoredTransform]:
    """Pure-translation transforms on an n x n tabletop grid around each anchor.

    Anchors are displacements relative to the demo's original object position
    (the zero vector reproduces it). Grid offsets span [-extent, +extent] in x
    and y exactly; n = 1 uses offset zero.
    """
    if n < 1:
        raise ValidationError(f"grid side must be at least 1, got {n}")
    if extent <= 0:
        raise ValidationError(f"grid extent must be positive, got {extent}")
    offsets = np.array([0.0]) if n == 1 else np.linspace(-extent, extent, n)
    out: list[AnchoredTransform] = []
    for a, anchor in enumerate(np.asarray(anchors, dtype=float).reshape(-1, 3)):
        for i, dx in enumerate(offsets):
            for j, dy in enumerate(offsets):
                translation = anchor + np.array([dx, dy, 0.0])
                out.append(AnchoredTransform(SpatialTransform(np.eye(3), translation), a, i, j))
    return out


def augment_scene_cloud(pc: PointCloud, object_mask: np.ndarray,
                        transform: SpatialTransform, growth: float) -> PointCloud:
    """Move the masked (object) points by the growth-interpolated transform."""
    object_mask = np.asarray(object_mask, dtype=bool)
    if object_mask.shape != (len(pc),):
        raise ValidationError(
            f"object mask length {object_mask.shape} does not match cloud size {len(pc)}"
        )
    if growth == 0.0 or not np.any(object_mask):
        return PointCloud(pc.points.copy(), None if pc.tags is None else pc.tags.copy())
    partial = transform if growth == 1.0 else transform.partial(growth)
    points = pc.points.copy()
    points[object_mask] = tf.apply_to_points(partial.rotation, partial.translation,
                                             points[object_mask])
    return PointCloud(points, None if pc.tags is None else pc.tags.copy())


def save_transforms(transforms: list[AnchoredTransform], path) -> None:
    """Serialize a transform list (rotation as wxyz quaternion)."""
    doc = [
        {
            "anchor": t.anchor_index,
            "grid": [t.grid_i, t.grid_j],
            "quaternion": [float(v) for v in tf.quaternion_from_matrix(t.transform.rotation)],
            "translation": [float(v) for v in t.transform.translation],
        }
        for t in transforms
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_transforms(path) -> list[AnchoredTransform]:
    with open(path) as fh:
        doc = json.load(fh)
    return [
        AnchoredTransform(
            SpatialTransform(tf.matrix_from_quaternion(np.asarray(item["quaternion"])),
                             np.asarray(item["translation"], dtype=float)),
            item["anchor"], item["grid"][0], item["grid"][1],
        )
        for item in doc
    ]
