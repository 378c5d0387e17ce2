"""Point-direction contact templates and their world-frame trajectories.

A template samples point/normal pairs from an embodiment's finger-pad surfaces
in link-local coordinates. Evaluating it through forward kinematics yields the
world-frame set used by the matching metric; doing so for every frame of a
joint trajectory yields the trajectory the optimizer aligns against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kinematics import evaluate_world_set
from .mesh import sample_surface
from .robot import Embodiment


@dataclass(frozen=True, eq=False)
class FunctionalTemplate:
    """Link-local point/normal pairs, one link name per entry."""

    link_names: tuple[str, ...]  # one per entry
    points: np.ndarray  # (N, 3) link-local, meters
    normals: np.ndarray  # (N, 3) unit

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        normals = np.asarray(self.normals, dtype=float)
        if len(self.link_names) != len(points) or points.shape != normals.shape:
            raise ValidationError("template entries must align: link ids, points, normals")
        if len(points) < 1:
            raise ValidationError("template must contain at least one entry")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValidationError("template normals must be unit length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "normals", normals)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class WorldFuncRep:
    """A world-frame point-direction set."""

    points: np.ndarray  # (N, 3)
    directions: np.ndarray  # (N, 3) unit

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        directions = np.asarray(self.directions, dtype=float)
        if points.shape != directions.shape or points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(
                f"points {points.shape} and directions {directions.shape} must both be (N, 3)"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "directions", directions)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class FuncRepTrajectory:
    """A per-frame sequence of world-frame representations with shared N."""

    frames: tuple[WorldFuncRep, ...]

    def __post_init__(self):
        if len(self.frames) < 1:
            raise ValidationError("trajectory must contain at least one frame")
        n = len(self.frames[0])
        if any(len(f) != n for f in self.frames):
            raise ValidationError("all trajectory frames must share the same set size")
        object.__setattr__(self, "frames", tuple(self.frames))

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, t: int) -> WorldFuncRep:
        return self.frames[t]


def build_template(e: Embodiment, pad_links, count_per_link: int,
                   seed: int) -> FunctionalTemplate:
    """Sample `count_per_link` area-weighted point/normal pairs from each pad link.

    Each pad draws from its own stream, `_subseed(seed, pad)`, so a pad's
    samples do not depend on which other pads are listed.
    """
    pad_links = tuple(pad_links)
    if not pad_links:
        raise ValidationError("at least one pad link is required")
    names: list[str] = []
    points: list[np.ndarray] = []
    normals: list[np.ndarray] = []
    for pad in pad_links:
        mesh = e.link(pad).mesh
        if mesh is None:
            raise ValidationError(f"link {pad!r} has no geometry to sample")
        rng = np.random.default_rng(_subseed(seed, pad))
        p, n, _ = sample_surface(mesh, count_per_link, rng)
        names.extend([pad] * len(p))
        points.append(p)
        normals.append(n)
    return FunctionalTemplate(tuple(names), np.concatenate(points), np.concatenate(normals))


def _subseed(seed: int, role: str) -> int:
    # One stable stream per named role (a pad link, a synthesis stage, a frame),
    # independent of how many other streams were drawn before it.
    digest = hashlib.blake2b(f"{seed}:{role}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def eval_template(e: Embodiment, template: FunctionalTemplate, q: np.ndarray) -> WorldFuncRep:
    """Evaluate a template at one joint configuration."""
    pts, dirs = evaluate_world_set(e, q, template.link_names, template.points, template.normals)
    return WorldFuncRep(pts, dirs)


def template_trajectory(e: Embodiment, template: FunctionalTemplate,
                        trajectory: np.ndarray) -> FuncRepTrajectory:
    """Evaluate a template along a (L, dof) joint trajectory."""
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 2 or trajectory.shape[0] < 1:
        raise ValidationError(f"trajectory must be a non-empty (L, dof) array, got {trajectory.shape}")
    pts, dirs = evaluate_world_set(e, trajectory, template.link_names, template.points,
                                   template.normals)
    return FuncRepTrajectory(tuple(map(WorldFuncRep, pts, dirs)))
