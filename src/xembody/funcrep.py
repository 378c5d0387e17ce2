"""Point-direction contact templates and their world-frame trajectories.

A template samples point/normal pairs from an embodiment's finger-pad surfaces
in link-local coordinates. Evaluating it through forward kinematics yields the
world-frame set used by the matching metric; doing so for every frame of a
joint trajectory yields the trajectory the optimizer aligns against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kinematics import evaluate_world_set
from .robot import Embodiment, sample_link_surface

VARIANTS = ("standard", "reduced", "random-dropped")


@dataclass(frozen=True, eq=False)
class FunctionalTemplate:
    """Link-local point/normal pairs plus their sampling provenance."""

    link_names: tuple[str, ...]  # one per entry
    points: np.ndarray  # (N, 3) link-local, meters
    normals: np.ndarray  # (N, 3) unit
    variant: str = "standard"
    pad_links: tuple[str, ...] = ()
    count_per_link: int = 0
    seed: int = 0

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "link_ids": list(self.link_names),
                "points": [[float(v) for v in row] for row in self.points],
                "normals": [[float(v) for v in row] for row in self.normals],
                "variant": self.variant,
                "source": {
                    "pad_links": list(self.pad_links),
                    "count_per_link": self.count_per_link,
                    "seed": self.seed,
                },
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FunctionalTemplate":
        doc = json.loads(text)
        source = doc.get("source", {})
        return FunctionalTemplate(
            link_names=tuple(doc["link_ids"]),
            points=np.asarray(doc["points"], dtype=float),
            normals=np.asarray(doc["normals"], dtype=float),
            variant=doc.get("variant", "standard"),
            pad_links=tuple(source.get("pad_links", ())),
            count_per_link=int(source.get("count_per_link", 0)),
            seed=int(source.get("seed", 0)),
        )


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


def build_template(
    e: Embodiment,
    pad_links,
    count_per_link: int,
    seed: int,
    variant: str = "standard",
    reduced_radius: float | None = None,
    drop_fraction: float = 0.5,
) -> FunctionalTemplate:
    """Sample a functional template from the given finger-pad links.

    Variants: "standard" keeps the full area-weighted sample; "reduced" keeps
    only points within `reduced_radius` of each pad's area centroid;
    "random-dropped" removes a seeded random `drop_fraction` of the standard
    entries. Reduced and random-dropped sets are subsets of the standard set
    built with the same seed.
    """
    pad_links = tuple(pad_links)
    if not pad_links:
        raise ValidationError("at least one pad link is required")
    if variant not in VARIANTS:
        raise ValidationError(f"unknown template variant {variant!r} (one of {VARIANTS})")
    if variant == "reduced" and (reduced_radius is None or reduced_radius <= 0):
        raise ValidationError("the reduced variant needs a positive reduced_radius")

    names: list[str] = []
    points: list[np.ndarray] = []
    normals: list[np.ndarray] = []
    for link_name in pad_links:
        p, n = sample_link_surface(e, link_name, count_per_link, _subseed(seed, link_name))
        if variant == "reduced":
            centroid = e.link(link_name).mesh.area_centroid()
            keep = np.linalg.norm(p - centroid, axis=1) <= reduced_radius
            p, n = p[keep], n[keep]
        names.extend([link_name] * len(p))
        points.append(p)
        normals.append(n)
    all_points = np.concatenate(points)
    all_normals = np.concatenate(normals)

    if variant == "random-dropped":
        rng = np.random.default_rng(seed)
        keep_count = len(all_points) - int(round(drop_fraction * len(all_points)))
        if keep_count < 1:
            raise ValidationError("drop fraction leaves no template entries")
        keep = np.sort(rng.choice(len(all_points), size=keep_count, replace=False))
        names = [names[i] for i in keep]
        all_points = all_points[keep]
        all_normals = all_normals[keep]
    elif len(all_points) < 1:
        raise ValidationError("reduced radius excluded every sampled point")

    return FunctionalTemplate(
        link_names=tuple(names),
        points=all_points,
        normals=all_normals,
        variant=variant,
        pad_links=pad_links,
        count_per_link=count_per_link,
        seed=seed,
    )


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
