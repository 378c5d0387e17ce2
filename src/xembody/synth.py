"""Synthesis of target-embodiment demonstrations.

Actions are next-frame joint targets from the aligned trajectory. Observations
run a fixed point-cloud pipeline per frame: crop to the workspace box, mask
points near the source robot's surface, add a sampled cloud of the target
robot at its aligned configuration, then farthest-point downsample to a fixed
size. All per-frame randomness derives from hash(global seed, demo id, frame).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .align import AlignedTrajectory
from .errors import ValidationError
from .funcrep import _subseed
from .kinematics import forward_kinematics
from .mesh import sample_triangles
from .robot import Embodiment

TAG_SCENE = 0
TAG_ROBOT = 1

# Masking grid bounds: the cell side grows until the padded grid has at most
# _MASK_MAX_CELLS cells, and scene-sample pairs are tested _MASK_MAX_PAIRS at a
# time, so memory stays bounded for any tau and robot size.
_MASK_MAX_CELLS = 1 << 18
_MASK_MAX_PAIRS = 1 << 17


def _fps_indices(points: np.ndarray, n: int, start: int) -> np.ndarray:
    # Per-axis arrays and preallocated buffers keep each pick to a few
    # in-place ufuncs. The squared distance is summed as (dx² + dz²) + dy²:
    # that order reproduces np.einsum("mk,mk->m") on (M, 3) rows bit for bit,
    # so the picks match tests/test_synth.py::_fps_indices_reference exactly.
    x, y, z = (np.ascontiguousarray(points[:, k]) for k in range(3))
    dist = np.full(len(x), np.inf)
    acc = np.empty_like(dist)
    tmp = np.empty_like(dist)
    selected = np.empty(n, dtype=np.int64)
    selected[0] = pick = start
    for k in range(1, n):
        np.subtract(x, x[pick], out=acc)
        np.multiply(acc, acc, out=acc)
        np.subtract(z, z[pick], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(acc, tmp, out=acc)
        np.subtract(y, y[pick], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(acc, tmp, out=acc)
        np.minimum(dist, acc, out=dist)
        selected[k] = pick = dist.argmax()  # first occurrence = lowest index on ties
    return selected


@dataclass(frozen=True, eq=False)
class PointCloud:
    """World-frame points with an optional per-point provenance tag."""

    points: np.ndarray  # (M, 3)
    tags: np.ndarray | None = None  # (M,) uint8, TAG_SCENE or TAG_ROBOT

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(points)):
            raise ValidationError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", points)
        if self.tags is not None:
            tags = np.asarray(self.tags, dtype=np.uint8)
            if tags.shape != (len(points),):
                raise ValidationError("tags must be one per point")
            object.__setattr__(self, "tags", tags)

    def __len__(self) -> int:
        return len(self.points)

    def take(self, indices) -> "PointCloud":
        tags = None if self.tags is None else self.tags[indices]
        return PointCloud(self.points[indices], tags)


@dataclass(frozen=True, eq=False)
class Demonstration:
    """One observation-action trajectory for a named embodiment."""

    embodiment: str
    clouds: tuple[PointCloud, ...]  # per frame
    arm_positions: np.ndarray  # (L, arm dof) proprioception
    ee_positions: np.ndarray  # (L, ee dof)
    arm_targets: np.ndarray  # (L, arm dof) actions
    ee_targets: np.ndarray  # (L, ee dof)
    initial_state: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        length = len(self.clouds)
        if length < 1:
            raise ValidationError("demonstration must contain at least one frame")
        for name in ("arm_positions", "ee_positions", "arm_targets", "ee_targets"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or len(arr) != length:
                raise ValidationError(f"{name} must be (L, dof) with L = {length}")
            object.__setattr__(self, name, arr)
        if self.arm_positions.shape != self.arm_targets.shape \
                or self.ee_positions.shape != self.ee_targets.shape:
            raise ValidationError("action dof split must match proprioception")
        object.__setattr__(self, "clouds", tuple(self.clouds))

    def __len__(self) -> int:
        return len(self.clouds)

    def proprioception(self, t: int) -> np.ndarray:
        return np.concatenate([self.arm_positions[t], self.ee_positions[t]])


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the observation pipeline."""

    tau: float = 0.005  # source-robot masking distance, meters
    workspace: tuple | None = None  # (min, max) corners; falls back to the source manifest
    robot_points: int = 4096  # samples per robot for masking/augmentation
    output_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValidationError(f"tau must be positive and finite, got {self.tau}")
        if self.output_size < 1:
            raise ValidationError("output size must be at least 1")
        if self.robot_points < 1:
            raise ValidationError("robot sample count must be at least 1")
        if self.workspace is not None:
            lo = np.asarray(self.workspace[0], dtype=float)
            hi = np.asarray(self.workspace[1], dtype=float)
            if not np.all(lo < hi):
                raise ValidationError("workspace box min must be strictly below max")
            object.__setattr__(self, "workspace", (lo, hi))


def derive_frame_seed(global_seed: int, demo_id: str, frame_index: int) -> int:
    """Stable per-frame seed; independent of processing order and worker count."""
    return _subseed(global_seed, f"{demo_id}:{frame_index}")


def generate_actions(aligned: AlignedTrajectory | np.ndarray, e: Embodiment):
    """Actions a_t = q_{t+1} (hold-last at the end), split into arm/ee targets."""
    configs = aligned.configs if isinstance(aligned, AlignedTrajectory) else np.asarray(aligned)
    if configs.ndim != 2 or len(configs) < 1:
        raise ValidationError("aligned trajectory must be a non-empty (L, dof) array")
    targets = np.vstack([configs[1:], configs[-1:]])
    arm = np.array(e.arm_indices, dtype=np.int64)
    ee = np.array(e.ee_indices, dtype=np.int64)
    return targets[:, arm], targets[:, ee]


def crop_workspace(pc: PointCloud, box) -> PointCloud:
    """Keep points with box-min <= p <= box-max (inclusive), order preserved."""
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    keep = np.all((pc.points >= lo) & (pc.points <= hi), axis=1)
    return pc.take(np.flatnonzero(keep))


def mask_robot_points(pc: PointCloud, robot_samples, tau: float) -> PointCloud:
    """Remove points strictly closer than `tau` to any robot sample.

    Exact, with no tree: scene points outside the samples' box grown by one
    cell are kept at once; the rest are tested against the samples in the 27
    cells around their own, on a grid whose cell side is at least 1.01 * tau,
    so every pair closer than tau lands in neighbouring cells. Each distance
    is sqrt((dx² + dy²) + dz²), the order in which scipy's cKDTree.query sums
    it, so the survivors match a KD-tree nearest-neighbour mask bit for bit.
    """
    robot_points = robot_samples.points if isinstance(robot_samples, PointCloud) \
        else np.asarray(robot_samples, dtype=float)
    if robot_points.ndim != 2 or robot_points.shape[1] != 3:
        raise ValidationError(f"robot samples must be an (R, 3) array, got shape "
                              f"{robot_points.shape}")
    if len(robot_points) == 0:
        raise ValidationError("robot sample cloud must be non-empty")
    samples = [np.ascontiguousarray(robot_points[:, k]) for k in range(3)]
    lo = [float(c.min()) for c in samples]
    hi = [float(c.max()) for c in samples]
    if not all(math.isfinite(b - a) for a, b in zip(lo, hi)):
        raise ValidationError("robot samples must be finite")
    if not 0.0 < tau < math.inf:
        raise ValidationError(f"masking distance must be positive and finite, got {tau}")
    if len(pc) == 0:
        return pc
    return pc.take(np.flatnonzero(~_near_samples(pc.points, samples, lo, hi, tau)))


def _near_samples(points, samples, lo, hi, tau: float) -> np.ndarray:
    """(M,) bool: points strictly closer than tau to some sample.

    `samples` holds the x, y and z columns, `lo` and `hi` their bounds.
    """
    side = max(1.01 * tau, max(b - a for a, b in zip(lo, hi)) / _MASK_MAX_CELLS)
    cells = [math.floor((b - a) / side) + 1 for a, b in zip(lo, hi)]
    # Two empty cells pad each side, so the neighbours of every (clipped)
    # candidate cell index the table without bounds checks.
    while math.prod(n + 4 for n in cells) > _MASK_MAX_CELLS:
        side *= 2.0
        cells = [math.floor((b - a) / side) + 1 for a, b in zip(lo, hi)]
    dims = [n + 4 for n in cells]
    strides = (dims[1] * dims[2], dims[2], 1)
    pad = 2 * sum(strides)

    inside = np.ones(len(points), dtype=bool)
    for k in range(3):
        inside &= (points[:, k] >= lo[k] - side) & (points[:, k] <= hi[k] + side)
    candidates = np.flatnonzero(inside)
    near = np.zeros(len(points), dtype=bool)
    if len(candidates) == 0:
        return near

    keys = np.full(len(samples[0]), pad, dtype=np.int64)
    for k in range(3):
        keys += np.floor((samples[k] - lo[k]) / side).astype(np.int64) * strides[k]
    order = np.argsort(keys)
    starts = np.zeros(math.prod(dims) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=len(starts) - 1), out=starts[1:])
    sorted_samples = [c[order] for c in samples]

    cand = [np.ascontiguousarray(points[candidates, k]) for k in range(3)]
    keys = np.full(len(candidates), pad, dtype=np.int64)
    for k in range(3):
        cell = np.floor((cand[k] - lo[k]) / side).astype(np.int64)
        keys += np.clip(cell, -1, cells[k], out=cell) * strides[k]
    # Along z the three neighbour cells are adjacent keys, so each of the nine
    # (x, y) neighbour columns is one run of sorted samples.
    columns = keys[:, None] + np.array([dx * strides[0] + dy * strides[1]
                                        for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    begin = starts[columns - 1].ravel()
    length = starts[columns + 2].ravel() - begin
    runs = np.flatnonzero(length)
    begin, length, owner_of_run = begin[runs], length[runs], runs // 9
    stop = np.cumsum(length)
    total = int(stop[-1]) if len(stop) else 0
    for first in range(0, total, _MASK_MAX_PAIRS):
        last = min(first + _MASK_MAX_PAIRS, total)
        window = slice(np.searchsorted(stop, first, side="right"),
                       np.searchsorted(stop, last, side="left") + 1)
        run_start = stop[window] - length[window]
        counts = np.minimum(stop[window], last) - np.maximum(run_start, first)
        pos = np.repeat(begin[window] - run_start, counts)
        pos += np.arange(first, last)
        owner = np.repeat(owner_of_run[window], counts)
        d = cand[0][owner] - sorted_samples[0][pos]
        sq = d * d
        for k in (1, 2):
            np.subtract(cand[k][owner], sorted_samples[k][pos], out=d)
            sq += d * d
        near[candidates[owner[np.sqrt(sq, out=sq) < tau]]] = True
    return near


def sample_robot_cloud(e: Embodiment, q: np.ndarray, count: int, seed: int) -> PointCloud:
    """Area-weighted surface samples over all posed link meshes, tagged robot.

    Faces are weighted by area across the whole embodiment, so links split
    samples in proportion to their surface area. Links without geometry are
    skipped with a warning.
    """
    q = e.check_configuration(q)
    poses = forward_kinematics(e, q)
    meshed = []
    for i, link in enumerate(e.links):
        if link.mesh is None:
            warnings.warn(f"link {link.name!r} has no geometry; skipped in robot cloud",
                          stacklevel=2)
            continue
        meshed.append(i)
    if not meshed:
        raise ValidationError(f"embodiment {e.name!r} has no link geometry to sample")

    local, face_choice = sample_triangles(
        np.concatenate([e.links[i].mesh.triangles for i in meshed]), count,
        np.random.default_rng(seed))

    # Map the flat face index back to its link, then pose that link's samples.
    offsets = np.cumsum([0] + [len(e.links[i].mesh.faces) for i in meshed])
    points = np.empty((count, 3))
    for slot, i in enumerate(meshed):
        in_link = (face_choice >= offsets[slot]) & (face_choice < offsets[slot + 1])
        if not np.any(in_link):
            continue
        r, t = poses.pose_of(i)
        points[in_link] = local[in_link] @ r.T + t
    return PointCloud(points, np.full(count, TAG_ROBOT, dtype=np.uint8))


def fps_downsample(pc: PointCloud, n: int, start_index: int = 0,
                   seed: int | None = None) -> PointCloud:
    """Farthest-point downsample to exactly `n` points.

    With enough input points this is the greedy selection seeded at
    `start_index` (ties to the lowest index), returned in selection order. A
    deficit is padded by uniform resampling with `seed`. Empty input is an
    error.
    """
    if n < 1:
        raise ValidationError(f"target size must be at least 1, got {n}")
    m = len(pc)
    if m == 0:
        raise ValidationError("cannot downsample an empty point cloud")
    if m < n:
        rng = np.random.default_rng(0 if seed is None else seed)
        extra = rng.integers(0, m, size=n - m)
        return pc.take(np.concatenate([np.arange(m), extra]))
    if not 0 <= start_index < m:
        raise ValidationError(f"start index {start_index} out of range for {m} points")
    return pc.take(_fps_indices(pc.points, n, start_index))


def synthesize_observation(scene: PointCloud, source: Embodiment, source_q: np.ndarray,
                           target: Embodiment, target_q: np.ndarray,
                           cfg: SynthConfig, frame_seed: int | None = None) -> PointCloud:
    """One frame of the pipeline: crop, mask source robot, add target robot, FPS.

    The stage order is fixed; the output always has exactly cfg.output_size
    points. `frame_seed` defaults to cfg.seed; pass `derive_frame_seed(...)`
    for per-frame streams.
    """
    box = cfg.workspace if cfg.workspace is not None else source.workspace
    if box is None:
        raise ValidationError("no workspace box: set SynthConfig.workspace or the "
                              "source embodiment manifest")
    seed = cfg.seed if frame_seed is None else frame_seed

    cropped = crop_workspace(scene, box)
    source_cloud = sample_robot_cloud(source, source_q, cfg.robot_points,
                                      _subseed(seed, "mask"))
    masked = mask_robot_points(cropped, source_cloud, cfg.tau)
    if masked.tags is None:
        masked = PointCloud(masked.points, np.full(len(masked), TAG_SCENE, dtype=np.uint8))
    augmented = sample_robot_cloud(target, target_q, cfg.robot_points,
                                   _subseed(seed, "augment"))
    union = PointCloud(np.vstack([masked.points, augmented.points]),
                       np.concatenate([masked.tags, augmented.tags]))
    start = int(np.random.default_rng(_subseed(seed, "fps")).integers(len(union)))
    return fps_downsample(union, cfg.output_size, start, _subseed(seed, "pad"))


def synthesize_demonstration(source_demo: Demonstration, source: Embodiment,
                             target: Embodiment, aligned: AlignedTrajectory,
                             cfg: SynthConfig, demo_id: str = "") -> Demonstration:
    """Full target demonstration: per-frame observations, proprioception, actions."""
    length = len(source_demo)
    if len(aligned) != length:
        raise ValidationError(
            f"aligned trajectory has {len(aligned)} frames, source demo has {length}"
        )
    arm = np.array(target.arm_indices, dtype=np.int64)
    ee = np.array(target.ee_indices, dtype=np.int64)
    arm_targets, ee_targets = generate_actions(aligned, target)
    source_configs = source.configuration_from_split(source_demo.arm_positions,
                                                     source_demo.ee_positions)

    clouds = []
    for t in range(length):
        frame_seed = derive_frame_seed(cfg.seed, demo_id, t)
        clouds.append(
            synthesize_observation(source_demo.clouds[t], source, source_configs[t],
                                   target, aligned.configs[t], cfg, frame_seed)
        )
    return Demonstration(
        embodiment=target.name,
        clouds=tuple(clouds),
        arm_positions=aligned.configs[:, arm],
        ee_positions=aligned.configs[:, ee],
        arm_targets=arm_targets,
        ee_targets=ee_targets,
        initial_state=dict(source_demo.initial_state),
        seed=cfg.seed,
    )
