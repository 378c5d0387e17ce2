"""Synthesis of target-embodiment demonstrations.

Actions are next-frame joint targets from the aligned trajectory. Observations
run a fixed point-cloud pipeline per frame: crop to the workspace box, remove
the points within tau of the source robot's link triangles (an exact distance,
no sampling), add a sampled cloud of the target robot at its aligned
configuration, then farthest-point downsample to a fixed size. All per-frame
randomness derives from hash(global seed, demo id, frame).
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
from .native import load_kernels
from .robot import Embodiment

TAG_SCENE = 0
TAG_ROBOT = 1

# Point-face pairs the mask evaluates at once: each temporary then holds at most
# 96 KiB, below glibc's default 128 KiB mmap threshold, so none is mapped and
# faulted in afresh on every call.
_MASK_BLOCK = 1 << 12


def _fps_indices(points: np.ndarray, n: int, start: int) -> np.ndarray:
    """Greedy farthest-point selection of `n` of the (M, 3) rows, seeded at
    `start`, in one call of the compiled `xembody_fps` (`native.py`)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    m = len(points)
    if points.shape != (m, 3):
        raise ValidationError(f"points must be (M, 3), got shape {points.shape}")
    if not 1 <= n <= m:
        raise ValidationError(f"cannot pick {n} of {m} points")
    if not 0 <= start < m:
        raise ValidationError(f"start index {start} out of range for {m} points")
    dist = np.empty(m)
    selected = np.empty(n, dtype=np.int64)
    load_kernels().fps(points.ctypes.data, m, int(n), int(start), dist.ctypes.data,
                       selected.ctypes.data)
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
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite values")
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
    robot_points: int = 4096  # samples in the target robot's cloud
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


def generate_actions(configs: np.ndarray, e: Embodiment):
    """Actions a_t = q_{t+1} (hold-last at the end) of an (L, dof) trajectory,
    split into arm/ee targets."""
    configs = np.asarray(configs)
    if configs.ndim != 2 or len(configs) < 1:
        raise ValidationError("aligned trajectory must be a non-empty (L, dof) array")
    return e.split_configuration(np.vstack([configs[1:], configs[-1:]]))


def in_box(points: np.ndarray, box) -> np.ndarray:
    """Which of the (N, 3) `points` lie in the (min, max) box, bounds included."""
    lo, hi = (np.asarray(corner, dtype=float) for corner in box)
    return np.all((points >= lo) & (points <= hi), axis=1)


def crop_workspace(pc: PointCloud, box) -> PointCloud:
    """Keep the points `in_box` of the workspace, order preserved."""
    return pc.take(np.flatnonzero(in_box(pc.points, box)))


def mask_robot_points(pc: PointCloud, robot: Embodiment, q: np.ndarray,
                      tau: float) -> PointCloud:
    """Remove points strictly closer than `tau` to a link triangle of `robot` at `q`.

    Each meshed link is tested in its own frame: the points move there by
    (p - t) @ R, those outside the link's vertex box grown by tau are kept at
    once, and the rest are kept when their exact distance to the link's
    triangles is at least tau.
    """
    if not 0.0 < tau < math.inf:
        raise ValidationError(f"masking distance must be positive and finite, got {tau}")
    poses = forward_kinematics(robot, q)
    meshes = [(i, link.mesh) for i, link in enumerate(robot.links) if link.mesh is not None]
    if not meshes:
        raise ValidationError(f"embodiment {robot.name!r} has no link geometry to mask against")
    near = np.zeros(len(pc), dtype=bool)
    for i, mesh in meshes:
        r, t = poses.pose_of(i)
        local = (pc.points - t) @ r
        in_box = np.all((local >= mesh.vertices.min(axis=0) - tau)
                        & (local <= mesh.vertices.max(axis=0) + tau), axis=1)
        candidates = np.flatnonzero(in_box & ~near)
        if len(candidates):
            near[candidates] = _surface_distance(local[candidates], mesh.triangles) < tau
    return pc.take(np.flatnonzero(~near))


def _surface_distance(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """(N,) distance from each point to the nearest of the (F, 3, 3) triangles.

    The closest point of a triangle is the projection onto its plane when that
    falls inside, else the nearest point of one of its edges (the regions of
    Ericson, Real-Time Collision Detection, 5.1.5). All four candidates are
    points of the triangle and the nearest is taken, so zero-area and
    collinear faces, whose projection is ill-conditioned, fall to their
    edges. Vectors are stacked by axis, (3, rows, faces), dot products are
    summed axis by axis, and at most _MASK_BLOCK point-face pairs are
    evaluated at a time.
    """
    a, b, c = (np.ascontiguousarray(triangles[:, k].T) for k in range(3))  # (3, F) each
    ab, ac, bc = b - a, c - a, c - b
    ab2, ac2, ab_ac = _dot(ab, ab), _dot(ac, ac), _dot(ab, ac)
    det = ab2 * ac2 - ab_ac * ab_ac  # (2 area)², 0 for a degenerate face
    inverses = [np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)
                for x in (ab2, ac2, _dot(bc, bc), det)]
    best = np.full(len(points), np.inf)
    for f0 in range(0, len(det), _MASK_BLOCK):
        faces = slice(f0, f0 + _MASK_BLOCK)
        rows = max(1, _MASK_BLOCK // len(det[faces]))
        fa, fab, fac, fbc = (x[:, None, faces] for x in (a, ab, ac, bc))
        fab2, fac2, fab_ac = (x[None, faces] for x in (ab2, ac2, ab_ac))
        inv_ab, inv_ac, inv_bc, inv_det = (x[None, faces] for x in inverses)
        for r0 in range(0, len(points), rows):
            ap = points[r0:r0 + rows].T[:, :, None] - fa  # (3, rows, faces)
            d1, d2 = _dot(ap, fab), _dot(ap, fac)
            # Barycentric (v, w) of the projection: the 2x2 normal equations.
            v = (fac2 * d1 - fab_ac * d2) * inv_det
            w = (fab2 * d2 - fab_ac * d1) * inv_det
            # With det 0, v = w = 0 and the candidate is vertex a.
            inside = (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0)
            off_plane = ap - v * fab - w * fac
            sq = np.where(inside, _dot(off_plane, off_plane), np.inf)
            np.minimum(sq, _segment_sq(ap, d1, fab, inv_ab), out=sq)
            np.minimum(sq, _segment_sq(ap, d2, fac, inv_ac), out=sq)
            bp = ap - fab
            np.minimum(sq, _segment_sq(bp, _dot(bp, fbc), fbc, inv_bc), out=sq)
            np.minimum(best[r0:r0 + rows], sq.min(axis=1), out=best[r0:r0 + rows])
    return np.sqrt(best)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _segment_sq(u, d, edge, inv):
    """Squared distance to a segment: `u` runs from its start to the point,
    `d` = u . edge, `inv` = 1 / (edge . edge), or 0 for a zero-length edge."""
    s = np.minimum(np.maximum(d * inv, 0.0), 1.0)
    off_edge = u - s * edge
    return _dot(off_edge, off_edge)


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


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def fps_downsample(pc: PointCloud, n: int, start_index: int = 0,
                   seed: int | None = None) -> PointCloud:
    """Farthest-point downsample to exactly `n` points.

    With enough input points this is the greedy selection seeded at
    `start_index` (ties to the lowest index), returned in selection order. A
    deficit is padded by uniform resampling with `seed`. Empty input is an
    error.
    """
    n = _integer(n, "target size")
    start_index = _integer(start_index, "start index")
    if n < 1:
        raise ValidationError(f"target size must be at least 1, got {n}")
    m = len(pc)
    if m == 0:
        raise ValidationError("cannot downsample an empty point cloud")
    if m < n:
        rng = np.random.default_rng(0 if seed is None else seed)
        extra = rng.integers(0, m, size=n - m)
        return pc.take(np.concatenate([np.arange(m), extra]))
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
    masked = mask_robot_points(cropped, source, source_q, cfg.tau)
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
    arm_positions, ee_positions = target.split_configuration(aligned.configs)
    arm_targets, ee_targets = generate_actions(aligned.configs, target)
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
        arm_positions=arm_positions,
        ee_positions=ee_positions,
        arm_targets=arm_targets,
        ee_targets=ee_targets,
        initial_state=dict(source_demo.initial_state),
        seed=cfg.seed,
    )
