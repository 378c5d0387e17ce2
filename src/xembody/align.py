"""Sequential per-frame alignment of a target robot to a source trajectory.

Each frame solves

    min_q  w1 * DCD(X_t, X'(q)) + w2 * limit_penalty(q)

by Adam descent through the analytic kinematic pullback, warm-starting
every frame from the previous frame's optimum. Stopping: a hard step cap plus
patience on the best loss seen. The best-seen iterate is returned, not the
last one.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chamfer import (MetricConfig, _DcdWorkspace, _smooth_norm, dcd, dcd_value_and_cotangent,
                      functional_similarity)
from .errors import AlignmentError, ValidationError
from .funcrep import FuncRepTrajectory, FunctionalTemplate, WorldFuncRep
from .kinematics import _PullbackWorkspace, evaluate_with_pullback, evaluate_world_set
from .robot import Embodiment

IMPROVEMENT_TOL = 1e-8  # minimum decrease of the best loss that counts as progress

# Elite initialization's lower bound on the DCD (see _dcd_lower_bounds).
_BOUND_ENTRIES = 1 << 16  # entries per bound temporary; bounds the candidates per pass
_GROUP_ANGLE = np.radians(15.0)  # source rows within this angle of a leader share a cone
_ANGLE_SLACK = 1e-6  # radians added to every cone and taken off every query angle
_BOUND_MARGIN = 1e-9  # relative to a bound on the pair costs' size


@dataclass(frozen=True)
class AlignmentConfig:
    """Adam step size, stopping rule and loss weights for per-frame alignment."""

    metric: MetricConfig = field(default_factory=lambda: MetricConfig(lam=0.5, epsilon=1e-9))
    w1: float = 1.0  # weight on the directional Chamfer term
    w2: float = 1.0  # weight on the joint-limit penalty
    max_steps: int = 300
    patience: int = 10  # non-improving steps before halting
    step_size: float = 0.01

    def __post_init__(self):
        for name in ("w1", "w2", "step_size"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.w1 < 0 or self.w2 < 0:
            raise ValidationError("loss weights must be non-negative")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")
        if self.patience < 1:
            raise ValidationError("patience must be at least 1")
        if self.step_size <= 0:
            raise ValidationError("step_size must be positive")


@dataclass(frozen=True)
class FrameDiagnostics:
    """Per-frame outcome: metrics at the returned configuration plus the trace."""

    final_loss: float
    final_dcd: float  # evaluated with epsilon = 0
    steps_used: int
    early_stopped: bool
    loss_trace: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class AlignedTrajectory:
    """Optimized target joint configurations, one row per source frame."""

    configs: np.ndarray  # (L, dof)
    diagnostics: tuple[FrameDiagnostics, ...]

    def __post_init__(self):
        configs = np.asarray(self.configs, dtype=float)
        if configs.ndim != 2 or len(configs) != len(self.diagnostics):
            raise ValidationError("configs and diagnostics must have one row per frame")
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    def __len__(self) -> int:
        return len(self.configs)


def joint_limit_penalty(q: np.ndarray, e: Embodiment) -> tuple[float, np.ndarray]:
    """(loss, gradient) of the summed squared hinge violations of the joint
    limits; both are zero inside the limits."""
    q = e.check_configuration(q)
    over = np.maximum(0.0, q - e.upper_limits)
    under = np.maximum(0.0, e.lower_limits - q)
    return float((over * over).sum() + (under * under).sum()), 2.0 * (over - under)


def minimize_with_patience(value_and_grad, q0: np.ndarray, cfg: AlignmentConfig,
                           context: str = ""):
    """Adam descent with a step cap and best-loss patience.

    `value_and_grad(q) -> (loss, grad)`; it must not keep `q`, which is
    updated in place. Returns (best_q, best_loss, loss_trace, steps_used,
    early_stopped). One step = one gradient evaluation at the current iterate
    followed by one parameter update (the update is skipped when patience
    triggers).
    """
    q = np.array(q0, dtype=float)
    best_q = q.copy()
    best = np.inf
    bad = 0
    trace: list[float] = []
    steps = 0
    early = False
    m = np.zeros_like(q)
    v = np.zeros_like(q)
    m_hat = np.empty_like(q)
    v_hat = np.empty_like(q)
    beta1, beta2, tiny = 0.9, 0.999, 1e-8

    for step in range(1, cfg.max_steps + 1):
        loss, grad = value_and_grad(q)
        if not (math.isfinite(loss) and np.isfinite(grad).all()):
            raise AlignmentError(f"non-finite loss or gradient{context}")
        trace.append(float(loss))
        steps = step
        if loss < best - IMPROVEMENT_TOL:
            best = float(loss)
            best_q[:] = q
            bad = 0
        else:
            bad += 1
            if bad >= cfg.patience:
                early = True
                break
        # m = beta1 * m + (1 - beta1) * grad and v = beta2 * v + (1 - beta2) * grad * grad,
        # then q -= step_size * m_hat / (sqrt(v_hat) + tiny), in place in that order.
        m *= beta1
        m += np.multiply(grad, 1.0 - beta1, out=m_hat)
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=v_hat)
        v_hat *= grad
        v += v_hat
        np.divide(m, 1.0 - beta1**step, out=m_hat)
        np.divide(v, 1.0 - beta2**step, out=v_hat)
        m_hat *= cfg.step_size
        np.sqrt(v_hat, out=v_hat)
        v_hat += tiny
        m_hat /= v_hat
        q -= m_hat
    return best_q, best, trace, steps, early


class _AlignmentWorkspace:
    """What alignment of one trajectory computes once: the kinematic and DCD
    buffers, and per frame the source set.

    `value_and_grad` is the per-step objective. It calls
    `evaluate_with_pullback`, `dcd_value_and_cotangent` and
    `joint_limit_penalty` once each through this module, each kernel with the
    workspace that owns its inputs, so a wrapper around any of them still sees
    every step.
    """

    def __init__(self, target: Embodiment, template: FunctionalTemplate, source_rows: int,
                 cfg: AlignmentConfig):
        self.target, self.cfg = target, cfg
        self.kinematics = _PullbackWorkspace(target, template.link_names, template.points,
                                             template.normals)
        self.matching = _DcdWorkspace(source_rows, len(template), cfg.metric)
        self.world = WorldFuncRep(*self.kinematics.world)  # views of the world buffers
        self.report_metric = MetricConfig(lam=cfg.metric.lam, epsilon=0.0)
        self.frame: WorldFuncRep | None = None  # the source set being aligned

    def value_and_grad(self, q: np.ndarray):
        cfg = self.cfg
        # The world set lands in the buffers that self.world views.
        _, _, pullback = evaluate_with_pullback(self.kinematics, q)
        value, d_pts, d_dirs = dcd_value_and_cotangent(self.frame, self.world, self.matching)
        penalty, penalty_grad = joint_limit_penalty(q, self.target)
        d_pts *= cfg.w1
        d_dirs *= cfg.w1
        grad = pullback(d_pts, d_dirs)
        penalty_grad *= cfg.w2
        grad += penalty_grad
        return cfg.w1 * value + cfg.w2 * penalty, grad

    def align(self, x_t: WorldFuncRep, q_init: np.ndarray, context: str):
        """(q_hat, FrameDiagnostics) of one frame; see `align_frame`."""
        cfg, target = self.cfg, self.target
        self.frame = x_t
        best_q, best, trace, steps, early = minimize_with_patience(
            self.value_and_grad, q_init, cfg, context)
        q_hat = np.clip(best_q, target.lower_limits, target.upper_limits)

        # The DCD and penalty at an unclamped best iterate are the ones its step
        # recorded, from the same walk, world set and matches, so its loss is reused.
        self.kinematics.evaluate(q_hat)
        final_dcd = dcd(x_t, self.world, self.report_metric, workspace=self.matching)
        if q_hat.tobytes() == best_q.tobytes():
            final_loss = best
        else:
            final_loss = cfg.w1 * dcd(x_t, self.world, cfg.metric, workspace=self.matching) \
                + cfg.w2 * joint_limit_penalty(q_hat, target)[0]
        diag = FrameDiagnostics(
            final_loss=float(final_loss),
            final_dcd=float(final_dcd),
            steps_used=steps,
            early_stopped=early,
            loss_trace=tuple(trace),
        )
        return q_hat, diag


def align_frame(target: Embodiment, template: FunctionalTemplate, x_t: WorldFuncRep,
                q_init: np.ndarray, cfg: AlignmentConfig | None = None,
                frame_index: int | None = None):
    """Optimize one frame's target configuration against the source set X_t.

    Returns (q_hat, FrameDiagnostics). The reported final loss and DCD are
    evaluated at the returned (possibly clamped) configuration; the DCD uses
    epsilon = 0 regardless of the optimization smoothing.
    """
    cfg = cfg or AlignmentConfig()
    q_init = target.check_configuration(q_init)
    context = "" if frame_index is None else f" at frame {frame_index}"
    return _AlignmentWorkspace(target, template, len(x_t), cfg).align(x_t, q_init, context)


def align_trajectory(source_traj: FuncRepTrajectory, target: Embodiment,
                     template: FunctionalTemplate, q0_init: np.ndarray | None = None,
                     cfg: AlignmentConfig | None = None) -> AlignedTrajectory:
    """Align a whole source representation trajectory, warm-starting each frame.

    Frame 0 starts from `q0_init` (default: the target's mid-range
    configuration); frame t+1 starts from the optimized result of frame t.
    The frames share one workspace of buffers and per-trajectory constants.
    """
    cfg = cfg or AlignmentConfig()
    q = target.mid_range_configuration() if q0_init is None else \
        target.check_configuration(q0_init)
    workspace = _AlignmentWorkspace(target, template, len(source_traj[0]), cfg)
    configs = np.empty((len(source_traj), target.dof))
    diags: list[FrameDiagnostics] = []
    for t, frame in enumerate(source_traj.frames):
        q, diag = workspace.align(frame, q, f" at frame {t}")
        configs[t] = q
        diags.append(diag)
    return AlignedTrajectory(configs, tuple(diags))


def eis_initialize(target: Embodiment, template: FunctionalTemplate, x_0: WorldFuncRep,
                   samples: int, elite_fraction: float = 0.10, seed: int = 0,
                   cfg: AlignmentConfig | None = None) -> np.ndarray:
    """Elite-based initialization: mean of the best uniformly sampled candidates.

    Draws `samples` configurations uniformly within the joint limits, scores
    each by functional similarity against `x_0`, keeps the ceil(samples *
    elite_fraction) best, and returns their coordinate-wise mean. Elites
    spanning more than pi on some joint trigger a warning (the arithmetic mean
    is kept; no circular-mean guessing).

    Only candidates that can still be elites get an exact DCD. A cheap lower
    bound on every candidate's DCD (`_dcd_lower_bounds`: per row, the least
    over the other set's groups of smooth(distance to the group's box) - lam *
    (largest dot product over the group's direction cone), lowered by a margin
    of 1e-9 * (1 + largest pair cost)) orders the visits;
    once the k = ceil(samples * elite_fraction) best exact DCDs so far are all
    strictly below the next candidate's bound, every remaining candidate is
    strictly worse than k scored ones and cannot be an elite. Skipped
    candidates score -inf, so the stable ranking of the scored ones, the elite
    set, its order and its mean are bit for bit those of scoring all of them.
    """
    if samples < 10:
        raise ValidationError(f"elite initialization needs at least 10 samples, got {samples}")
    if not 0.0 < elite_fraction <= 1.0:
        raise ValidationError(f"elite fraction must be in (0, 1], got {elite_fraction}")
    metric = cfg.metric if cfg is not None else MetricConfig()
    rng = np.random.default_rng(seed)
    lower, upper = target.lower_limits, target.upper_limits
    candidates = rng.uniform(lower, upper, size=(samples, target.dof))

    points, dirs = evaluate_world_set(target, candidates, template.link_names,
                                      template.points, template.normals)
    _, link_of_row = np.unique(template.link_names, return_inverse=True)
    bounds = _dcd_lower_bounds(x_0, points, dirs, link_of_row, metric)
    elite_count = int(np.ceil(samples * elite_fraction))
    scores = np.full(samples, -np.inf)
    kept: list[float] = []  # max-heap (negated) of the elite_count lowest exact DCDs
    for b in np.argsort(bounds, kind="stable"):
        if len(kept) == elite_count and bounds[b] > -kept[0]:
            break
        scores[b] = functional_similarity(x_0, WorldFuncRep(points[b], dirs[b]), metric)
        # argsort ranks NaN last, so a NaN DCD counts as the worst value.
        value = np.inf if np.isnan(scores[b]) else -scores[b]
        if len(kept) < elite_count:
            heapq.heappush(kept, -value)
        elif value < -kept[0]:
            heapq.heapreplace(kept, -value)

    order = np.argsort(-scores, kind="stable")
    elites = candidates[order[:elite_count]]
    span = elites.max(axis=0) - elites.min(axis=0)
    wide = [target.actuated_joint_names[i] for i in np.flatnonzero(span > np.pi)]
    if wide:
        warnings.warn(
            f"elite configurations span more than pi radians on joints {wide}; "
            "their arithmetic mean may average distinct modes",
            stacklevel=2,
        )
    return elites.mean(axis=0)


def _dcd_lower_bounds(x: WorldFuncRep, points: np.ndarray, dirs: np.ndarray,
                      link_of_row: np.ndarray, metric: MetricConfig) -> np.ndarray:
    """A lower bound on dcd(x, (points[b], dirs[b])) for every candidate b.

    Split the candidate's rows into groups (its links) and x's rows into
    groups (rows whose unit directions lie within `_GROUP_ANGLE` of a greedy
    leader). For a row (p, n) and a group with world box H and direction cone
    C (axis, half-angle, least and largest norm, all taken from the world-frame
    rows themselves), every pair cost against the group is at least

        smooth(dist(p, H)) - lam * max_{w in C} <n, w>,

    because smooth() is monotone, and the cone holds every direction of the
    group whatever its length or the link rotation's shape. The least of these
    over the groups bounds the row's min term; the means of the row bounds of
    both sums bound the DCD. Angles are widened by `_ANGLE_SLACK`, far above
    the ~1e-7 rad that arccos can lose near +/-1, and the bound is lowered by
    `_BOUND_MARGIN` * (1 + S), with S a bound on any pair cost's size, far
    above the rounding of this bound and of the exact DCD. A bound that is not
    finite becomes -inf, so that candidate is always scored exactly; so does
    every bound of an empty `x`, whose exact DCD raises.
    """
    bounds = np.full(len(points), -np.inf)
    if len(x) == 0:
        return bounds
    with np.errstate(all="ignore"):
        link_starts, link_perm = _segments(link_of_row)
        group_starts, group_perm = _segments(_direction_groups(x.directions))
        source_points, source_dirs = x.points[group_perm], x.directions[group_perm]
        source_norms = _row_norms(source_dirs)
        source_cones = _cones(source_dirs, source_norms, group_starts)
        source_lo = np.minimum.reduceat(source_points, group_starts, axis=0)
        source_hi = np.maximum.reduceat(source_points, group_starts, axis=0)
        lam, eps = metric.lam, metric.epsilon
        # Each temporary holds block * (links * len(x) + groups * rows) entries.
        per_candidate = len(link_starts) * len(x) + len(group_starts) * points.shape[1]
        block_size = max(1, _BOUND_ENTRIES // per_candidate)
        for start in range(0, len(points), block_size):
            pts = points[start:start + block_size][:, link_perm]
            nrm = dirs[start:start + block_size][:, link_perm]
            norms = _row_norms(nrm)
            lo = np.minimum.reduceat(pts, link_starts, axis=1)
            hi = np.maximum.reduceat(pts, link_starts, axis=1)
            forward = _smooth_norm(_box_distance(source_points, lo, hi), eps)
            backward = _smooth_norm(_box_distance(pts, source_lo, source_hi), eps)
            if lam != 0.0:
                forward -= lam * _dot_upper(source_dirs, source_norms,
                                            _cones(nrm, norms, link_starts))
                backward -= lam * _dot_upper(nrm, norms, source_cones)
            scale = 4.0 * np.maximum(np.abs(source_points).max(), np.abs(pts).max(axis=(1, 2))) \
                + lam * source_norms.max() * norms.max(axis=1)
            block = forward.min(axis=-2).mean(axis=-1) + backward.min(axis=-2).mean(axis=-1)
            bounds[start:start + block_size] = block - _BOUND_MARGIN * (1.0 + scale)
    return np.where(np.isfinite(bounds), bounds, -np.inf)


def _segments(group_of_row: np.ndarray):
    """(starts, perm): `perm` orders the rows by group (stably) and `starts`
    marks where each group begins, for `reduceat`."""
    perm = np.argsort(group_of_row, kind="stable")
    ordered = group_of_row[perm]
    return np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]), perm


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...k,...k->...", v, v))


def _direction_groups(dirs: np.ndarray) -> np.ndarray:
    """Greedy leader grouping: each row not yet grouped leads a group of the
    ungrouped rows within `_GROUP_ANGLE` of it. Zero rows form one group."""
    norms = _row_norms(dirs)
    units = np.divide(dirs, norms[:, None], out=np.zeros_like(dirs), where=norms[:, None] > 0)
    group = np.where(norms > 0, -1, 0)
    cos_limit = np.cos(_GROUP_ANGLE)
    label = 1
    for leader in range(len(dirs)):
        if group[leader] >= 0:
            continue
        group[(group < 0) & (units @ units[leader] >= cos_limit)] = label
        group[leader] = label
        label += 1
    return group


def _cones(dirs: np.ndarray, norms: np.ndarray, starts: np.ndarray):
    """Per group of rows (axis -2, split at `starts`): an axis, a half-angle
    holding every non-zero direction, and the least and largest norm. A zero
    direction lies in every cone; it sets the least norm to 0. The axis is unit
    or, when the directions cancel, zero: then every angle to it reads pi/2,
    the half-angle too, and the cone holds every direction."""
    units = np.divide(dirs, norms[..., None], out=np.zeros_like(dirs),
                      where=norms[..., None] > 0)
    axis = np.add.reduceat(units, starts, axis=-2)
    length = _row_norms(axis)
    axis = np.divide(axis, length[..., None], out=np.zeros_like(axis),
                     where=length[..., None] > 0)
    counts = np.diff(np.r_[starts, dirs.shape[-2]])
    cos = np.sum(units * np.repeat(axis, counts, axis=-2), axis=-1)
    cos = np.where(norms > 0, cos, 1.0)
    half = np.arccos(np.clip(np.minimum.reduceat(cos, starts, axis=-1), -1.0, 1.0))
    return (axis, half + _ANGLE_SLACK, np.minimum.reduceat(norms, starts, axis=-1),
            np.maximum.reduceat(norms, starts, axis=-1))


def _dot_upper(dirs: np.ndarray, norms: np.ndarray, cones) -> np.ndarray:
    """Upper bound of <n, w> over every w of each cone: cones (..., K) against
    rows (..., N, 3) -> (..., K, N). The angle between n and any w is at least
    psi = max(0, angle(n, axis) - half), so <n, w> <= |n| |w| cos(psi), largest
    at the largest |w| when cos(psi) >= 0 and at the least |w| otherwise."""
    axis, half, least, largest = cones
    dot = axis @ dirs.swapaxes(-1, -2)
    cos = np.divide(dot, norms[..., None, :], out=np.ones_like(dot),
                    where=norms[..., None, :] > 0)
    angle = np.arccos(np.clip(cos, -1.0, 1.0)) - _ANGLE_SLACK
    cos_psi = np.cos(np.maximum(angle - half[..., :, None], 0.0))
    reach = np.where(cos_psi >= 0.0, largest[..., :, None], least[..., :, None])
    return norms[..., None, :] * cos_psi * reach


def _box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distance from each box (..., K, 3) to each point (..., N, 3) -> (..., K, N)."""
    sq = 0.0
    for k in range(3):
        p = points[..., None, :, k]
        gap = np.maximum(lo[..., :, None, k] - p, p - hi[..., :, None, k])
        np.maximum(gap, 0.0, out=gap)
        sq = sq + gap * gap
    return np.sqrt(sq)
