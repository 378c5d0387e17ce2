"""Sequential per-frame alignment of a target robot to a source trajectory.

Each frame solves

    min_q  w1 * DCD(X_t, X'(q)) + w2 * limit_penalty(q)

by first-order descent through the analytic kinematic pullback, warm-starting
every frame from the previous frame's optimum. Stopping: a hard step cap plus
patience on the best loss seen. The best-seen iterate is returned, not the
last one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chamfer import MetricConfig, dcd, dcd_value_and_cotangent, functional_similarity
from .errors import AlignmentError, ValidationError
from .funcrep import FuncRepTrajectory, FunctionalTemplate, WorldFuncRep, eval_template
from .kinematics import _resolve_link_indices, evaluate_with_pullback, evaluate_world_set
from .robot import Embodiment

OPTIMIZERS = ("adaptive-moments", "plain-gradient")


@dataclass(frozen=True)
class AlignmentConfig:
    """Optimizer and loss weights for per-frame alignment."""

    metric: MetricConfig = field(default_factory=lambda: MetricConfig(lam=0.5, epsilon=1e-9))
    w1: float = 1.0  # weight on the directional Chamfer term
    w2: float = 1.0  # weight on the joint-limit penalty
    max_steps: int = 300
    patience: int = 10  # non-improving steps before halting
    step_size: float = 0.01
    optimizer: str = "adaptive-moments"
    improvement_tol: float = 1e-8  # minimum decrease that counts as progress
    clamp_to_limits: bool = True

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0:
            raise ValidationError("loss weights must be non-negative")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")
        if self.patience < 1:
            raise ValidationError("patience must be at least 1")
        if self.step_size <= 0:
            raise ValidationError("step_size must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}")


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


def joint_limit_penalty(q: np.ndarray, e: Embodiment) -> float:
    """Sum of squared hinge violations of the joint limits; zero inside."""
    q = e.check_configuration(q)
    over = np.maximum(0.0, q - e.upper_limits)
    under = np.maximum(0.0, e.lower_limits - q)
    return float(np.sum(over * over) + np.sum(under * under))


def joint_limit_penalty_gradient(q: np.ndarray, e: Embodiment) -> np.ndarray:
    q = e.check_configuration(q)
    over = np.maximum(0.0, q - e.upper_limits)
    under = np.maximum(0.0, e.lower_limits - q)
    return 2.0 * (over - under)


def minimize_with_patience(value_and_grad, q0: np.ndarray, cfg: AlignmentConfig,
                           context: str = ""):
    """Generic descent loop with a step cap and best-loss patience.

    `value_and_grad(q) -> (loss, grad)`. Returns
    (best_q, loss_trace, steps_used, early_stopped). One step = one gradient
    evaluation at the current iterate followed by one parameter update (the
    update is skipped when patience triggers).
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
    beta1, beta2, tiny = 0.9, 0.999, 1e-8

    for step in range(1, cfg.max_steps + 1):
        loss, grad = value_and_grad(q)
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            raise AlignmentError(f"non-finite loss or gradient{context}")
        trace.append(float(loss))
        steps = step
        if loss < best - cfg.improvement_tol:
            best = float(loss)
            best_q = q.copy()
            bad = 0
        else:
            bad += 1
            if bad >= cfg.patience:
                early = True
                break
        if cfg.optimizer == "adaptive-moments":
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**step)
            v_hat = v / (1.0 - beta2**step)
            q = q - cfg.step_size * m_hat / (np.sqrt(v_hat) + tiny)
        else:
            q = q - cfg.step_size * grad
    return best_q, trace, steps, early


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

    link_indices = _resolve_link_indices(target, template.link_names)
    local_points = template.points
    local_normals = template.normals

    def value_and_grad(q):
        pts, dirs, pullback = evaluate_with_pullback(target, q, link_indices,
                                                     local_points, local_normals)
        value, d_pts, d_dirs = dcd_value_and_cotangent(x_t, WorldFuncRep(pts, dirs), cfg.metric)
        grad = pullback(cfg.w1 * d_pts, cfg.w1 * d_dirs)
        grad += cfg.w2 * joint_limit_penalty_gradient(q, target)
        loss = cfg.w1 * value + cfg.w2 * joint_limit_penalty(q, target)
        return loss, grad

    best_q, trace, steps, early = minimize_with_patience(value_and_grad, q_init, cfg, context)
    q_hat = np.clip(best_q, target.lower_limits, target.upper_limits) if cfg.clamp_to_limits else best_q

    x_hat = eval_template(target, template, q_hat)
    final_dcd = dcd(x_t, x_hat, MetricConfig(lam=cfg.metric.lam, epsilon=0.0))
    final_loss = cfg.w1 * dcd(x_t, x_hat, cfg.metric) \
        + cfg.w2 * joint_limit_penalty(q_hat, target)
    diag = FrameDiagnostics(
        final_loss=float(final_loss),
        final_dcd=float(final_dcd),
        steps_used=steps,
        early_stopped=early,
        loss_trace=tuple(trace),
    )
    return q_hat, diag


def align_trajectory(source_traj: FuncRepTrajectory, target: Embodiment,
                     template: FunctionalTemplate, q0_init: np.ndarray | None = None,
                     cfg: AlignmentConfig | None = None) -> AlignedTrajectory:
    """Align a whole source representation trajectory, warm-starting each frame.

    Frame 0 starts from `q0_init` (default: the target's mid-range
    configuration); frame t+1 starts from the optimized result of frame t.
    """
    cfg = cfg or AlignmentConfig()
    q = target.mid_range_configuration() if q0_init is None else \
        target.check_configuration(q0_init)
    configs = np.empty((len(source_traj), target.dof))
    diags: list[FrameDiagnostics] = []
    for t, frame in enumerate(source_traj.frames):
        q, diag = align_frame(target, template, frame, q, cfg, frame_index=t)
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
    scores = np.empty(samples)
    for b in range(samples):
        scores[b] = functional_similarity(x_0, WorldFuncRep(points[b], dirs[b]), metric)

    elite_count = int(np.ceil(samples * elite_fraction))
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
