"""Directional Chamfer distance between point-direction sets, with gradients.

For sets X = {(p_i, n_i)} and X' = {(p'_j, n'_j)} the distance is

    (1/N)  sum_i min_j ( |p_i - p'_j| - lam * <n_i, n'_j> )
  + (1/N') sum_j min_i ( |p'_j - p_i| - lam * <n'_j, n_i> )

where the argmin couples position and direction jointly, ties break to the
lowest index, and |.| is the smoothed norm sqrt(d^2 + eps^2) - eps (plain
Euclidean at eps = 0). Functional similarity is the negative distance.

Two match-search paths exist: exact brute force for small sets and a KD-tree
candidate search above `BRUTE_FORCE_LIMIT` points. Both evaluate the combined
term with identical arithmetic, so they agree bitwise; the tree path only
prunes pairs that provably cannot win (the combined term of a candidate at
point distance d is at least smooth(d) - lam, so anything farther than
smooth_inv(best_nn + 2*lam) is out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .funcrep import WorldFuncRep

BRUTE_FORCE_LIMIT = 512


@dataclass(frozen=True)
class MetricConfig:
    """Weighting and smoothing for the directional Chamfer distance."""

    lam: float = 0.5  # meters per unit cosine; 0 disables the directional term
    epsilon: float = 0.0  # norm smoothing; keep 0 for evaluation/reporting

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError(f"lambda must be non-negative, got {self.lam}")
        if self.epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {self.epsilon}")


def _smooth_norm(d: np.ndarray, eps: float) -> np.ndarray:
    if eps == 0.0:
        return d
    return np.sqrt(d * d + eps * eps) - eps


def _pair_costs(points_a, dirs_a, points_b, dirs_b, cfg: MetricConfig) -> np.ndarray:
    """(N, M) combined-term matrix: smooth(|p_a - p_b|) - lam * <n_a, n_b>.

    Each sum over the three axes runs as (x + z) + y, one (N, M) ufunc pass
    per axis. That order reproduces np.einsum("nmk,nmk->nm") for the squared
    distance and np.einsum("nk,mk->nm") for the dot product bit for bit (see
    tests/test_chamfer.py::_pair_costs_reference); (x + y) + z does not.
    Negated differences square to the same value and products commute, so
    the matrix for (b, a) is exactly the transpose of the one for (a, b),
    which makes dcd(X, X') == dcd(X', X) exact. BLAS matmul would not be.
    """
    sq = np.subtract(points_a[:, 0, None], points_b[:, 0])
    np.multiply(sq, sq, out=sq)
    tmp = np.subtract(points_a[:, 2, None], points_b[:, 2])
    np.multiply(tmp, tmp, out=tmp)
    np.add(sq, tmp, out=sq)
    np.subtract(points_a[:, 1, None], points_b[:, 1], out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    np.add(sq, tmp, out=sq)
    cost = _smooth_norm(np.sqrt(sq, out=sq), cfg.epsilon)
    if cfg.lam != 0.0:
        dot = np.multiply(dirs_a[:, 0, None], dirs_b[:, 0])
        np.multiply(dirs_a[:, 2, None], dirs_b[:, 2], out=tmp)
        np.add(dot, tmp, out=dot)
        np.multiply(dirs_a[:, 1, None], dirs_b[:, 1], out=tmp)
        np.add(dot, tmp, out=dot)
        np.multiply(dot, cfg.lam, out=dot)
        cost = np.subtract(cost, dot, out=dot)
    return cost


def _matches_bruteforce(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig):
    cost = _pair_costs(x.points, x.directions, xp.points, xp.directions, cfg)
    fwd = np.argmin(cost, axis=1)  # first occurrence = lowest index on ties
    bwd = np.argmin(cost, axis=0)
    n, m = cost.shape
    fwd_vals = cost[np.arange(n), fwd]
    bwd_vals = cost[bwd, np.arange(m)]
    return fwd, bwd, fwd_vals, bwd_vals


def _candidate_radius(nn_dist: np.ndarray, cfg: MetricConfig) -> np.ndarray:
    # Invert the smoothed norm at (smooth(nn) + 2 lam): beyond this point
    # distance the combined term cannot beat the nearest neighbor's.
    target = _smooth_norm(nn_dist, cfg.epsilon) + 2.0 * cfg.lam
    if cfg.epsilon == 0.0:
        radius = target
    else:
        shifted = target + cfg.epsilon
        radius = np.sqrt(np.maximum(shifted * shifted - cfg.epsilon**2, 0.0))
    return radius * (1.0 + 1e-12) + 1e-300


def _matches_tree_oneway(points_a, dirs_a, points_b, dirs_b, tree_b, cfg: MetricConfig):
    nn_dist, _ = tree_b.query(points_a)
    radius = _candidate_radius(nn_dist, cfg)
    groups = tree_b.query_ball_point(points_a, radius)
    idx = np.empty(len(points_a), dtype=np.int64)
    vals = np.empty(len(points_a))
    for i, candidates in enumerate(groups):
        # Sorted candidates keep the lowest-index tie break; the nearest point
        # itself is always inside the radius, so the group is never empty.
        cand = np.sort(np.asarray(candidates, dtype=np.int64))
        cost = _pair_costs(points_a[i : i + 1], dirs_a[i : i + 1],
                           points_b[cand], dirs_b[cand], cfg)[0]
        k = int(np.argmin(cost))
        idx[i] = cand[k]
        vals[i] = cost[k]
    return idx, vals


def _matches_accelerated(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig):
    tree_x = cKDTree(x.points)
    tree_xp = cKDTree(xp.points)
    fwd, fwd_vals = _matches_tree_oneway(x.points, x.directions, xp.points, xp.directions,
                                         tree_xp, cfg)
    bwd, bwd_vals = _matches_tree_oneway(xp.points, xp.directions, x.points, x.directions,
                                         tree_x, cfg)
    return fwd, bwd, fwd_vals, bwd_vals


def _matches(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig):
    if len(x) == 0 or len(xp) == 0:
        raise ValidationError("directional Chamfer distance needs non-empty sets")
    if max(len(x), len(xp)) <= BRUTE_FORCE_LIMIT:
        return _matches_bruteforce(x, xp, cfg)
    return _matches_accelerated(x, xp, cfg)


def dcd(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig | None = None) -> float:
    """Directional Chamfer distance between two world-frame sets."""
    cfg = cfg or MetricConfig()
    _, _, fwd_vals, bwd_vals = _matches(x, xp, cfg)
    return float(fwd_vals.mean() + bwd_vals.mean())


def functional_similarity(x: WorldFuncRep, xp: WorldFuncRep,
                          cfg: MetricConfig | None = None) -> float:
    """Negative directional Chamfer distance; larger is more similar."""
    return -dcd(x, xp, cfg)


def dcd_cotangent(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig | None = None):
    """Gradient of `dcd` with respect to X' points and directions.

    The recorded argmin correspondences are held fixed (piecewise-smooth
    subgradient at ties). Direction gradients are ambient 3-vectors; callers
    that need tangency get it for free from the rotational pullback.
    Returns (d_points (N', 3), d_directions (N', 3)).
    """
    cfg = cfg or MetricConfig()
    fwd, bwd, _, _ = _matches(x, xp, cfg)
    return _cotangent_from_matches(x, xp, cfg, fwd, bwd)


def dcd_value_and_cotangent(x: WorldFuncRep, xp: WorldFuncRep,
                            cfg: MetricConfig | None = None):
    """One-pass (value, d_points, d_directions) for optimizer inner loops."""
    cfg = cfg or MetricConfig()
    fwd, bwd, fwd_vals, bwd_vals = _matches(x, xp, cfg)
    value = float(fwd_vals.mean() + bwd_vals.mean())
    d_points, d_dirs = _cotangent_from_matches(x, xp, cfg, fwd, bwd)
    return value, d_points, d_dirs


def _cotangent_from_matches(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig,
                            fwd: np.ndarray, bwd: np.ndarray):
    n, m = len(x), len(xp)

    # Forward sum: each i contributes to its matched j = fwd[i]; scatter-add
    # via bincount (much cheaper than np.add.at for small sets).
    diff = xp.points[fwd] - x.points  # (N, 3)
    d_smooth = _smooth_norm_grad(diff, cfg.epsilon) / n
    d_points = np.stack([np.bincount(fwd, weights=d_smooth[:, k], minlength=m)
                         for k in range(3)], axis=1)
    if cfg.lam != 0.0:
        scaled = (-cfg.lam / n) * x.directions
        d_dirs = np.stack([np.bincount(fwd, weights=scaled[:, k], minlength=m)
                           for k in range(3)], axis=1)
    else:
        d_dirs = np.zeros((m, 3))

    # Backward sum: each j contributes with its matched i = bwd[j].
    diff = xp.points - x.points[bwd]  # (M, 3)
    d_points += _smooth_norm_grad(diff, cfg.epsilon) / m
    if cfg.lam != 0.0:
        d_dirs += -cfg.lam / m * x.directions[bwd]
    return d_points, d_dirs


def _smooth_norm_grad(diff: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise gradient of smooth(|d|) w.r.t. d; zero at d = 0 (subgradient)."""
    sq = np.einsum("nk,nk->n", diff, diff)
    denom = np.sqrt(sq + eps * eps)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(denom > 0.0, 1.0 / denom, 0.0)
    return diff * scale[:, None]
