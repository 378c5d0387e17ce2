"""Directional Chamfer distance between point-direction sets, with gradients.

For sets X = {(p_i, n_i)} and X' = {(p'_j, n'_j)} the distance is

    (1/N)  sum_i min_j ( |p_i - p'_j| - lam * <n_i, n'_j> )
  + (1/N') sum_j min_i ( |p'_j - p_i| - lam * <n'_j, n_i> )

where the argmin couples position and direction jointly, ties break to the
lowest index, and |.| is the smoothed norm sqrt(d^2 + eps^2) - eps (plain
Euclidean at eps = 0). Functional similarity is the negative distance.

Matches are found by brute force over row blocks of the (N, N') cost matrix,
so memory stays near `BLOCK_ENTRIES` entries for any set size and every
value equals the one the full matrix would hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .funcrep import WorldFuncRep

# A block holds at most BLOCK_ROWS rows of the cost matrix, fewer when a row
# is long, so that one block stays near BLOCK_ENTRIES entries.
BLOCK_ROWS = 256
BLOCK_ENTRIES = 1 << 18


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


def _block_matches(points, dirs, xp: WorldFuncRep, cfg: MetricConfig):
    """Argmins of one block of rows: (fwd, bwd, fwd_vals, bwd_vals)."""
    cost = _pair_costs(points, dirs, xp.points, xp.directions, cfg)
    fwd = np.argmin(cost, axis=1)  # first occurrence = lowest index on ties
    bwd = np.argmin(cost, axis=0)
    n, m = cost.shape
    return fwd, bwd, cost[np.arange(n), fwd], cost[bwd, np.arange(m)]


def _matches(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig):
    """Row and column argmins of the cost matrix, one block of rows at a time.

    A column's running minimum moves only to a strictly lower value, or to
    the first NaN as np.argmin does, so ties keep the lowest row index and
    the result equals the argmins of the full matrix bit for bit.
    """
    n, m = len(x), len(xp)
    if n == 0 or m == 0:
        raise ValidationError("directional Chamfer distance needs non-empty sets")
    rows = max(1, min(BLOCK_ROWS, BLOCK_ENTRIES // m))
    if n <= rows:
        return _block_matches(x.points, x.directions, xp, cfg)
    fwd = np.empty(n, dtype=np.intp)
    fwd_vals = np.empty(n)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        f, b, f_vals, b_vals = _block_matches(x.points[block], x.directions[block], xp, cfg)
        fwd[block], fwd_vals[block] = f, f_vals
        if start == 0:
            bwd, bwd_vals = b, b_vals
            continue
        lower = (b_vals < bwd_vals) | (np.isnan(b_vals) & ~np.isnan(bwd_vals))
        bwd[lower] = b[lower] + start
        bwd_vals[lower] = b_vals[lower]
    return fwd, bwd, fwd_vals, bwd_vals


def dcd(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig | None = None) -> float:
    """Directional Chamfer distance between two world-frame sets."""
    cfg = cfg or MetricConfig()
    _, _, fwd_vals, bwd_vals = _matches(x, xp, cfg)
    return float(fwd_vals.mean() + bwd_vals.mean())


def functional_similarity(x: WorldFuncRep, xp: WorldFuncRep,
                          cfg: MetricConfig | None = None) -> float:
    """Negative directional Chamfer distance; larger is more similar."""
    return -dcd(x, xp, cfg)


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
