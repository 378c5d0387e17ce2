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
        for name in ("lam", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValidationError(f"lambda must be non-negative, got {self.lam}")
        if self.epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {self.epsilon}")


def _smooth_norm(d: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(d^2 + eps^2) - eps, elementwise; into `out` (which may be `d`) if given."""
    if eps == 0.0:
        return d
    out = np.multiply(d, d, out=out)
    out += eps * eps
    np.sqrt(out, out=out)
    out -= eps
    return out


def _pair_costs(points_a, dirs_a, points_b, dirs_b, cfg: MetricConfig, out: np.ndarray,
                tiles: np.ndarray | None = None) -> np.ndarray:
    """(N, M) combined-term matrix: smooth(|p_a - p_b|) - lam * <n_a, n_b>.

    Each sum over the three axes runs as (x + z) + y, one (N, M) ufunc pass
    per axis. That order reproduces np.einsum("nmk,nmk->nm") for the squared
    distance and np.einsum("nk,mk->nm") for the dot product bit for bit (see
    tests/test_chamfer.py::_pair_costs_reference); (x + y) + z does not.
    Negated differences square to the same value and products commute, so
    the matrix for (b, a) is exactly the transpose of the one for (a, b),
    which makes dcd(X, X') == dcd(X', X) exact. BLAS matmul would not be.

    `out`, of shape (3, N, M), holds the work; the result is plane 0 or 2 of
    it, and plane 1 is left as scratch. `tiles`, of shape (6, N, M),
    holds a's point and direction coordinates (x, y, z each) repeated along
    each row: an outer difference or product then runs as a copy of b's
    coordinate (from a contiguous row) into every row and one pass over whole
    arrays, which numpy runs faster than the broadcast from a column. Each
    entry is the same operation on the same two numbers either way.
    """
    sq, tmp, dot = out
    if tiles is not None:
        rows_b = np.empty((6, len(points_b)))
        rows_b[:3] = points_b.T
        rows_b[3:] = dirs_b.T

    def outer(op, a, b, k, plane, into):
        if tiles is None:
            return op(a[:, k, None], b[:, k], out=into)
        np.copyto(into, rows_b[plane])
        return op(tiles[plane], into, out=into)

    outer(np.subtract, points_a, points_b, 0, 0, sq)
    np.multiply(sq, sq, out=sq)
    outer(np.subtract, points_a, points_b, 2, 2, tmp)
    np.multiply(tmp, tmp, out=tmp)
    np.add(sq, tmp, out=sq)
    outer(np.subtract, points_a, points_b, 1, 1, tmp)
    np.multiply(tmp, tmp, out=tmp)
    np.add(sq, tmp, out=sq)
    cost = _smooth_norm(np.sqrt(sq, out=sq), cfg.epsilon, out=sq)
    if cfg.lam != 0.0:
        outer(np.multiply, dirs_a, dirs_b, 0, 3, dot)
        outer(np.multiply, dirs_a, dirs_b, 2, 5, tmp)
        np.add(dot, tmp, out=dot)
        outer(np.multiply, dirs_a, dirs_b, 1, 4, tmp)
        np.add(dot, tmp, out=dot)
        np.multiply(dot, cfg.lam, out=dot)
        cost = np.subtract(cost, dot, out=dot)
    return cost


class _DcdWorkspace:
    """Buffers for DCD matches and cotangents between a source set of `n` rows
    and sets of `m` rows under one metric, so that repeated calls allocate
    nothing of the cost matrix's size.

    Per source set it keeps the cotangent's direction terms (-lam/N * n and
    -lam/M * n) and, with `tiles` and a cost matrix of one block, the source
    coordinate tiles of `_pair_costs`. A call on another source set than the
    previous one recomputes them, so a source set must not change in place
    while a workspace uses it. Filling the tiles costs more than they save in
    one call, so only a workspace that sees each source set over several
    calls (an optimizer's steps) should ask for them.
    """

    def __init__(self, n: int, m: int, cfg: MetricConfig, tiles: bool = False):
        if n == 0 or m == 0:
            raise ValidationError("directional Chamfer distance needs non-empty sets")
        self.n, self.m, self.cfg = n, m, cfg
        rows = min(n, _block_rows(m))
        self.costs = np.empty((3, rows, m))
        self.tiles = np.empty((6, n, m)) if tiles and n == rows else None
        self.matches = (np.empty(n, dtype=np.intp), np.empty(m, dtype=np.intp),
                        np.empty(n), np.empty(m))
        self.block_bwd = (np.empty(m, dtype=np.intp), np.empty(m))
        self.row_starts = np.arange(rows) * m  # flat index of each cost row
        self.columns = np.arange(m)
        self.flat = np.empty(max(rows, m), dtype=np.intp)
        self.width = 6 if cfg.lam != 0.0 else 3
        self.lanes = np.arange(self.width)
        self.weights = np.empty((n, self.width))  # [d smooth(|p' - p|) / N | -lam / N * n]
        self.bins = np.empty((n, self.width), dtype=np.intp)
        self.diffs = np.empty((n + m, 3))  # [p'[fwd] - p; p' - p[bwd]]
        self.dir_terms = np.empty((m, 3))
        self.backward_dirs = np.empty((n, 3))  # -lam / M * n
        self.source: WorldFuncRep | None = None

    def use_source(self, x: WorldFuncRep) -> None:
        if self.source is x:
            return
        self.source = x
        if self.tiles is not None:
            for k, column in enumerate(np.concatenate([x.points, x.directions], axis=1).T):
                np.copyto(self.tiles[k], column[:, None])
        lam = self.cfg.lam
        if lam != 0.0:
            np.multiply(-lam / self.n, x.directions, out=self.weights[:, 3:])
            np.multiply(-lam / self.m, x.directions, out=self.backward_dirs)

    def cotangent(self, x: WorldFuncRep, xp: WorldFuncRep, fwd: np.ndarray, bwd: np.ndarray):
        """(d_points, d_directions) of the DCD with respect to xp's rows, given
        the matches of the source set in use; both are fresh arrays."""
        n, m, width = self.n, self.m, self.width
        lam, eps = self.cfg.lam, self.cfg.epsilon

        # Both sums' smooth-norm gradients in one pass: rows are independent.
        forward, backward = self.diffs[:n], self.diffs[n:]
        np.take(xp.points, fwd, axis=0, out=forward)
        forward -= x.points
        np.take(x.points, bwd, axis=0, out=backward)
        np.subtract(xp.points, backward, out=backward)
        _smooth_norm_grad(self.diffs, eps, out=self.diffs)

        # Forward sum: each i contributes to its matched j = fwd[i]. One bincount
        # scatters every column at once: bin fwd[i] * width + k adds column k of
        # row i, in ascending i from 0.0, as a per-column bincount would.
        np.divide(forward, n, out=self.weights[:, :3])
        bins = np.multiply(fwd[:, None], width, out=self.bins)
        bins += self.lanes
        sums = np.bincount(bins.reshape(-1), weights=self.weights.reshape(-1),
                           minlength=m * width).reshape(m, width)
        d_points = sums[:, :3]
        d_dirs = sums[:, 3:] if lam != 0.0 else np.zeros((m, 3))

        # Backward sum: each j contributes with its matched i = bwd[j].
        backward /= m
        d_points += backward
        if lam != 0.0:
            d_dirs += np.take(self.backward_dirs, bwd, axis=0, out=self.dir_terms)
        return d_points, d_dirs


def _block_rows(m: int) -> int:
    """Rows per block of the cost matrix against a set of `m` rows."""
    return max(1, min(BLOCK_ROWS, BLOCK_ENTRIES // m))


def _block_matches(points, dirs, xp: WorldFuncRep, cfg: MetricConfig, work: _DcdWorkspace,
                   out):
    """Argmins of one block of rows into `out` = (fwd, bwd, fwd_vals, bwd_vals).

    The column argmins run along the rows of a transposed copy in the cost
    planes' scratch plane, so no call allocates one.
    """
    fwd, bwd, fwd_vals, bwd_vals = out
    k, m = len(points), len(xp)
    planes = work.costs[:, :k]
    cost = _pair_costs(points, dirs, xp.points, xp.directions, cfg, out=planes,
                       tiles=work.tiles)
    np.argmin(cost, axis=1, out=fwd)  # first occurrence = lowest index on ties
    transposed = planes[1].reshape(m, k)
    np.copyto(transposed, cost.T)
    np.argmin(transposed, axis=1, out=bwd)
    flat = cost.reshape(-1)
    np.take(flat, np.add(work.row_starts[:k], fwd, out=work.flat[:k]), out=fwd_vals)
    index = np.multiply(bwd, m, out=work.flat[:m])
    index += work.columns
    np.take(flat, index, out=bwd_vals)


def _matches(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig,
             work: _DcdWorkspace | None = None):
    """Row and column argmins of the cost matrix, one block of rows at a time.

    A column's running minimum moves only to a strictly lower value, or to
    the first NaN as np.argmin does, so ties keep the lowest row index and
    the result equals the argmins of the full matrix bit for bit. The results
    are `work`'s buffers (fresh ones without it).
    """
    work = _DcdWorkspace(len(x), len(xp), cfg) if work is None else work
    work.use_source(x)
    fwd, bwd, fwd_vals, bwd_vals = work.matches
    rows = len(work.row_starts)
    for start in range(0, len(x), rows):
        block = slice(start, start + rows)
        col, col_vals = (bwd, bwd_vals) if start == 0 else work.block_bwd
        _block_matches(x.points[block], x.directions[block], xp, cfg, work,
                       (fwd[block], col, fwd_vals[block], col_vals))
        if start:
            lower = (col_vals < bwd_vals) | (np.isnan(col_vals) & ~np.isnan(bwd_vals))
            bwd[lower] = col[lower] + start
            bwd_vals[lower] = col_vals[lower]
    return work.matches


def dcd(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig | None = None, *,
        workspace: _DcdWorkspace | None = None) -> float:
    """Directional Chamfer distance between two world-frame sets.

    `workspace` may be one built for these set sizes under any metric; only
    its match buffers are used.
    """
    _, _, fwd_vals, bwd_vals = _matches(x, xp, cfg or MetricConfig(), workspace)
    return float(fwd_vals.mean() + bwd_vals.mean())


def functional_similarity(x: WorldFuncRep, xp: WorldFuncRep,
                          cfg: MetricConfig | None = None) -> float:
    """Negative directional Chamfer distance; larger is more similar."""
    return -dcd(x, xp, cfg)


def dcd_value_and_cotangent(x: WorldFuncRep, xp: WorldFuncRep, workspace: _DcdWorkspace):
    """One-pass (value, d_points, d_directions) for optimizer inner loops,
    under the metric of `workspace`, which is built for these set sizes and
    supplies every buffer; the cotangents are fresh arrays."""
    fwd, bwd, fwd_vals, bwd_vals = _matches(x, xp, workspace.cfg, workspace)
    d_points, d_dirs = workspace.cotangent(x, xp, fwd, bwd)
    return float(fwd_vals.mean() + bwd_vals.mean()), d_points, d_dirs


def _smooth_norm_grad(diff: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise gradient of smooth(|d|) w.r.t. d; zero at d = 0 (subgradient).

    Written into `out` (which may be `diff`) if given.
    """
    denom = np.einsum("nk,nk->n", diff, diff)
    denom += eps * eps
    np.sqrt(denom, out=denom)
    scale = np.zeros_like(denom)
    np.divide(1.0, denom, out=scale, where=denom > 0.0)
    return np.multiply(diff, scale[:, None], out=out)
