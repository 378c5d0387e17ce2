"""Directional Chamfer distance between point-direction sets, with gradients.

For sets X = {(p_i, n_i)} and X' = {(p'_j, n'_j)} the distance is

    (1/N)  sum_i min_j ( |p_i - p'_j| - lam * <n_i, n'_j> )
  + (1/N') sum_j min_i ( |p'_j - p_i| - lam * <n'_j, n_i> )

where the argmin couples position and direction jointly, ties break to the
lowest index, and |.| is the smoothed norm sqrt(d^2 + eps^2) - eps (plain
Euclidean at eps = 0). Functional similarity is the negative distance.

Matches are found by brute force in one pass of a compiled kernel
(`native.py`), one source row at a time: it computes the row's costs, takes
the row's argmin and updates every column's running minimum. A minimum moves
only to a strictly lower value or to the first NaN, as np.argmin does, so
ties keep the lowest index and the matches are those of np.argmin over the
full matrix, bit for bit. Memory is one row of costs, whatever the set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .funcrep import WorldFuncRep
from .native import load_kernels


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


class _DcdWorkspace:
    """Match buffers between a source set of `n` rows and sets of `m` rows,
    for any metric, so that repeated calls allocate nothing.

    It keeps the buffer addresses the kernel takes and those of the last
    source and target sets, so a call on the same two sets as the one before
    converts no argument; a set changed in place is read afresh. The
    cotangent's buffers are built by the first cotangent.
    """

    def __init__(self, n: int, m: int, cfg: MetricConfig):
        if n == 0 or m == 0:
            raise ValidationError("directional Chamfer distance needs non-empty sets")
        self.n, self.m, self.cfg = n, m, cfg
        self.kernel = load_kernels().dcd_matches
        self.matches = (np.empty(n, dtype=np.int64), np.empty(m, dtype=np.int64),
                        np.empty(n), np.empty(m))
        self.row = np.empty(m)  # the costs of one source row
        self.outputs = tuple(a.ctypes.data for a in (self.row, *self.matches))
        self.sets = [None, None]  # the source and target sets the addresses are of
        self.rows = [None, None]  # their (points, directions), kept alive for the kernel
        self.addresses = [0, 0, 0, 0]
        self.gradient: _Cotangent | None = None

    def bind(self, side: int, s: WorldFuncRep) -> None:
        """Take the addresses of the source (side 0) or target (side 1) set's
        rows. Rows that are not C-contiguous float64 are copied, and such a set
        is not kept, so the next call copies it again rather than read a stale
        copy."""
        size = (self.n, self.m)[side]
        if len(s) != size:
            what = ("source", "target")[side]
            raise ValidationError(f"a DCD workspace for {size} {what} rows got a set of "
                                  f"{len(s)}")
        rows = tuple(np.ascontiguousarray(a, dtype=np.float64) for a in (s.points, s.directions))
        copied = rows[0] is not s.points or rows[1] is not s.directions
        self.sets[side] = None if copied else s
        self.rows[side] = rows
        self.addresses[2 * side:2 * side + 2] = (rows[0].ctypes.data, rows[1].ctypes.data)

    def cotangent(self, x: WorldFuncRep, xp: WorldFuncRep, fwd: np.ndarray, bwd: np.ndarray):
        if self.gradient is None:
            self.gradient = _Cotangent(self.n, self.m, self.cfg)
        return self.gradient(x, xp, fwd, bwd)


class _Cotangent:
    """Buffers for the DCD cotangent between a source set of `n` rows and
    sets of `m` rows under one metric.

    Per source set it keeps the direction terms (-lam/N * n and -lam/M * n).
    A call on another source set than the previous one recomputes them, so a
    source set must not change in place while a workspace uses it.
    """

    def __init__(self, n: int, m: int, cfg: MetricConfig):
        self.n, self.m, self.cfg = n, m, cfg
        self.width = 6 if cfg.lam != 0.0 else 3
        self.lanes = np.arange(self.width)
        self.weights = np.empty((n, self.width))  # [d smooth(|p' - p|) / N | -lam / N * n]
        self.bins = np.empty((n, self.width), dtype=np.intp)
        self.diffs = np.empty((n + m, 3))  # [p'[fwd] - p; p' - p[bwd]]
        self.dir_terms = np.empty((m, 3))
        self.backward_dirs = np.empty((n, 3))  # -lam / M * n
        self.source: WorldFuncRep | None = None

    def __call__(self, x: WorldFuncRep, xp: WorldFuncRep, fwd: np.ndarray, bwd: np.ndarray):
        """(d_points, d_directions) of the DCD with respect to xp's rows, given
        the matches between x and xp; both are fresh arrays."""
        n, m, width = self.n, self.m, self.width
        lam, eps = self.cfg.lam, self.cfg.epsilon
        if self.source is not x and lam != 0.0:
            np.multiply(-lam / n, x.directions, out=self.weights[:, 3:])
            np.multiply(-lam / m, x.directions, out=self.backward_dirs)
        self.source = x

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


def _matches(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig,
             work: _DcdWorkspace | None = None):
    """Row and column argmins of the (N, N') cost matrix under `cfg`, in one
    call of the compiled kernel: (fwd, bwd, fwd_vals, bwd_vals), which are
    `work`'s buffers (fresh ones without it).

    Refuses a workspace built for other set sizes with ValidationError.
    """
    work = _DcdWorkspace(len(x), len(xp), cfg) if work is None else work
    if x is not work.sets[0]:
        work.bind(0, x)
    if xp is not work.sets[1]:
        work.bind(1, xp)
    work.kernel(*work.addresses, work.n, work.m, cfg.lam, cfg.epsilon, *work.outputs)
    return work.matches


def dcd(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig | None = None, *,
        workspace: _DcdWorkspace | None = None) -> float:
    """Directional Chamfer distance between two world-frame sets.

    `workspace` may be one built for these set sizes under any metric; only
    its match buffers are used. One built for other sizes is refused with
    ValidationError.
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
