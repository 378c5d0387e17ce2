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

Given buffers for it, the same call writes the cotangent with respect to the
target rows: a source row's forward term is scattered once its argmin is
final, so each target row sums them in ascending source order as
np.bincount does, and one pass over the target rows adds the backward terms.
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
    cotangent's buffers are built by the first `dcd_value_and_cotangent`.
    """

    def __init__(self, n: int, m: int, cfg: MetricConfig):
        if n == 0 or m == 0:
            raise ValidationError("directional Chamfer distance needs non-empty sets")
        self.n, self.m, self.cfg = n, m, cfg
        self.kernel = load_kernels().dcd_matches
        # One block holds every match buffer: fwd and bwd (int64), fwd_vals,
        # bwd_vals and the costs of one source row. Its address is taken once:
        # a `ctypes.data` lookup costs about 1.2 us, and a reused workspace's
        # whole match at 32 x 48 rows about 6.5 us.
        block = np.empty(2 * n + 3 * m)
        indices = block[:n + m].view(np.int64)
        self.matches = (indices[:n], indices[n:], block[n + m:2 * n + m],
                        block[2 * n + m:2 * n + 2 * m])
        base = block.ctypes.data
        self.outputs = (base + 8 * (2 * n + 2 * m), base, base + 8 * n, base + 8 * (n + m),
                        base + 8 * (2 * n + m))
        self.sets = [None, None]  # the source and target sets the addresses are of
        self.rows = [None, None]  # their (points, directions), kept alive for the kernel
        self.addresses = [0, 0, 0, 0]
        self.cotangent: tuple[np.ndarray, np.ndarray] | None = None  # (d_points, d_dirs)
        self.cotangent_at: int | None = None  # their address, taken once

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


def _matches(x: WorldFuncRep, xp: WorldFuncRep, cfg: MetricConfig,
             work: _DcdWorkspace | None = None, cotangent: int | None = None):
    """Row and column argmins of the (N, N') cost matrix under `cfg`, in one
    call of the compiled kernel: (fwd, bwd, fwd_vals, bwd_vals), which are
    `work`'s buffers (fresh ones without it). Given the address `cotangent`
    of 6 N' doubles, the kernel also writes the cotangent there.

    Refuses a workspace built for other set sizes with ValidationError.
    """
    work = _DcdWorkspace(len(x), len(xp), cfg) if work is None else work
    if x is not work.sets[0]:
        work.bind(0, x)
    if xp is not work.sets[1]:
        work.bind(1, xp)
    work.kernel(*work.addresses, work.n, work.m, cfg.lam, cfg.epsilon, *work.outputs, cotangent)
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
    supplies every buffer. The cotangents are the workspace's buffers, which
    the next call overwrites."""
    if workspace.cotangent is None:
        block = np.empty((2, workspace.m, 3))
        workspace.cotangent, workspace.cotangent_at = (block[0], block[1]), block.ctypes.data
    _, _, fwd_vals, bwd_vals = _matches(x, xp, workspace.cfg, workspace, workspace.cotangent_at)
    return float(fwd_vals.mean() + bwd_vals.mean()), *workspace.cotangent
