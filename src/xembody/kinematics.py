"""Forward kinematics and reverse-mode gradients through the kinematic chain.

Conventions: a link pose (R, t) maps link-local coordinates to the world frame.
The pose of a child link is the parent pose composed with the joint's fixed
origin transform and then the joint motion (rotation about, or translation
along, the joint axis). Gradients are propagated analytically with per-joint
screw derivatives: perturbing a revolute joint swings every descendant point
about the joint's world axis line, a prismatic joint slides it along the axis.

Shapes: one walk, `_fk_frames`, serves one configuration and batches. A
configuration array has shape (..., dof); every result gains the same leading
batch shape (..., L, 3, 3), (..., L, 3), (..., dof, 3). Each batch row is
bit-equal to the call on that row alone, because the walk only multiplies 3x3
matrices and 3-vectors with `@`: a stacked `@` runs the same BLAS product on
each item, whatever the batch size. A mat-vec by `einsum` sums in another
order and would change the last bit, so the walk uses none. The world-set
transform `"nij,nj->ni"` is likewise row-independent.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .robot import Embodiment
from .transforms import rotation_about_axis


@dataclass
class LinkPoseSet:
    """World poses for every link of an embodiment, in its link order."""

    rotations: np.ndarray  # (L, 3, 3)
    translations: np.ndarray  # (L, 3)

    def pose_of(self, index: int):
        return self.rotations[index], self.translations[index]


@dataclass(frozen=True)
class _ChainTable:
    """Precomputed per-embodiment steps for the FK walk and the pullback.

    What does not depend on the configuration is computed here once, with the
    walk's own products: the pose of every link whose ancestors are all fixed,
    and the pre-joint rotation (with its world axis) of every joint whose
    ancestors are fixed or prismatic.
    """

    # Per link whose pose moves, in link order, parents first: (link, parent, kind,
    # dof, origin_rot, origin_trans, axis, pre_rot, offset, pre_trans, world_axis).
    # dof is -1 for fixed joints. The last four are constant or None:
    # pre_rot = parent_rot @ origin_rot, offset = parent_rot @ origin_trans,
    # pre_trans = offset + parent_trans, world_axis = pre_rot @ axis.
    steps: tuple[tuple, ...]
    # (indices, values) of the constant rows of the rotations, translations,
    # world axes and pivots that `_fk_buffers` writes once.
    constants: tuple[tuple[np.ndarray, np.ndarray], ...]
    ancestor_dofs: tuple[tuple[int, ...], ...]  # per link, root-to-link dof indices
    dof_kinds: tuple[str, ...]  # per dof: revolute | prismatic


_chain_cache: "weakref.WeakKeyDictionary[Embodiment, _ChainTable]" = weakref.WeakKeyDictionary()


def _chain(e: Embodiment) -> _ChainTable:
    table = _chain_cache.get(e)
    if table is not None:
        return table

    link_index = {l.name: i for i, l in enumerate(e.links)}
    joints = {j.name: j for j in e.joints}
    dof_of_joint = {}
    dof_kinds = []
    for joint in e.joints:
        if joint.kind != "fixed":
            dof_of_joint[joint.name] = len(dof_kinds)
            dof_kinds.append(joint.kind)

    # The constant world value per link (rotation, translation) and per dof
    # (axis, pivot), or None where it moves with the configuration.
    rots: list = []
    transl: list = []
    axes: list = [None] * len(dof_kinds)
    pivots: list = [None] * len(dof_kinds)
    steps = []
    ancestor_dofs: list[tuple[int, ...]] = []
    for i, link in enumerate(e.links):
        if link.parent_joint is None:
            rots.append(np.array(e.base_rotation, dtype=float))
            transl.append(np.array(e.base_translation, dtype=float))
            ancestor_dofs.append(())
            continue
        joint = joints[link.parent_joint]
        parent = link_index[joint.parent_link]
        d = dof_of_joint.get(joint.name, -1)
        origin_rot = np.array(joint.origin_rotation, dtype=float)
        origin_trans = np.array(joint.origin_translation, dtype=float)
        axis = np.array(joint.axis, dtype=float)
        pre_rot = offset = pre_trans = world_axis = None
        if rots[parent] is not None:
            pre_rot = rots[parent] @ origin_rot
            offset = rots[parent] @ origin_trans
            if transl[parent] is not None:
                pre_trans = offset + transl[parent]
            if d >= 0:
                world_axis = pre_rot @ axis
        if d >= 0:
            axes[d], pivots[d] = world_axis, pre_trans
        rots.append(None if joint.kind == "revolute" else pre_rot)
        transl.append(None if joint.kind == "prismatic" else pre_trans)
        if rots[i] is None or transl[i] is None:
            steps.append((i, parent, joint.kind, d, origin_rot, origin_trans, axis,
                          pre_rot, offset, pre_trans, world_axis))
        ancestor_dofs.append(ancestor_dofs[parent] + ((d,) if d >= 0 else ()))

    def known(values, shape):
        index = [k for k, v in enumerate(values) if v is not None]
        return (np.array(index, dtype=np.intp),
                np.array([values[k] for k in index], dtype=float).reshape((len(index),) + shape))

    constants = (known(rots, (3, 3)), known(transl, (3,)), known(axes, (3,)),
                 known(pivots, (3,)))
    table = _ChainTable(tuple(steps), constants, tuple(ancestor_dofs), tuple(dof_kinds))
    _chain_cache[e] = table
    return table


def _fk_buffers(e: Embodiment, batch: tuple[int, ...]):
    """Fresh (rotations, translations, axes, pivots) for `_fk_frames` over a batch
    shape, with the embodiment's constant rows already written."""
    (rot_index, rot_values), (trans_index, trans_values), (axis_index, axis_values), \
        (pivot_index, pivot_values) = _chain(e).constants
    rot = np.empty(batch + (len(e.links), 3, 3))
    trans = np.empty(batch + (len(e.links), 3))
    axis_world = np.zeros(batch + (e.dof, 3))
    pivot_world = np.zeros(batch + (e.dof, 3))
    rot[..., rot_index, :, :] = rot_values
    trans[..., trans_index, :] = trans_values
    axis_world[..., axis_index, :] = axis_values
    pivot_world[..., pivot_index, :] = pivot_values
    return rot, trans, axis_world, pivot_world


def _fk_frames(e: Embodiment, q: np.ndarray, out=None):
    """FK walk over `q` of shape (..., dof): link poses, per-dof world axes and pivots.

    Returns rotations (..., L, 3, 3), translations (..., L, 3), axes and pivots
    (..., dof, 3). Every product is a 3x3 `@`, so each batch row is bit-equal
    to the call on that row alone. `out`, from `_fk_buffers` for this batch
    shape, is filled and returned in place of fresh arrays; only the rows that
    move are written.
    """
    table = _chain(e)
    rot, trans, axis_world, pivot_world = _fk_buffers(e, q.shape[:-1]) if out is None else out
    # Views with the link (or dof) axis first, so one link is a plain first-axis
    # index for any batch shape; for one configuration they are the arrays.
    rot_of, trans_of = rot.swapaxes(0, -3), trans.swapaxes(0, -2)
    axis_of, pivot_of = axis_world.swapaxes(0, -2), pivot_world.swapaxes(0, -2)
    angles = q.swapaxes(0, -1)  # angles[d] is a scalar for one configuration

    for link, parent, kind, d, origin_rot, origin_trans, axis, pre_rot, offset, pre_trans, \
            a in table.steps:
        moving_rot, moving_trans = pre_rot is None, pre_trans is None
        if moving_rot:
            parent_rot = rot_of[parent]
            pre_rot = parent_rot @ origin_rot
            pre_trans = parent_rot @ origin_trans + trans_of[parent]
        elif moving_trans:
            pre_trans = offset + trans_of[parent]
        if kind == "fixed":
            rot_of[link] = pre_rot
            trans_of[link] = pre_trans
            continue
        if moving_rot:
            a = pre_rot @ axis
            axis_of[d] = a
        if moving_trans:
            pivot_of[d] = pre_trans
        if kind == "revolute":
            rot_of[link] = pre_rot @ rotation_about_axis(axis, angles[d])
            if moving_trans:
                trans_of[link] = pre_trans
        else:  # prismatic
            if moving_rot:
                rot_of[link] = pre_rot
            trans_of[link] = pre_trans + angles[d][..., None] * a
    return rot, trans, axis_world, pivot_world


def forward_kinematics(e: Embodiment, q: np.ndarray) -> LinkPoseSet:
    """World pose of every link for joint configuration `q` (length = dof)."""
    q = e.check_configuration(q)
    rot, trans, _, _ = _fk_frames(e, q)
    return LinkPoseSet(rot, trans)


def _check_batch(e: Embodiment, qs: np.ndarray) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != e.dof:
        raise ValidationError(f"batch shape {qs.shape} does not match dof {e.dof}")
    if not np.all(np.isfinite(qs)):
        raise ValidationError("configuration batch contains non-finite entries")
    return qs


def _resolve_link_indices(e: Embodiment, link_ids) -> np.ndarray:
    if len(link_ids) and isinstance(link_ids[0], str):
        index = {l.name: i for i, l in enumerate(e.links)}
        try:
            return np.array([index[name] for name in link_ids], dtype=np.int64)
        except KeyError as err:
            raise ValidationError(f"unknown link id {err.args[0]!r}") from None
    idx = np.asarray(link_ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= len(e.links)):
        raise ValidationError(f"link index out of range for {len(e.links)} links")
    return idx


def evaluate_world_set(e: Embodiment, q: np.ndarray, link_ids, points: np.ndarray,
                       normals: np.ndarray):
    """Transform link-local (point, direction) pairs to the world frame.

    `q` is one configuration (dof,) or a batch (B, dof); the result is (N, 3)
    or (B, N, 3) per output. `link_ids` may be link names or integer link
    indices, one per row of `points`/`normals`.
    """
    q = e.check_configuration(q) if np.ndim(q) < 2 else _check_batch(e, q)
    idx = _resolve_link_indices(e, link_ids)
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if points.shape != normals.shape or points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError(
            f"points {points.shape} and normals {normals.shape} must both be (N, 3)"
        )
    if len(idx) != len(points):
        raise ValidationError("one link id is required per point")
    rot, trans, _, _ = _fk_frames(e, q)
    return _world_set(rot, trans, idx, points, normals)


# World sets of a batch are built in blocks of at most this many rows (one
# gathered 3x3 rotation each), so the gather stays small for any batch size.
_WORLD_SET_ROWS = 1 << 13


def _world_set(rot: np.ndarray, trans: np.ndarray, idx: np.ndarray, points: np.ndarray,
               normals: np.ndarray):
    """World points and directions, (..., N, 3) each, of link-local rows on links `idx`.

    A batch runs in blocks of whole configurations, at most `_WORLD_SET_ROWS`
    rows each, as one flat (rows, 3, 3) x (rows, 3) product against the local
    rows repeated once per configuration: the product of each row is the one
    the batched einsum computes, and a flat operand lets numpy run it in long
    inner loops.
    """
    if rot.ndim == 3:
        return _world_rows(rot, trans, idx, points, normals)
    batch, n = rot.shape[:-3], len(idx)
    flat_rot = rot.reshape((-1,) + rot.shape[-3:])
    flat_trans = trans.reshape((-1,) + trans.shape[-2:])
    world_points = np.empty((len(flat_rot), n, 3))
    world_dirs = np.empty_like(world_points)
    block = max(1, _WORLD_SET_ROWS // max(1, n))
    repeated = (np.tile(points, (min(block, len(flat_rot)), 1)),
                np.tile(normals, (min(block, len(flat_rot)), 1)))
    for start in range(0, len(flat_rot), block):
        configs = slice(start, start + block)
        rows = len(world_points[configs]) * n
        _world_rows(flat_rot[configs], flat_trans[configs], idx,
                    repeated[0][:rows], repeated[1][:rows],
                    out=(world_points[configs].reshape(rows, 3),
                         world_dirs[configs].reshape(rows, 3)))
    return (world_points.reshape(batch + (n, 3)), world_dirs.reshape(batch + (n, 3)))


def _world_rows(rot, trans, idx, points, normals, out=None, gathered=None):
    """World rows for one configuration, or for a block of configurations
    flattened to rows (`points` and `normals` then repeat once per
    configuration), optionally into `out` (points, dirs) and with the gathered
    rotations and translations in `gathered`."""
    rows = len(points)
    if gathered is None:
        r = np.take(rot, idx, axis=-3).reshape(rows, 3, 3)
        t = np.take(trans, idx, axis=-2).reshape(rows, 3)
    else:
        r, t = gathered
        np.take(rot, idx, axis=-3, out=r)
        np.take(trans, idx, axis=-2, out=t)
    world_points, world_dirs = (None, None) if out is None else out
    world_points = np.einsum("nij,nj->ni", r, points, out=world_points)
    world_points += t
    world_dirs = np.einsum("nij,nj->ni", r, normals, out=world_dirs)
    return world_points, world_dirs


def _cross_rows(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(u) if out is None else out
    out[:, 0] = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    out[:, 1] = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    out[:, 2] = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return out


class _PullbackWorkspace:
    """Constants and buffers for repeated `evaluate_with_pullback` calls on one
    embodiment and one set of link-local rows, each on the link named or
    indexed by its entry of `link_ids`.

    The pullback needs, per link with an actuated ancestor, the sums of dp,
    p x dp and n x dn over the link's rows. Each link's rows form one contiguous
    range once sorted by link (stably, so within a link they keep their order);
    a per-range `.sum` adds them in the order a boolean-mask gather would, so
    the sums keep their bits. Then every (link, ancestor dof) pair contributes
    at once, and one `bincount` adds the contributions per dof in the order
    links ascending, then root to link.
    """

    def __init__(self, e: Embodiment, link_ids, points: np.ndarray, normals: np.ndarray):
        table = _chain(e)
        link_indices = _resolve_link_indices(e, link_ids)
        n = len(link_indices)
        self.embodiment, self.link_indices = e, link_indices
        self.points, self.normals = points, normals
        self.fk = _fk_buffers(e, ())
        self.gathered = (np.empty((n, 3, 3)), np.empty((n, 3)))
        self.stacked_world = np.empty((2 * n, 3))  # [points; directions]
        self.world = (self.stacked_world[:n], self.stacked_world[n:])
        # Per row: [dp; dn; p x dp; n x dn], so both cross products are one call.
        self.terms = np.empty((4, n, 3))

        order = np.argsort(link_indices, kind="stable")
        self.order = None if np.array_equal(order, np.arange(n)) else order
        self.sorted_terms = None if self.order is None else np.empty((4, n, 3))
        links, starts, counts = np.unique(link_indices[order], return_index=True,
                                          return_counts=True)
        self.ranges: list[slice] = []
        pair_link: list[int] = []
        pair_dof: list[int] = []
        for link, start, count in zip(links, starts, counts):
            dofs = table.ancestor_dofs[link]
            if dofs:
                pair_link += [len(self.ranges)] * len(dofs)
                pair_dof += dofs
                self.ranges.append(slice(int(start), int(start + count)))
        self.sums = np.empty((len(self.ranges), 4, 3))
        self.pair_link = np.array(pair_link, dtype=np.intp)
        self.pair_dof = np.array(pair_dof, dtype=np.intp)
        revolute = np.array([table.dof_kinds[d] == "revolute" for d in pair_dof], dtype=bool)
        self.revolute_pairs = np.flatnonzero(revolute)
        self.revolute_links = self.pair_link[revolute]
        self.revolute_dofs = self.pair_dof[revolute]

    def evaluate(self, q: np.ndarray):
        rot, trans, _, _ = _fk_frames(self.embodiment, q, out=self.fk)
        return _world_rows(rot, trans, self.link_indices, self.points, self.normals,
                           out=self.world, gathered=self.gathered)

    def pullback(self, d_points: np.ndarray, d_normals: np.ndarray) -> np.ndarray:
        if not self.ranges:  # no row moves with the configuration
            return np.zeros(self.embodiment.dof)
        n = len(self.link_indices)
        _, _, axis_world, pivot_world = self.fk
        terms = self.terms
        terms[0] = d_points
        terms[1] = d_normals
        _cross_rows(self.stacked_world, terms[:2].reshape(2 * n, 3),
                    out=terms[2:].reshape(2 * n, 3))
        if self.order is not None:
            terms = np.take(terms, self.order, axis=1, out=self.sorted_terms)
        sums = self.sums
        for k, link_rows in enumerate(self.ranges):
            terms[:, link_rows].sum(axis=1, out=sums[k])
        force = sums[:, 0]  # sum dp
        moment = sums[:, 2] + sums[:, 3]  # sum p x dp + sum n x dn
        # Per pair: a . f for a slide; a . (moment - o x f) for a turn about pivot o.
        lever = force[self.pair_link]
        if len(self.revolute_pairs):
            lever[self.revolute_pairs] = moment[self.revolute_links] - _cross_rows(
                pivot_world[self.revolute_dofs], force[self.revolute_links])
        lever *= axis_world[self.pair_dof]
        contributions = lever[:, 0] + lever[:, 1] + lever[:, 2]
        return np.bincount(self.pair_dof, weights=contributions,
                           minlength=self.embodiment.dof)


def evaluate_with_pullback(workspace: _PullbackWorkspace, q: np.ndarray):
    """One FK pass: world sets plus an exact reverse-mode pullback closure.

    Returns (world_points, world_dirs, pullback) where
    pullback(d_points, d_normals) contracts world-frame cotangents to dL/dq.
    The per-dof derivative is assembled from per-link moments: for rows on one
    link, sum dp.(a x (p - o)) = a.(sum p x dp - o x sum dp), so each link
    needs its moments once, not once per ancestor joint.

    `workspace` holds the embodiment, the link-local rows and what does not
    change between calls; the world sets returned are its buffers
    (`workspace.world`), overwritten by the next call on it.
    """
    world_points, world_dirs = workspace.evaluate(q)
    return world_points, world_dirs, workspace.pullback
