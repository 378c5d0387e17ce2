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
transform `"...nij,nj->...ni"` is likewise row-independent.
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
    """Precomputed per-embodiment steps for the FK walk and the pullback."""

    # Per link in link order, parents first: (link, parent, kind, dof, origin_rot,
    # origin_trans, axis); parent is -1 for the root, dof -1 for fixed joints.
    steps: tuple[tuple, ...]
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

    steps = []
    ancestor_dofs: list[tuple[int, ...]] = []
    for i, link in enumerate(e.links):
        if link.parent_joint is None:
            steps.append((i, -1, "root", -1, None, None, None))
            ancestor_dofs.append(())
            continue
        joint = joints[link.parent_joint]
        parent = link_index[joint.parent_link]
        d = dof_of_joint.get(joint.name, -1)
        steps.append((i, parent, joint.kind, d,
                      np.array(joint.origin_rotation, dtype=float),
                      np.array(joint.origin_translation, dtype=float),
                      np.array(joint.axis, dtype=float)))
        ancestor_dofs.append(ancestor_dofs[parent] + ((d,) if d >= 0 else ()))

    table = _ChainTable(tuple(steps), tuple(ancestor_dofs), tuple(dof_kinds))
    _chain_cache[e] = table
    return table


def _fk_frames(e: Embodiment, q: np.ndarray):
    """FK walk over `q` of shape (..., dof): link poses, per-dof world axes and pivots.

    Returns rotations (..., L, 3, 3), translations (..., L, 3), axes and pivots
    (..., dof, 3). Every product is a 3x3 `@`, so each batch row is bit-equal
    to the call on that row alone.
    """
    table = _chain(e)
    batch = q.shape[:-1]
    rot = np.empty(batch + (len(e.links), 3, 3))
    trans = np.empty(batch + (len(e.links), 3))
    axis_world = np.zeros(batch + (e.dof, 3))
    pivot_world = np.zeros(batch + (e.dof, 3))
    # Views with the link (or dof) axis first, so one link is a plain first-axis
    # index for any batch shape; for one configuration they are the arrays.
    rot_of, trans_of = rot.swapaxes(0, -3), trans.swapaxes(0, -2)
    axis_of, pivot_of = axis_world.swapaxes(0, -2), pivot_world.swapaxes(0, -2)
    angles = q.swapaxes(0, -1)  # angles[d] is a scalar for one configuration

    for link, parent, kind, d, origin_rot, origin_trans, axis in table.steps:
        if parent < 0:
            rot_of[link] = e.base_rotation
            trans_of[link] = e.base_translation
            continue
        parent_rot = rot_of[parent]
        pre_rot = parent_rot @ origin_rot
        pre_trans = parent_rot @ origin_trans + trans_of[parent]
        if kind == "fixed":
            rot_of[link] = pre_rot
            trans_of[link] = pre_trans
            continue
        a = pre_rot @ axis
        axis_of[d] = a
        pivot_of[d] = pre_trans
        if kind == "revolute":
            rot_of[link] = pre_rot @ rotation_about_axis(axis, angles[d])
            trans_of[link] = pre_trans
        else:  # prismatic
            rot_of[link] = pre_rot
            trans_of[link] = pre_trans + angles[d][..., None] * a
    return rot, trans, axis_world, pivot_world


def forward_kinematics(e: Embodiment, q: np.ndarray) -> LinkPoseSet:
    """World pose of every link for joint configuration `q` (length = dof)."""
    q = e.check_configuration(q)
    rot, trans, _, _ = _fk_frames(e, q)
    return LinkPoseSet(rot, trans)


def forward_kinematics_batch(e: Embodiment, qs: np.ndarray):
    """FK over a (B, dof) batch; returns ((B, L, 3, 3), (B, L, 3))."""
    rot, trans, _, _ = _fk_frames(e, _check_batch(e, qs))
    return rot, trans


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


def _world_set(rot: np.ndarray, trans: np.ndarray, idx: np.ndarray, points: np.ndarray,
               normals: np.ndarray):
    r = rot[..., idx, :, :]  # (..., N, 3, 3)
    world_points = np.einsum("...nij,nj->...ni", r, points) + trans[..., idx, :]
    world_dirs = np.einsum("...nij,nj->...ni", r, normals)
    return world_points, world_dirs


def _cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    out[:, 0] = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    out[:, 1] = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    out[:, 2] = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return out


def evaluate_with_pullback(e: Embodiment, q: np.ndarray, link_indices: np.ndarray,
                           points: np.ndarray, normals: np.ndarray):
    """One FK pass: world sets plus an exact reverse-mode pullback closure.

    Returns (world_points, world_dirs, pullback) where
    pullback(d_points, d_normals) contracts world-frame cotangents to dL/dq.
    The per-dof derivative is assembled from per-link moments: for rows on one
    link, sum dp.(a x (p - o)) = a.(sum p x dp - o x sum dp), so each link
    needs its moments once, not once per ancestor joint.
    """
    table = _chain(e)
    rot, trans, axis_world, pivot_world = _fk_frames(e, q)
    world_points, world_dirs = _world_set(rot, trans, link_indices, points, normals)
    unique_links = np.unique(link_indices)

    def pullback(d_points: np.ndarray, d_normals: np.ndarray) -> np.ndarray:
        grad = np.zeros(e.dof)
        for link in unique_links:
            dofs = table.ancestor_dofs[link]
            if not dofs:
                continue
            rows = link_indices == link
            dp = d_points[rows]
            fx, fy, fz = dp.sum(axis=0)  # sum dp
            torque = _cross_rows(world_points[rows], dp).sum(axis=0)  # sum p x dp
            spin = _cross_rows(world_dirs[rows], d_normals[rows]).sum(axis=0)  # sum n x dn
            moment = torque + spin
            for d in dofs:
                a = axis_world[d]
                if table.dof_kinds[d] == "revolute":
                    ox, oy, oz = pivot_world[d]
                    grad[d] += (a[0] * (moment[0] - (oy * fz - oz * fy))
                                + a[1] * (moment[1] - (oz * fx - ox * fz))
                                + a[2] * (moment[2] - (ox * fy - oy * fx)))
                else:
                    grad[d] += a[0] * fx + a[1] * fy + a[2] * fz
        return grad

    return world_points, world_dirs, pullback


def pullback_to_joints(e: Embodiment, q: np.ndarray, link_ids, points: np.ndarray,
                       normals: np.ndarray, d_points: np.ndarray,
                       d_normals: np.ndarray) -> np.ndarray:
    """Contract world-frame cotangents back to a joint-space gradient.

    Given dL/d(world point) and dL/d(world direction) for the evaluated set,
    returns the exact dL/dq of length dof for the composition
    evaluate_world_set(forward_kinematics(q)).
    """
    q = e.check_configuration(q)
    idx = _resolve_link_indices(e, link_ids)
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    d_points = np.asarray(d_points, dtype=float)
    d_normals = np.asarray(d_normals, dtype=float)
    if d_points.shape != points.shape or d_normals.shape != normals.shape:
        raise ValidationError("cotangent shapes must match the evaluated set")
    if not (np.all(np.isfinite(d_points)) and np.all(np.isfinite(d_normals))):
        raise ValidationError("cotangent contains non-finite entries")
    _, _, pullback = evaluate_with_pullback(e, q, idx, points, normals)
    return pullback(d_points, d_normals)
