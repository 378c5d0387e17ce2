"""Robot kinematic models parsed from URDF-subset or native JSON descriptions.

A robot is a tree of links connected by revolute, prismatic, or fixed joints.
Parsing produces an `Embodiment` whose links and joints are ordered depth-first
from the root, which fixes the joint-configuration vector layout: entry k of a
configuration drives the k-th non-fixed joint in that order.

Supported description formats:

* URDF subset: ``<robot>``, ``<link>`` with box or mesh geometry (visual or
  collision, the distinction is ignored), ``<joint>`` of type revolute,
  prismatic, or fixed with origin, axis, and limits. Anything else
  (transmission, dynamics, materials, ...) is skipped with a warning.
* Native JSON (``"format": "xembody-robot"``): links with inline or referenced
  geometry, joints with explicit origin rotation matrices, and an optional
  embedded manifest block.

The sidecar manifest declares what cannot be inferred from kinematics alone:
the arm/end-effector joint split, finger-pad link names, the workspace box,
and the world-to-base transform (identity when omitted).
"""

from __future__ import annotations

import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DescriptionError, StructureError, ValidationError
from .fields import Fields
from .mesh import TriMesh, box_mesh, load_mesh_file
from . import transforms as tf

JOINT_KINDS = ("revolute", "prismatic", "fixed")


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One joint: a rigid origin offset followed by motion about/along `axis`.

    `axis` is expressed in the joint frame that `origin` fixes relative to the
    parent link; the child link frame coincides with the joint frame after the
    motion is applied.
    """

    name: str
    kind: str  # revolute | prismatic | fixed
    parent_link: str
    child_link: str
    axis: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    origin_rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    origin_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lower: float = 0.0
    upper: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        object.__setattr__(self, "origin_rotation", np.asarray(self.origin_rotation, dtype=float))
        object.__setattr__(self, "origin_translation", np.asarray(self.origin_translation, dtype=float))


@dataclass(frozen=True, eq=False)
class LinkSpec:
    """A rigid body. Geometry, when present, is a triangle mesh in link frame.

    Box primitives are converted to 12-triangle meshes at parse time, so one
    geometry representation serves sampling, masking, and augmentation.
    """

    name: str
    mesh: TriMesh | None = None
    parent_joint: str | None = None


@dataclass(frozen=True, eq=False)
class EmbodimentManifest:
    """Sidecar declarations for an embodiment description."""

    arm_joints: tuple[str, ...] = ()
    ee_joints: tuple[str, ...] = ()
    pad_links: tuple[str, ...] = ()
    workspace: tuple[np.ndarray, np.ndarray] | None = None  # (min, max) corners
    base_rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    base_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @staticmethod
    def from_json(text: str) -> "EmbodimentManifest":
        return EmbodimentManifest.from_dict(_json.load(text, "embodiment manifest"))

    @staticmethod
    def from_dict(doc) -> "EmbodimentManifest":
        """The manifest that a decoded JSON object declares."""
        doc = _json.object(doc, "embodiment manifest")
        workspace = None
        if doc.get("workspace") is not None:
            ws = _json.object(doc["workspace"], "manifest 'workspace'")
            workspace = tuple(_json.numbers(_json.required(ws, corner, "manifest 'workspace'"), 3,
                                            f"manifest 'workspace' {corner!r}")
                              for corner in ("min", "max"))
        base = _json.object(doc.get("world_to_base") or {}, "manifest 'world_to_base'")
        rotation, translation = _origin(base, "manifest 'world_to_base'")
        return EmbodimentManifest(
            **{key: _json.names(doc.get(key, []), f"manifest {key!r}")
               for key in ("arm_joints", "ee_joints", "pad_links")},
            workspace=workspace,
            base_rotation=rotation,
            base_translation=translation,
        )

    def to_dict(self) -> dict:
        doc: dict = {
            "arm_joints": list(self.arm_joints),
            "ee_joints": list(self.ee_joints),
            "pad_links": list(self.pad_links),
        }
        if self.workspace is not None:
            doc["workspace"] = {
                "min": [float(v) for v in self.workspace[0]],
                "max": [float(v) for v in self.workspace[1]],
            }
        doc["world_to_base"] = {
            "rotation": [float(v) for v in self.base_rotation.ravel()],
            "translation": [float(v) for v in self.base_translation],
        }
        return doc


_json = Fields(DescriptionError)


def _origin(doc: dict, what: str):
    """(rotation, translation) of a JSON transform: "rpy" (3 angles) or
    "rotation" (9 numbers), and "translation"; each defaults to identity."""
    if "rpy" in doc:
        rotation = tf.rpy_matrix(*_json.numbers(doc["rpy"], 3, f"{what} 'rpy'"))
    elif "rotation" in doc:
        rotation = _json.numbers(doc["rotation"], 9, f"{what} 'rotation'").reshape(3, 3)
    else:
        rotation = np.eye(3)
    translation = _json.numbers(doc.get("translation", [0.0, 0.0, 0.0]), 3,
                                f"{what} 'translation'")
    return rotation, translation


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Embodiment:
    """A validated robot model: link tree, joints, limits, and manifest data.

    `links` and `joints` are in depth-first order from the root link. The k-th
    non-fixed joint in that order is driven by entry k of a joint-configuration
    vector; `arm_indices` and `ee_indices` partition those entries.
    """

    name: str
    links: tuple[LinkSpec, ...]
    joints: tuple[JointSpec, ...]
    arm_indices: tuple[int, ...]
    ee_indices: tuple[int, ...]
    pad_links: tuple[str, ...] = ()
    workspace: tuple[np.ndarray, np.ndarray] | None = None
    base_rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    base_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    # The joints never change after construction, so the derived values below
    # are computed once per embodiment; the alignment loop reads them per step.
    @cached_property
    def dof(self) -> int:
        return len(self.actuated_joints)

    @cached_property
    def actuated_joints(self) -> tuple[JointSpec, ...]:
        return tuple(j for j in self.joints if j.kind != "fixed")

    @property
    def actuated_joint_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.actuated_joints)

    @cached_property
    def lower_limits(self) -> np.ndarray:
        """Per-dof lower limits; read-only, shared by every caller."""
        return _read_only([j.lower for j in self.actuated_joints])

    @cached_property
    def upper_limits(self) -> np.ndarray:
        """Per-dof upper limits; read-only, shared by every caller."""
        return _read_only([j.upper for j in self.actuated_joints])

    def mid_range_configuration(self) -> np.ndarray:
        return (self.lower_limits + self.upper_limits) / 2.0

    def link_index(self, name: str) -> int:
        for i, link in enumerate(self.links):
            if link.name == name:
                return i
        raise KeyError(f"unknown link {name!r} in embodiment {self.name!r}")

    def link(self, name: str) -> LinkSpec:
        return self.links[self.link_index(name)]

    def check_configuration(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dof,):
            raise ValidationError(
                f"configuration shape {q.shape} does not match dof {self.dof} "
                f"of embodiment {self.name!r}"
            )
        if not np.all(np.isfinite(q)):
            raise ValidationError("configuration contains non-finite entries")
        return q

    @cached_property
    def _split_indices(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.arm_indices, dtype=np.int64),
                np.array(self.ee_indices, dtype=np.int64))

    def split_configuration(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(arm, ee) blocks of dof-order configurations; the inverse of
        `configuration_from_split`. Works on one configuration or (L, dof) stacks."""
        q = np.asarray(q, dtype=float)
        if q.ndim < 1 or q.shape[-1] != self.dof:
            raise ValidationError(f"configuration shape {q.shape} does not match dof "
                                  f"{self.dof} of embodiment {self.name!r}")
        arm, ee = self._split_indices
        return q[..., arm], q[..., ee]

    def configuration_from_split(self, arm_values: np.ndarray,
                                 ee_values: np.ndarray) -> np.ndarray:
        """Scatter (arm, ee) proprioception blocks back into dof order.

        Works on single configurations or (L, dof) stacks. The inverse of
        `split_configuration`; arm and ee joints may interleave in the
        depth-first dof order.
        """
        arm_values = np.asarray(arm_values, dtype=float)
        ee_values = np.asarray(ee_values, dtype=float)
        if arm_values.shape[-1] != len(self.arm_indices) \
                or ee_values.shape[-1] != len(self.ee_indices):
            raise ValidationError(
                f"split widths ({arm_values.shape[-1]}, {ee_values.shape[-1]}) do not "
                f"match embodiment {self.name!r} "
                f"({len(self.arm_indices)} arm, {len(self.ee_indices)} ee)"
            )
        q = np.empty(arm_values.shape[:-1] + (self.dof,))
        arm, ee = self._split_indices
        q[..., arm] = arm_values
        q[..., ee] = ee_values
        return q


def build_embodiment(
    name: str,
    links: list[LinkSpec],
    joints: list[JointSpec],
    manifest: EmbodimentManifest | None = None,
) -> Embodiment:
    """Order links/joints depth-first, apply the manifest, and validate.

    Raises StructureError when the link graph is not a tree and
    ValidationError when any type invariant fails.
    """
    link_names = [l.name for l in links]
    if len(set(link_names)) != len(link_names):
        raise StructureError(f"duplicate link names in {name!r}")
    by_parent: dict[str, list[JointSpec]] = {}
    child_names = set()
    for j in joints:
        if j.parent_link not in link_names:
            raise StructureError(f"joint {j.name!r} references unknown parent link {j.parent_link!r}")
        if j.child_link not in link_names:
            raise StructureError(f"joint {j.name!r} references unknown child link {j.child_link!r}")
        if j.child_link in child_names:
            raise StructureError(f"link {j.child_link!r} is the child of more than one joint")
        child_names.add(j.child_link)
        by_parent.setdefault(j.parent_link, []).append(j)

    roots = [n for n in link_names if n not in child_names]
    if len(roots) != 1:
        raise StructureError(
            f"link graph of {name!r} must have exactly one root, found {sorted(roots)}"
        )

    # Depth-first pre-order from the root; children in document order. A joint
    # is visited together with its child link, which fixes the dof layout.
    link_by_name = {l.name: l for l in links}
    ordered_links: list[LinkSpec] = []
    ordered_joints: list[JointSpec] = []
    stack: list[tuple[str, JointSpec | None]] = [(roots[0], None)]
    while stack:
        link_name, via_joint = stack.pop()
        link = link_by_name[link_name]
        ordered_links.append(LinkSpec(link.name, link.mesh, via_joint.name if via_joint else None))
        if via_joint is not None:
            ordered_joints.append(via_joint)
        for j in reversed(by_parent.get(link_name, [])):  # reversed: document order pops first
            stack.append((j.child_link, j))
    if len(ordered_links) != len(links):
        # Every link has at most one parent and exactly one root exists, so the
        # only way to be unreachable is membership in a cycle.
        unreachable = sorted(set(link_names) - {l.name for l in ordered_links})
        raise StructureError(f"links unreachable from root (cyclic?): {unreachable}")

    actuated = [j.name for j in ordered_joints if j.kind != "fixed"]
    manifest = manifest or EmbodimentManifest()
    if manifest.arm_joints or manifest.ee_joints:
        arm_indices = tuple(actuated.index(n) for n in manifest.arm_joints if n in actuated)
        ee_indices = tuple(actuated.index(n) for n in manifest.ee_joints if n in actuated)
        missing = [n for n in (*manifest.arm_joints, *manifest.ee_joints) if n not in actuated]
        if missing:
            raise ValidationError(f"manifest names unknown or fixed joints: {missing}")
    else:
        arm_indices = tuple(range(len(actuated)))
        ee_indices = ()

    # Normalize joint axes; URDF permits non-unit axes.
    normalized = []
    for j in ordered_joints:
        axis = j.axis
        if j.kind != "fixed":
            norm = np.linalg.norm(axis)
            if norm == 0:
                raise ValidationError(f"joint {j.name!r} has a zero axis")
            axis = axis / norm
        normalized.append(
            JointSpec(
                j.name, j.kind, j.parent_link, j.child_link,
                axis, j.origin_rotation, j.origin_translation, j.lower, j.upper,
            )
        )

    e = Embodiment(
        name=name,
        links=tuple(ordered_links),
        joints=tuple(normalized),
        arm_indices=arm_indices,
        ee_indices=ee_indices,
        pad_links=manifest.pad_links,
        workspace=manifest.workspace,
        base_rotation=np.asarray(manifest.base_rotation, dtype=float),
        base_translation=np.asarray(manifest.base_translation, dtype=float),
    )
    problems = validate_embodiment(e)
    if problems:
        raise ValidationError(f"embodiment {name!r} is invalid: " + "; ".join(problems))
    return e


def validate_embodiment(e: Embodiment) -> list[str]:
    """Check every type invariant; returns one diagnostic string per violation."""
    problems: list[str] = []
    link_names = [l.name for l in e.links]
    for dup in sorted({n for n in link_names if link_names.count(n) > 1}):
        problems.append(f"duplicate identifier: link {dup!r}")
    joint_names = [j.name for j in e.joints]
    for dup in sorted({n for n in joint_names if joint_names.count(n) > 1}):
        problems.append(f"duplicate identifier: joint {dup!r}")

    for j in e.joints:
        if j.kind not in JOINT_KINDS:
            problems.append(f"joint {j.name!r}: unknown kind {j.kind!r}")
            continue
        if j.kind != "fixed":
            if abs(np.linalg.norm(j.axis) - 1.0) > 1e-9:
                problems.append(f"joint {j.name!r}: non-unit axis")
            if not (np.isfinite(j.lower) and np.isfinite(j.upper)):
                problems.append(f"joint {j.name!r}: non-finite limits")
            elif j.lower > j.upper:
                problems.append(f"joint {j.name!r}: lower limit exceeds upper limit")
        if not tf.is_rotation(j.origin_rotation):
            problems.append(f"joint {j.name!r}: origin rotation is not orthonormal")

    # Tree structure: single root, each non-root link names an existing joint
    # whose child is that link.
    known_joints = {j.name: j for j in e.joints}
    roots = 0
    for link in e.links:
        if link.parent_joint is None:
            roots += 1
            continue
        j = known_joints.get(link.parent_joint)
        if j is None:
            problems.append(f"link {link.name!r}: unknown parent joint {link.parent_joint!r}")
        elif j.child_link != link.name:
            problems.append(
                f"link {link.name!r}: parent joint {j.name!r} declares child {j.child_link!r}"
            )
    if roots != 1:
        problems.append(f"link graph has {roots} roots, expected exactly 1")

    dof = e.dof
    indices = (*e.arm_indices, *e.ee_indices)
    if len(set(e.arm_indices) & set(e.ee_indices)) > 0:
        problems.append("arm and end-effector joint index sets overlap")
    if sorted(indices) != list(range(dof)):
        problems.append(
            f"arm/end-effector indices {sorted(indices)} do not partition the {dof} dof"
        )
    for pad in e.pad_links:
        if pad not in link_names:
            problems.append(f"pad link {pad!r} does not exist")
        elif e.links[link_names.index(pad)].mesh is None:
            problems.append(f"pad link {pad!r} has no geometry")
    if not tf.is_rotation(e.base_rotation):
        problems.append("base rotation is not orthonormal")
    if e.workspace is not None:
        lo, hi = e.workspace
        if not np.all(lo < hi):
            problems.append("workspace box min must be strictly below max per axis")
    return problems


# ---------------------------------------------------------------------------
# URDF subset
# ---------------------------------------------------------------------------

_IGNORED_URDF_TAGS = {
    "transmission", "gazebo", "material", "sensor", "inertial", "dynamics",
    "mimic", "safety_controller", "calibration",
}


def _parse_floats(text: str | None, default, what: str, n: int = 3) -> np.ndarray:
    if text is None:
        return np.asarray(default, dtype=float)
    try:
        values = np.array([float(v) for v in text.split()])
    except ValueError as err:
        raise DescriptionError(f"cannot parse numbers from {text!r}", element=what) from err
    if values.shape != (n,):
        raise DescriptionError(f"expected {n} numbers, got {len(values)}", element=what)
    return values


def _origin_from_element(el: ET.Element | None, what: str):
    if el is None:
        return np.eye(3), np.zeros(3)
    xyz = _parse_floats(el.get("xyz"), np.zeros(3), what)
    rpy = _parse_floats(el.get("rpy"), np.zeros(3), what)
    return tf.rpy_matrix(*rpy), xyz


def _geometry_from_element(geom: ET.Element, what: str, base_dir: Path | None) -> TriMesh:
    box = geom.find("box")
    if box is not None:
        size = _parse_floats(box.get("size"), None, what)
        if np.any(size <= 0):
            raise ValidationError(f"{what}: box size must be strictly positive, got {size}")
        return box_mesh(size / 2.0)
    mesh_el = geom.find("mesh")
    if mesh_el is not None:
        filename = mesh_el.get("filename")
        if filename is None:
            raise DescriptionError("mesh element without filename", element=what)
        path = Path(filename)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        mesh = load_mesh_file(path)
        scale_text = mesh_el.get("scale")
        if scale_text is not None:
            scale = _parse_floats(scale_text, None, what)
            if not np.all(scale == scale[0]):
                raise DescriptionError(
                    f"only uniform mesh scaling is supported, got {scale}", element=what
                )
            mesh = mesh.scaled(scale[0])
        return mesh
    raise DescriptionError("geometry must contain <box> or <mesh>", element=what)


def _parse_urdf(text: str, base_dir: Path | None) -> tuple[str, list[LinkSpec], list[JointSpec]]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        line = err.position[0] if err.position else None
        raise DescriptionError(f"malformed XML: {err.msg}", line=line) from err
    if root.tag != "robot":
        raise DescriptionError(f"root element must be <robot>, got <{root.tag}>", element=root.tag)
    name = root.get("name", "robot")

    ignored = {child.tag for child in root if child.tag not in ("link", "joint")}
    for holder in root.iter():
        ignored |= {child.tag for child in holder if child.tag in _IGNORED_URDF_TAGS}

    links: list[LinkSpec] = []
    for link_el in root.findall("link"):
        link_name = link_el.get("name")
        if not link_name:
            raise DescriptionError("link without a name", element="link")
        mesh = None
        if link_el.find("visual") is not None and link_el.find("collision") is not None:
            ignored.add("collision-vs-visual distinction")
        for holder in ("visual", "collision"):
            holder_el = link_el.find(holder)
            if holder_el is None:
                continue
            geom = holder_el.find("geometry")
            if geom is not None:
                mesh = _geometry_from_element(geom, f"link {link_name!r}", base_dir)
                break
        links.append(LinkSpec(link_name, mesh))
    if ignored:
        warnings.warn(f"ignoring unsupported URDF elements: {sorted(ignored)}",
                      stacklevel=3)

    joints: list[JointSpec] = []
    for joint_el in root.findall("joint"):
        joint_name = joint_el.get("name")
        kind = joint_el.get("type")
        if not joint_name:
            raise DescriptionError("joint without a name", element="joint")
        if kind not in JOINT_KINDS:
            raise DescriptionError(
                f"unsupported joint type {kind!r} (subset: {JOINT_KINDS})",
                element=f"joint {joint_name!r}",
            )
        parent = joint_el.find("parent")
        child = joint_el.find("child")
        if parent is None or parent.get("link") is None:
            raise DescriptionError("missing <parent link=...>", element=f"joint {joint_name!r}")
        if child is None or child.get("link") is None:
            raise DescriptionError("missing <child link=...>", element=f"joint {joint_name!r}")
        rotation, translation = _origin_from_element(
            joint_el.find("origin"), f"joint {joint_name!r}"
        )
        axis = _parse_floats(
            (joint_el.find("axis").get("xyz") if joint_el.find("axis") is not None else None),
            np.array([1.0, 0.0, 0.0]),
            f"joint {joint_name!r}",
        )
        lower = upper = 0.0
        if kind != "fixed":
            limit = joint_el.find("limit")
            if limit is None or limit.get("lower") is None or limit.get("upper") is None:
                raise ValidationError(
                    f"joint {joint_name!r} is {kind} but has no lower/upper limits"
                )
            lower, upper = (_parse_floats(limit.get(bound), None, f"joint {joint_name!r}", 1)[0]
                            for bound in ("lower", "upper"))
        joints.append(
            JointSpec(joint_name, kind, parent.get("link"), child.get("link"),
                      axis, rotation, translation, lower, upper)
        )
    return name, links, joints


# ---------------------------------------------------------------------------
# Native JSON format
# ---------------------------------------------------------------------------

NATIVE_FORMAT = "xembody-robot"


def _geometry_from_native(doc: dict | None, what: str, base_dir: Path | None) -> TriMesh | None:
    if doc is None:
        return None
    kind = _json.object(doc, f"{what} geometry").get("type")
    if kind == "box":
        return box_mesh(_json.numbers(_json.required(doc, "half_extents", what), 3,
                                      f"{what} 'half_extents'"))
    if kind == "mesh":
        return TriMesh(_json.rows(_json.required(doc, "vertices", what), f"{what} 'vertices'"),
                       _json.rows(_json.required(doc, "faces", what), f"{what} 'faces'",
                                  integer=True))
    if kind == "mesh_file":
        path = Path(_json.string(_json.required(doc, "path", what), f"{what} 'path'"))
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        mesh = load_mesh_file(path)
        if "scale" in doc:
            mesh = mesh.scaled(_json.number(doc["scale"], f"{what} 'scale'"))
        return mesh
    raise DescriptionError(f"unknown geometry type {kind!r}", element=what)


def _parse_native(text: str, base_dir: Path | None):
    doc = _json.load(text, "robot description")
    if doc.get("format") != NATIVE_FORMAT:
        raise DescriptionError(
            f"expected document format {NATIVE_FORMAT!r}, got {doc.get('format')!r}",
            element="format",
        )
    name = doc.get("name", "robot")
    links = []
    for k, l in enumerate(doc.get("links", [])):
        link_name = _json.required(_json.object(l, f"links[{k}]"), "name", f"links[{k}]")
        links.append(LinkSpec(link_name, _geometry_from_native(
            l.get("geometry"), f"link {link_name!r}", base_dir)))
    joints = []
    for k, j in enumerate(doc.get("joints", [])):
        what = f"joints[{k}]"
        joint_name = _json.required(_json.object(j, what), "name", what)
        what = f"joint {joint_name!r}"
        rotation, translation = _origin(_json.object(j.get("origin", {}), f"{what} origin"),
                                        f"{what} origin")
        kind = j.get("kind")
        if kind not in JOINT_KINDS:
            raise DescriptionError(
                f"unsupported joint kind {kind!r}", element=f"joint {joint_name!r}"
            )
        if kind != "fixed" and ("lower" not in j or "upper" not in j):
            raise ValidationError(f"joint {joint_name!r} is {kind} but has no limits")
        joints.append(
            JointSpec(
                joint_name, kind,
                _json.required(j, "parent", what), _json.required(j, "child", what),
                _json.numbers(j.get("axis", [1.0, 0.0, 0.0]), 3, f"{what} 'axis'"),
                rotation, translation,
                _json.number(j.get("lower", 0.0), f"{what} 'lower'"),
                _json.number(j.get("upper", 0.0), f"{what} 'upper'"),
            )
        )
    manifest = None
    if "manifest" in doc:
        manifest = EmbodimentManifest.from_dict(doc["manifest"])
    return name, links, joints, manifest


def parse_robot_description(
    text: str,
    format: str = "urdf",
    manifest: EmbodimentManifest | None = None,
    base_dir: str | Path | None = None,
) -> Embodiment:
    """Parse a robot description into a validated Embodiment.

    `format` is "urdf" or "native". An explicit `manifest` overrides any
    manifest embedded in a native document. `base_dir` anchors relative mesh
    references.
    """
    base = Path(base_dir) if base_dir is not None else None
    if format == "urdf":
        name, links, joints = _parse_urdf(text, base)
        embedded = None
    elif format == "native":
        name, links, joints, embedded = _parse_native(text, base)
    else:
        raise DescriptionError(f"unknown description format {format!r}")
    return build_embodiment(name, links, joints, manifest or embedded)


def serialize_embodiment(e: Embodiment) -> str:
    """Canonical native-JSON serialization (deterministic byte-for-byte)."""
    doc = {
        "format": NATIVE_FORMAT,
        "version": 1,
        "name": e.name,
        "links": [
            {
                "name": l.name,
                "geometry": None if l.mesh is None else {
                    "type": "mesh",
                    "vertices": [[float(v) for v in row] for row in l.mesh.vertices],
                    "faces": [[int(v) for v in row] for row in l.mesh.faces],
                },
            }
            for l in e.links
        ],
        "joints": [
            {
                "name": j.name,
                "kind": j.kind,
                "parent": j.parent_link,
                "child": j.child_link,
                "axis": [float(v) for v in j.axis],
                "origin": {
                    "rotation": [[float(v) for v in row] for row in j.origin_rotation],
                    "translation": [float(v) for v in j.origin_translation],
                },
                "lower": float(j.lower),
                "upper": float(j.upper),
            }
            for j in e.joints
        ],
        "manifest": EmbodimentManifest(
            arm_joints=tuple(e.actuated_joint_names[i] for i in e.arm_indices),
            ee_joints=tuple(e.actuated_joint_names[i] for i in e.ee_indices),
            pad_links=e.pad_links,
            workspace=e.workspace,
            base_rotation=e.base_rotation,
            base_translation=e.base_translation,
        ).to_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_embodiment(
    description_path: str | Path, manifest_path: str | Path | None = None
) -> Embodiment:
    """Load an embodiment from disk, inferring the format from the extension.

    When `manifest_path` is omitted, a sibling ``<stem>.manifest.json`` is used
    if it exists.
    """
    description_path = Path(description_path)
    fmt = "native" if description_path.suffix.lower() == ".json" else "urdf"
    manifest = None
    if manifest_path is None:
        candidate = description_path.with_suffix(".manifest.json")
        if candidate.exists() and candidate != description_path:
            manifest_path = candidate
    if manifest_path is not None:
        manifest = _read_description(Path(manifest_path), EmbodimentManifest.from_json)
    return _read_description(description_path, lambda text: parse_robot_description(
        text, fmt, manifest, base_dir=description_path.parent))


def _read_description(path: Path, parse):
    """`parse(text of path)`; a file that cannot be read (or a mesh file it
    references), text that is not UTF-8 and malformed contents raise a
    DescriptionError naming the file."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:  # mesh files report their own
        raise DescriptionError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") \
            from err
    except OSError as err:
        raise DescriptionError(f"cannot read {err.filename or path}: {err.strerror}") from err
    except DescriptionError as err:
        raise DescriptionError(f"{path}: {err}") from err
