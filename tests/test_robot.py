import json

import numpy as np
import pytest

import helpers
from xembody import (DescriptionError, EmbodimentManifest, JointSpec, LinkSpec,
                     StructureError, ValidationError, box_mesh, build_template,
                     parse_robot_description, serialize_embodiment, validate_embodiment)
from xembody.robot import Embodiment, load_embodiment

PLANAR2_URDF = """
<robot name="planar2">
  <link name="base"/>
  <link name="link1">
    <visual><geometry><box size="1 0.04 0.04"/></geometry></visual>
  </link>
  <link name="link2"/>
  <joint name="j1" type="revolute">
    <parent link="base"/><child link="link1"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.141592653589793" upper="3.141592653589793"/>
  </joint>
  <joint name="j2" type="revolute">
    <parent link="link1"/><child link="link2"/>
    <origin xyz="1 0 0"/><axis xyz="0 0 1"/>
    <limit lower="-3.141592653589793" upper="3.141592653589793"/>
  </joint>
</robot>
"""


def test_parse_planar_urdf():
    e = parse_robot_description(PLANAR2_URDF, "urdf")
    assert e.dof == 2
    assert [l.name for l in e.links] == ["base", "link1", "link2"]
    assert e.actuated_joint_names == ("j1", "j2")
    assert np.allclose(e.lower_limits, [-np.pi, -np.pi])
    # depth 2 below the root
    assert e.links[1].parent_joint == "j1" and e.links[2].parent_joint == "j2"


def test_cached_joint_properties_are_read_only(hand6):
    actuated = [j for j in hand6.joints if j.kind != "fixed"]
    assert hand6.actuated_joints == tuple(actuated)
    assert hand6.dof == len(actuated)
    assert np.array_equal(hand6.lower_limits, [j.lower for j in actuated])
    assert np.array_equal(hand6.upper_limits, [j.upper for j in actuated])
    assert hand6.lower_limits is hand6.lower_limits  # built once per embodiment
    for limits in (hand6.lower_limits, hand6.upper_limits):
        with pytest.raises(ValueError, match="read-only"):
            limits[0] = 0.0


def test_parse_rejects_inverted_limits():
    doc = PLANAR2_URDF.replace('lower="-3.141592653589793" upper="3.141592653589793"',
                               'lower="1.0" upper="0.5"', 1)
    with pytest.raises(ValidationError):
        parse_robot_description(doc, "urdf")


def test_parse_requires_limits_on_actuated_joints():
    doc = PLANAR2_URDF.replace(
        '<limit lower="-3.141592653589793" upper="3.141592653589793"/>', "", 1)
    with pytest.raises(ValidationError):
        parse_robot_description(doc, "urdf")


def test_malformed_xml_reports_line():
    with pytest.raises(DescriptionError) as err:
        parse_robot_description("<robot name='x'><link name='a'>", "urdf")
    assert err.value.line is not None


def test_cyclic_graph_is_a_structure_error():
    doc = """
<robot name="loop">
  <link name="base"/><link name="a"/><link name="b"/>
  <joint name="jab" type="fixed"><parent link="a"/><child link="b"/></joint>
  <joint name="jba" type="fixed"><parent link="b"/><child link="a"/></joint>
</robot>
"""
    with pytest.raises(StructureError):
        parse_robot_description(doc, "urdf")


def test_multiple_roots_is_a_structure_error():
    doc = """
<robot name="forest">
  <link name="a"/><link name="b"/>
</robot>
"""
    with pytest.raises(StructureError):
        parse_robot_description(doc, "urdf")


def test_unsupported_joint_type_is_rejected():
    doc = PLANAR2_URDF.replace('type="revolute"', 'type="floating"', 1)
    with pytest.raises(DescriptionError):
        parse_robot_description(doc, "urdf")


def test_ignored_urdf_features_warn():
    doc = PLANAR2_URDF.replace("</robot>", "<transmission name='t'/></robot>")
    with pytest.warns(UserWarning, match="transmission"):
        parse_robot_description(doc, "urdf")

    doc = PLANAR2_URDF.replace(
        '<axis xyz="0 0 1"/>', '<axis xyz="0 0 1"/><dynamics damping="0.1"/>', 1)
    with pytest.warns(UserWarning, match="dynamics"):
        parse_robot_description(doc, "urdf")

    doc = PLANAR2_URDF.replace(
        "</visual>",
        "</visual><collision><geometry><box size='1 1 1'/></geometry></collision>")
    with pytest.warns(UserWarning, match="collision-vs-visual"):
        e = parse_robot_description(doc, "urdf")
    assert np.isclose(e.links[1].mesh.total_area(), 2 * (0.04 + 0.04 * 0.04 + 0.04))


def test_arm_hand_fixture_dof_split():
    e = parse_robot_description(helpers.arm_hand_native_doc(), "native")
    assert e.dof == 19
    assert e.arm_indices == tuple(range(7))
    assert e.ee_indices == tuple(range(7, 19))


def test_parse_is_deterministic_and_round_trips():
    doc = helpers.arm_hand_native_doc()
    first = serialize_embodiment(parse_robot_description(doc, "native"))
    second = serialize_embodiment(parse_robot_description(doc, "native"))
    assert first == second
    reparsed = parse_robot_description(first, "native")
    assert serialize_embodiment(reparsed) == first


def test_gripper_serialization_round_trip(gripper1):
    blob = serialize_embodiment(gripper1)
    again = parse_robot_description(blob, "native")
    assert serialize_embodiment(again) == blob
    assert again.pad_links == gripper1.pad_links
    assert again.ee_indices == gripper1.ee_indices


def test_validate_clean_fixture(gripper1):
    assert validate_embodiment(gripper1) == []


def test_validate_flags_non_unit_axis():
    e = Embodiment(
        name="bad",
        links=(LinkSpec("base"), LinkSpec("a", None, "j")),
        joints=(JointSpec("j", "revolute", "base", "a", axis=(0.9, 0, 0),
                          lower=-1, upper=1),),
        arm_indices=(0,), ee_indices=(),
    )
    problems = validate_embodiment(e)
    assert any("non-unit axis" in p for p in problems)


def test_validate_flags_duplicate_identifiers():
    e = Embodiment(
        name="dup",
        links=(LinkSpec("base"), LinkSpec("a", None, "j"), LinkSpec("a", None, None)),
        joints=(JointSpec("j", "fixed", "base", "a"),),
        arm_indices=(), ee_indices=(),
    )
    problems = validate_embodiment(e)
    assert any("duplicate identifier" in p for p in problems)


def test_validate_flags_partition_gaps(planar2):
    e = Embodiment(
        name="gap", links=planar2.links, joints=planar2.joints,
        arm_indices=(0,), ee_indices=(),  # dof 2, only one index covered
    )
    problems = validate_embodiment(e)
    assert any("partition" in p for p in problems)


def test_sample_link_surface(gripper1):
    template = build_template(gripper1, ["fixed_pad"], 40, seed=3)
    points, normals = template.points, template.normals
    assert points.shape == (40, 3) and normals.shape == (40, 3)
    assert np.allclose(points[:, 1], 0.0, atol=1e-12)  # plate plane (link frame)
    assert np.allclose(normals, [[0, 1, 0]] * 40, atol=1e-12)
    with pytest.raises(ValidationError, match="no geometry"):
        build_template(helpers.build_planar2(), ["tip"], 4, seed=0)
    with pytest.raises(KeyError):
        build_template(gripper1, ["nope"], 4, seed=0)


def test_configuration_from_split_with_interleaved_partition():
    # An ee joint sits between two arm joints in depth-first dof order; the
    # scatter must honor the declared indices, not block concatenation.
    links = [LinkSpec("base"), LinkSpec("a", None, None), LinkSpec("b", None, None),
             LinkSpec("c", None, None)]
    joints = [
        JointSpec("arm0", "revolute", "base", "a", axis=(0, 0, 1), lower=-1, upper=1),
        JointSpec("grip", "prismatic", "a", "b", axis=(0, 1, 0), lower=-0.1, upper=0.1),
        JointSpec("arm1", "revolute", "b", "c", axis=(0, 0, 1), lower=-1, upper=1),
    ]
    manifest = EmbodimentManifest(arm_joints=("arm0", "arm1"), ee_joints=("grip",))
    e = __import__("xembody").build_embodiment("mix", links, joints, manifest)
    assert e.arm_indices == (0, 2) and e.ee_indices == (1,)

    q = e.configuration_from_split(np.array([0.3, 0.7]), np.array([0.05]))
    assert np.array_equal(q, [0.3, 0.05, 0.7])
    stacked = e.configuration_from_split(np.array([[0.3, 0.7], [0.1, 0.2]]),
                                         np.array([[0.05], [-0.02]]))
    assert np.array_equal(stacked, [[0.3, 0.05, 0.7], [0.1, -0.02, 0.2]])
    with pytest.raises(ValidationError):
        e.configuration_from_split(np.zeros(3), np.zeros(1))


@pytest.mark.parametrize("geometry, field", [
    ({"type": "box", "half_extents": [0.01, "a", 0.01]}, "'half_extents'"),
    ({"type": "box", "half_extents": 0.01}, "'half_extents'"),
    ({"type": "mesh", "vertices": [["x", 0, 0], [1, 0, 0], [0, 1, 0]], "faces": [[0, 1, 2]]},
     "'vertices' row 0"),
    ({"type": "mesh", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1]], "faces": [[0, 1, 2]]},
     "'vertices' row 2"),
    ({"type": "mesh", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "faces": [[0, 1, 2.0]]},
     "'faces' row 0"),
    ({"type": "mesh", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "faces": "0 1 2"},
     "'faces'"),
    ({"type": "mesh_file", "path": "link.obj", "scale": "2"}, "'scale'"),
    ({"type": "mesh_file", "path": 7}, "'path'"),
])
def test_native_geometry_fields_are_type_checked(tmp_path, geometry, field):
    (tmp_path / "link.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    doc = {"format": "xembody-robot", "name": "one",
           "links": [{"name": "base", "geometry": geometry}], "joints": []}
    with pytest.raises(DescriptionError, match=f"link 'base' {field}"):
        parse_robot_description(json.dumps(doc), "native", base_dir=tmp_path)


def test_split_configuration_inverts_configuration_from_split(rng):
    # The manifest lists the arm joints against depth-first order, so the arm
    # block runs (arm1, arm0) while the dof order is (arm0, grip, arm1).
    links = [LinkSpec("base"), LinkSpec("a"), LinkSpec("b"), LinkSpec("c")]
    joints = [
        JointSpec("arm0", "revolute", "base", "a", axis=(0, 0, 1), lower=-1, upper=1),
        JointSpec("grip", "prismatic", "a", "b", axis=(0, 1, 0), lower=-0.1, upper=0.1),
        JointSpec("arm1", "revolute", "b", "c", axis=(0, 0, 1), lower=-1, upper=1),
    ]
    manifest = EmbodimentManifest(arm_joints=("arm1", "arm0"), ee_joints=("grip",))
    e = __import__("xembody").build_embodiment("reversed", links, joints, manifest)
    assert e.arm_indices == (2, 0) and e.ee_indices == (1,)

    arm, ee = e.split_configuration(np.array([0.3, 0.05, 0.7]))
    assert np.array_equal(arm, [0.7, 0.3]) and np.array_equal(ee, [0.05])
    qs = rng.uniform(-1, 1, size=(5, 3))
    arm, ee = e.split_configuration(qs)
    assert arm.shape == (5, 2) and ee.shape == (5, 1)
    assert np.array_equal(e.configuration_from_split(arm, ee), qs)
    again = e.split_configuration(e.configuration_from_split(arm, ee))
    assert np.array_equal(again[0], arm) and np.array_equal(again[1], ee)
    with pytest.raises(ValidationError, match="does not match dof"):
        e.split_configuration(np.zeros((5, 2)))


def test_manifest_json_round_trip(gripper1):
    manifest = EmbodimentManifest(
        arm_joints=("a",), ee_joints=("b",), pad_links=("pad",),
        workspace=(np.array([-1.0, -1, 0]), np.array([1.0, 1, 2])),
        base_translation=np.array([0.0, 0.5, 0.0]),
    )
    again = EmbodimentManifest.from_json(manifest.to_json())
    assert again.arm_joints == ("a",) and again.pad_links == ("pad",)
    assert np.allclose(again.workspace[0], [-1, -1, 0])
    assert np.allclose(again.base_translation, [0, 0.5, 0])


def test_load_embodiment_with_sidecar(tmp_path, gripper1):
    desc = tmp_path / "grip.json"
    desc.write_text(serialize_embodiment(gripper1))
    e = load_embodiment(desc)
    assert e.dof == 1 and e.pad_links == gripper1.pad_links

    # Sidecar manifest overrides the embedded one.
    sidecar = tmp_path / "grip.manifest.json"
    sidecar.write_text(json.dumps({
        "arm_joints": [], "ee_joints": ["slide"], "pad_links": ["fixed_pad"],
        "world_to_base": {"translation": [0, 0, 0.5]},
    }))
    e2 = load_embodiment(desc)
    assert e2.pad_links == ("fixed_pad",)
    assert np.allclose(e2.base_translation, [0, 0, 0.5])


def test_urdf_mesh_reference_and_scale(tmp_path):
    (tmp_path / "tri.obj").write_text("v 0 0 0\nv 2 0 0\nv 0 2 0\nf 1 2 3\n")
    doc = """
<robot name="meshy">
  <link name="base"><visual><geometry>
    <mesh filename="tri.obj" scale="0.5 0.5 0.5"/>
  </geometry></visual></link>
</robot>
"""
    e = parse_robot_description(doc, "urdf", base_dir=tmp_path)
    assert np.isclose(e.links[0].mesh.total_area(), 0.5)
