"""Every reader of outside JSON either takes a value as its field's type or
refuses it with its caller's error class, whatever JSON value it is given."""

import argparse
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from xembody import (DatasetFormatError, DescriptionError, XembodyError,
                     parse_robot_description, read_demonstration, write_demonstration)
from xembody import cli

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.floats() | st.integers()
    | st.sampled_from([10**400, -10**400, 2**63, -2**63 - 1]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def joint_translation(root, value):
    doc = {"format": "xembody-robot", "name": "two",
           "links": [{"name": "base"}, {"name": "tip"}],
           "joints": [{"name": "j", "kind": "fixed", "parent": "base", "child": "tip",
                       "origin": {"translation": [value, 0.0, 0.0]}}]}
    return parse_robot_description(json.dumps(doc), "native").joints[0].origin_translation[0]


def template_seed(root, value):
    path = root / "run.json"
    path.write_text(json.dumps({"source": {"description": "s.json"},
                                "target": {"description": "t.json"}, "input": "in",
                                "output": "out", "template": {"seed": value}}))
    flags = {flag: None for flag, *_ in cli.MANIFEST_KEYS.values() if flag is not None}
    args = argparse.Namespace(manifest=str(path), report=None, **flags)
    return cli.load_run_manifest(args).template_seed


def anchor_coordinate(root, value):
    path = root / "anchors.json"
    path.write_text(json.dumps({"anchors": [[value, 0.0, 0.0]]}))
    return cli._read_anchors_file(str(path))[0][0, 0]


def demo_seed(root, value):
    manifest = root / "demo" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["seed"] = value
    manifest.write_text(json.dumps(doc))
    return read_demonstration(root / "demo").seed


# reader -> (the field written with the value and read back, the error it
# raises, the values that are the field's type, the value each is read as)
READERS = {
    "robot description": (joint_translation, DescriptionError, finite_number, float),
    "run manifest": (template_seed, XembodyError, integer, int),
    "anchors file": (anchor_coordinate, XembodyError, finite_number, float),
    "demo manifest": (demo_seed, DatasetFormatError, integer, int),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory, gripper1):
    root = tmp_path_factory.mktemp("fields")
    write_demonstration(helpers.make_source_demo(gripper1, helpers.pinch_trajectory(2),
                                                 n_table=8, n_object=4), root / "demo")
    return root


@settings(max_examples=200, deadline=None)
@given(reader=st.sampled_from(sorted(READERS)), value=JSON_VALUES)
def test_any_json_value_is_read_as_its_type_or_refused(root, reader, value):
    read, error, accepts, kind = READERS[reader]
    try:
        got = read(root, value)
    except error:
        assert not accepts(value)
        return
    assert accepts(value) and got == kind(value)
