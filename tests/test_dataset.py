import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from xembody import (ChecksumError, DatasetError, DatasetFormatError, PointCloud, crop_workspace,
                     ingest_recorded_log, read_demonstration, read_index,
                     write_demonstration, write_dataset)
from xembody.cli import main
from xembody.dataset import DatasetIndex, IndexEntry, write_index


def small_demo(gripper1, length=4, seed=0, n_table=60, n_object=12):
    traj = helpers.pinch_trajectory(length)
    return helpers.make_source_demo(gripper1, traj, seed=seed,
                                    n_table=n_table, n_object=n_object)


def test_round_trip_exact_at_float32(tmp_path, gripper1):
    demo = small_demo(gripper1)
    checksum = write_demonstration(demo, tmp_path / "d0")
    again = read_demonstration(tmp_path / "d0", checksum)
    assert len(again) == len(demo)
    for t in range(len(demo)):
        assert np.array_equal(again.clouds[t].points,
                              demo.clouds[t].points.astype(np.float32).astype(np.float64))
    assert np.array_equal(again.ee_positions,
                          demo.ee_positions.astype(np.float32).astype(np.float64))
    assert again.initial_state == demo.initial_state
    assert again.embodiment == demo.embodiment


def test_write_is_deterministic(tmp_path, gripper1):
    demo = small_demo(gripper1)
    a = write_demonstration(demo, tmp_path / "a")
    b = write_demonstration(demo, tmp_path / "b")
    assert a == b
    assert (tmp_path / "a" / "frames" / "000000.bin").read_bytes() == \
        (tmp_path / "b" / "frames" / "000000.bin").read_bytes()


def test_rewrite_in_place_keeps_only_new_frames(tmp_path, gripper1, capsys):
    write_dataset({"d": small_demo(gripper1, length=12)}, tmp_path / "ds")
    index = write_dataset({"d": small_demo(gripper1, length=7, seed=1)}, tmp_path / "ds")
    frames = sorted(p.name for p in (tmp_path / "ds" / "d" / "frames").iterdir())
    assert frames == [f"{t:06d}.bin" for t in range(7)]
    assert len(read_demonstration(tmp_path / "ds" / "d", index.entries[0].checksum)) == 7
    assert main(["validate", str(tmp_path / "ds")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["demos_checked"] == 1


def test_single_frame_demo(tmp_path, gripper1):
    demo = small_demo(gripper1, length=1)
    checksum = write_demonstration(demo, tmp_path / "one")
    again = read_demonstration(tmp_path / "one", checksum)
    assert len(again) == 1


def test_file_size_matches_closed_form(tmp_path, gripper1):
    length, m = 105, 1024
    rng = np.random.default_rng(0)
    from xembody import Demonstration

    clouds = tuple(PointCloud(rng.normal(size=(m, 3))) for _ in range(length))
    traj = np.linspace(0.0, -0.05, length)[:, None]
    demo = Demonstration("gripper1", clouds, traj[:, :0], traj, traj[:, :0], traj)
    write_demonstration(demo, tmp_path / "big")
    dof = 1
    expected = 4 * (3 * m + 2 * dof)
    for t in range(length):
        assert (tmp_path / "big" / "frames" / f"{t:06d}.bin").stat().st_size == expected


def test_truncated_frame_names_the_frame(tmp_path, gripper1):
    demo = small_demo(gripper1)
    write_demonstration(demo, tmp_path / "d")
    block = tmp_path / "d" / "frames" / "000002.bin"
    block.write_bytes(block.read_bytes()[:-4])
    with pytest.raises(DatasetFormatError, match="frame 2"):
        read_demonstration(tmp_path / "d")


def test_foreign_byte_order_is_rejected(tmp_path, gripper1):
    demo = small_demo(gripper1)
    write_demonstration(demo, tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["byte_order"] = "big"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="byte order"):
        read_demonstration(tmp_path / "d")


def test_checksum_detects_single_byte_corruption(tmp_path, gripper1):
    demo = small_demo(gripper1)
    checksum = write_demonstration(demo, tmp_path / "d")
    block = tmp_path / "d" / "frames" / "000001.bin"
    raw = bytearray(block.read_bytes())
    raw[10] ^= 0xFF
    block.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        read_demonstration(tmp_path / "d", checksum)


@pytest.fixture(scope="module")
def pristine_demo(tmp_path_factory, gripper1):
    path = tmp_path_factory.mktemp("pristine") / "d"
    checksum = write_demonstration(small_demo(gripper1), path)
    return path, checksum


FRAME = st.integers(0, 3)  # small_demo has four frames
DAMAGE = st.one_of(
    st.tuples(st.just("flip"), FRAME, st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("truncate"), FRAME, st.integers(0, 10**6)),
    st.tuples(st.just("extend"), FRAME, st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("manifest-prefix"), st.integers(0, 10**6)),
)


@settings(max_examples=80, deadline=None)
@given(damage=DAMAGE)
def test_any_damage_raises_a_dataset_error(pristine_demo, damage):
    source, checksum = pristine_demo
    with tempfile.TemporaryDirectory() as tmp:
        demo = Path(tmp) / "d"
        shutil.copytree(source, demo)
        kind = damage[0]
        target = demo / "manifest.json" if kind == "manifest-prefix" \
            else demo / "frames" / f"{damage[1]:06d}.bin"
        raw = bytearray(target.read_bytes())
        if kind == "flip":
            raw[damage[2] % len(raw)] ^= damage[3]
        elif kind == "truncate":
            del raw[damage[2] % len(raw):]
        elif kind == "extend":
            raw += damage[2]
        else:
            del raw[damage[1] % len(raw):]  # any strict prefix, empty included
        target.write_bytes(bytes(raw))
        with pytest.raises(DatasetError):
            read_demonstration(demo, checksum)


def test_dataset_index_round_trip(tmp_path, gripper1):
    demos = {"a": small_demo(gripper1, seed=1), "b": small_demo(gripper1, seed=2)}
    index = write_dataset(demos, tmp_path / "ds")
    again = read_index(tmp_path / "ds")
    assert [e.demo_id for e in again.entries] == ["a", "b"]
    for entry in again.entries:
        read_demonstration(tmp_path / "ds" / entry.path, entry.checksum)


def test_index_rejects_duplicate_ids():
    entry = IndexEntry("x", "x", "e", 1, "00")
    with pytest.raises(DatasetFormatError):
        DatasetIndex((entry, entry))


def test_ingest_recorded_log(tmp_path, gripper1):
    rng = np.random.default_rng(7)
    length = 6
    joints = helpers.pinch_trajectory(length)
    arrays = {"joints": joints}
    for t in range(length):
        arrays[f"cloud_{t:06d}"] = rng.uniform(-0.4, 0.4, (100, 3))
    log = tmp_path / "log.npz"
    np.savez(log, **arrays)

    box = gripper1.workspace
    demo = ingest_recorded_log(log, gripper1, box)
    assert len(demo) == length
    assert np.array_equal(demo.ee_positions, joints)
    assert np.array_equal(demo.ee_targets[:-1], joints[1:])
    for t in range(length):
        oracle = crop_workspace(PointCloud(arrays[f"cloud_{t:06d}"]), box)
        assert np.array_equal(demo.clouds[t].points, oracle.points)


def test_ingest_warns_on_out_of_limit_joints(tmp_path, gripper1):
    joints = np.array([[0.0], [0.5]])  # 0.5 exceeds the slide's upper limit 0.0
    arrays = {"joints": joints,
              "cloud_000000": np.zeros((4, 3)), "cloud_000001": np.zeros((4, 3))}
    log = tmp_path / "log.npz"
    np.savez(log, **arrays)
    with pytest.warns(UserWarning, match="outside limits"):
        demo = ingest_recorded_log(log, gripper1, gripper1.workspace)
    assert np.array_equal(demo.ee_positions, joints)  # frames retained


def test_ingest_reports_missing_frames(tmp_path, gripper1):
    joints = helpers.pinch_trajectory(4)
    arrays = {"joints": joints, "cloud_000000": np.zeros((4, 3)),
              "cloud_000002": np.zeros((4, 3))}
    log = tmp_path / "log.npz"
    np.savez(log, **arrays)
    with pytest.raises(DatasetFormatError, match=r"\[1, 3\]"):
        ingest_recorded_log(log, gripper1, gripper1.workspace)


@pytest.mark.parametrize("initial_state", ['{"object": "toy"', '["toy"]'],
                         ids=["bad-json", "not-an-object"])
def test_ingest_rejects_malformed_initial_state(tmp_path, gripper1, initial_state):
    arrays = {"joints": np.zeros((1, 1)), "cloud_000000": np.zeros((4, 3)),
              "initial_state": np.array(initial_state)}
    log = tmp_path / "log.npz"
    np.savez(log, **arrays)
    with pytest.raises(DatasetFormatError, match="initial_state"):
        ingest_recorded_log(log, gripper1, gripper1.workspace)


def test_index_read_rejects_non_dataset(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(DatasetFormatError):
        read_index(tmp_path)
    with pytest.raises(DatasetFormatError):
        read_index(tmp_path / "missing")
