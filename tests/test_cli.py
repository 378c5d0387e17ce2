import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import xembody
from xembody import serialize_embodiment, write_dataset
from xembody.cli import main
from xembody.dataset import INDEX_FORMAT, read_demonstration, read_index
from xembody.synth import derive_frame_seed


@pytest.fixture()
def robot_files(tmp_path, gripper1, hand6):
    src = tmp_path / "gripper1.json"
    tgt = tmp_path / "hand6.json"
    src.write_text(serialize_embodiment(gripper1))
    tgt.write_text(serialize_embodiment(hand6))
    return src, tgt


@pytest.fixture()
def source_dataset(tmp_path, gripper1):
    demos = {
        f"demo{k}": helpers.make_source_demo(
            gripper1, helpers.pinch_trajectory(5 + k), seed=k, n_table=150, n_object=30)
        for k in range(2)
    }
    path = tmp_path / "source"
    write_dataset(demos, path)
    return path


def retarget_args(src, tgt, inp, out, **extra):
    args = ["retarget", "--source", str(src), "--target", str(tgt),
            "--input", str(inp), "--out", str(out),
            "--seed", "5", "--points", "64", "--max-steps", "60"]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def dataset_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_retarget_end_to_end(tmp_path, robot_files, source_dataset):
    src, tgt = robot_files
    out = tmp_path / "out"
    code = main(retarget_args(src, tgt, source_dataset, out))
    assert code == 0
    index = read_index(out)
    assert len(index) == 2
    for entry in index.entries:
        demo = read_demonstration(out / entry.path, entry.checksum)
        assert demo.embodiment == "hand6"
        assert all(len(c) == 64 for c in demo.clouds)
        assert demo.ee_positions.shape[1] == 6
    report = json.loads(Path(str(out) + ".report.json").read_text())
    assert report["totals"]["demos"] == 2 and report["totals"]["failed"] == 0
    for d in report["demos"]:
        # per-frame alignment diagnostics are part of the report contract
        assert len(d["steps"]) == d["length"]
        assert len(d["loss"]) == len(d["dcd"]) == len(d["early_stopped"]) == d["length"]
        assert all(s <= 60 for s in d["steps"])
        assert d["wall_clock_s"] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_retarget_prints_one_progress_line_per_demo(tmp_path, robot_files, source_dataset,
                                                    workers, capsys):
    src, tgt = robot_files
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out, workers=workers)) == 0
    lines = capsys.readouterr().err.splitlines()
    report = json.loads(Path(str(out) + ".report.json").read_text())
    assert lines == [
        f"retarget [{k + 1}/2] {d['id']}: {d['length']} frames, "
        f"align {d['align_s']:.2f}s, synth {d['synth_s']:.2f}s"
        for k, d in enumerate(report["demos"])
    ]


def test_retarget_empty_dataset_exits_zero(tmp_path, robot_files):
    src, tgt = robot_files
    empty = tmp_path / "empty"
    write_dataset({}, empty)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="empty"):
        code = main(retarget_args(src, tgt, empty, out))
    assert code == 0
    assert len(read_index(out)) == 0


def test_retarget_isolates_corrupt_demos(tmp_path, robot_files, source_dataset):
    src, tgt = robot_files
    block = source_dataset / "demo0" / "frames" / "000001.bin"
    block.write_bytes(block.read_bytes()[:-8])
    out = tmp_path / "out"
    code = main(retarget_args(src, tgt, source_dataset, out))
    assert code == 1
    index = read_index(out)
    assert [e.demo_id for e in index.entries] == ["demo1"]
    read_demonstration(out / "demo1", index.entries[0].checksum)


def test_retarget_rejects_same_size_corruption(tmp_path, robot_files, source_dataset):
    # A flipped byte keeps every size right, so only the index checksum catches it.
    src, tgt = robot_files
    block = source_dataset / "demo0" / "frames" / "000001.bin"
    raw = bytearray(block.read_bytes())
    raw[5] ^= 0x01
    block.write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out)) == 1
    report = json.loads(Path(str(out) + ".report.json").read_text())
    by_id = {d["id"]: d for d in report["demos"]}
    assert by_id["demo0"]["error"].startswith("ChecksumError")
    assert by_id["demo1"]["ok"]
    assert not (out / "demo0").exists()
    assert [e.demo_id for e in read_index(out).entries] == ["demo1"]


def test_retarget_deterministic_across_worker_counts(tmp_path, robot_files, source_dataset):
    src, tgt = robot_files
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(retarget_args(src, tgt, source_dataset, out1, workers=1)) == 0
    assert main(retarget_args(src, tgt, source_dataset, out2, workers=2)) == 0
    assert dataset_bytes(out1) == dataset_bytes(out2)


def test_retarget_with_manifest_file_and_eis(tmp_path, robot_files, source_dataset):
    src, tgt = robot_files
    out = tmp_path / "out"
    manifest = {
        "source": {"description": str(src)},
        "target": {"description": str(tgt)},
        "input": str(source_dataset),
        "output": str(out),
        "seed": 3,
        "template": {"points_per_link": 8},
        "alignment": {"max_steps": 40},
        "synthesis": {"output_size": 32, "robot_points": 128},
        "eis": {"enabled": True, "samples": 64, "fraction": 0.1},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    assert main(["retarget", "--manifest", str(path)]) == 0
    assert len(read_index(out)) == 2


def test_augment_counts(tmp_path, robot_files, gripper1):
    src, tgt = robot_files
    demos = {"d": helpers.make_source_demo(gripper1, helpers.pinch_trajectory(5),
                                           seed=0, n_table=120, n_object=24)}
    inp = tmp_path / "in"
    write_dataset(demos, inp)
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({
        "anchors": [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]],
        "object_box": {"min": [-0.02, -0.05, -0.02], "max": [0.02, 0.0, 0.02]},
    }))
    out = tmp_path / "aug"
    code = main(["augment", "--source", str(src), "--target", str(tgt),
                 "--input", str(inp), "--out", str(out), "--seed", "2",
                 "--points", "32", "--max-steps", "40",
                 "--anchors-file", str(anchors), "--grid-n", "2", "--grid-range", "0.04"])
    assert code == 0
    index = read_index(out)
    assert len(index) == 1 * 2 * 4  # demos x anchors x n^2


def test_augment_identity_grid_preserves_count(tmp_path, robot_files, gripper1):
    src, tgt = robot_files
    demos = {"d": helpers.make_source_demo(gripper1, helpers.pinch_trajectory(4),
                                           seed=0, n_table=100, n_object=20)}
    inp = tmp_path / "in"
    write_dataset(demos, inp)
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({"anchors": [[0.0, 0.0, 0.0]]}))
    out = tmp_path / "aug"
    code = main(["augment", "--source", str(src), "--target", str(tgt),
                 "--input", str(inp), "--out", str(out), "--seed", "2",
                 "--points", "32", "--max-steps", "40",
                 "--anchors-file", str(anchors), "--grid-n", "1", "--grid-range", "0.04"])
    assert code == 0
    assert len(read_index(out)) == 1


@pytest.mark.parametrize("text", [
    "{}",
    "[[0.0, 0.0, 0.0]]",
    '{"anchors": [[0.0, 0.0, 0.0]',
    '{"anchors": [[0.0, 0.0, 0.0]], "object_box": {"min": [0.0, 0.0, 0.0]}}',
], ids=["empty-object", "not-an-object", "bad-json", "box-without-max"])
def test_augment_rejects_malformed_anchors_file(tmp_path, robot_files, source_dataset,
                                                text, capsys):
    src, tgt = robot_files
    anchors = tmp_path / "anchors.json"
    anchors.write_text(text)
    code = main(["augment", "--source", str(src), "--target", str(tgt),
                 "--input", str(source_dataset), "--out", str(tmp_path / "aug"),
                 "--anchors-file", str(anchors), "--grid-n", "1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "aug").exists()


def test_output_ids_never_share_frame_seeds(tmp_path, robot_files, gripper1):
    # The hash rule must give every (demo id, frame) a distinct stream.
    ids = [f"d-a{a:02d}g{i:02d}x{j:02d}" for a in range(10) for i in range(4) for j in range(4)]
    seeds = {derive_frame_seed(7, out_id, t) for out_id in ids for t in range(105)}
    assert len(seeds) == len(ids) * 105


def test_validate_passes_fresh_dataset(tmp_path, robot_files, source_dataset):
    src, tgt = robot_files
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out)) == 0
    assert main(["validate", str(out), "--points", "64", "--embodiment", str(tgt)]) == 0


def test_validate_finds_truncation(tmp_path, robot_files, source_dataset, capsys):
    src, tgt = robot_files
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out)) == 0
    block = out / "demo0" / "frames" / "000000.bin"
    block.write_bytes(block.read_bytes()[:-4])
    capsys.readouterr()  # drop the retarget summary line
    assert main(["validate", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any("bytes" in f["finding"] or "checksum" in f["finding"].lower()
               for f in report["findings"])


def _drop_length(manifest: Path) -> None:
    doc = json.loads(manifest.read_text())
    del doc["length"]
    manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [
    lambda demo: (demo / "frames" / "000001.bin").unlink(),
    lambda demo: (demo / "manifest.json").write_bytes((demo / "manifest.json").read_bytes()[:40]),
    lambda demo: _drop_length(demo / "manifest.json"),
], ids=["missing-frame", "cut-manifest", "no-length"])
def test_validate_reports_damaged_demo(source_dataset, damage, capsys):
    damage(source_dataset / "demo0")
    assert main(["validate", str(source_dataset)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["demos_checked"] == 2
    assert [f["demo"] for f in report["findings"]] == ["demo0"]


@pytest.mark.parametrize("entry", [
    {"id": "a"},
    {"id": "a", "path": None, "embodiment": "hand6", "length": 1, "checksum": "0"},
], ids=["missing-key", "null-path"])
def test_validate_reports_malformed_index_entry(tmp_path, entry, capsys):
    (tmp_path / "index.json").write_text(json.dumps({"format": INDEX_FORMAT,
                                                     "demos": [entry]}))
    assert main(["validate", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(report["findings"]) == 1
    finding = report["findings"][0]["finding"]
    assert "demos[0]" in finding and "'a'" in finding and "'path'" in finding


def test_validate_finds_limit_violation(tmp_path, gripper1, robot_files, capsys):
    src, _ = robot_files
    demo = helpers.make_source_demo(gripper1, helpers.pinch_trajectory(4),
                                    seed=0, n_table=60, n_object=10)
    bad = helpers.make_source_demo(gripper1, np.full((4, 1), 0.5),  # above upper 0.0
                                   seed=0, n_table=60, n_object=10)
    ds = tmp_path / "ds"
    write_dataset({"good": demo, "bad": bad}, ds)
    assert main(["validate", str(ds), "--embodiment", str(src)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any("slide" in f["finding"] for f in report["findings"])
    assert all(f["demo"] == "bad" for f in report["findings"])


def test_inspect_round_trip(tmp_path, robot_files, source_dataset, capsys):
    src, tgt = robot_files
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out)) == 0
    obj_path = tmp_path / "frame.obj"
    code = main(["inspect", "--demo", str(out / "demo0"), "--frame", "0",
                 "--out", str(obj_path), "--embodiment", str(tgt),
                 "--points-per-link", "4"])
    assert code == 0

    demo = read_demonstration(out / "demo0")
    vertices = []
    lines = []
    for row in obj_path.read_text().splitlines():
        if row.startswith("v "):
            vertices.append([float(x) for x in row.split()[1:]])
        elif row.startswith("l "):
            lines.append(row)
    vertices = np.array(vertices, dtype=np.float32)
    # scene points come first and re-import exactly at float32 precision
    assert np.array_equal(vertices[: len(demo.clouds[0])],
                          demo.clouds[0].points.astype(np.float32))
    assert len(vertices) > len(demo.clouds[0])  # rep points and whiskers follow
    assert lines  # direction whiskers present


def test_inspect_rejects_out_of_range_frame(tmp_path, robot_files, source_dataset):
    src, tgt = robot_files
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out)) == 0
    code = main(["inspect", "--demo", str(out / "demo0"), "--frame", "99",
                 "--out", str(tmp_path / "x.obj")])
    assert code == 2


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy and the standard library only; scipy is a test
    # dependency. A fresh interpreter shows what `import xembody.cli` pulls in.
    src = str(Path(xembody.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, xembody.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
