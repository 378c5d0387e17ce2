import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import xembody
from xembody import AlignmentConfig, SynthConfig, serialize_embodiment, write_dataset
from xembody import cli, native
from xembody.cli import EIS_SAMPLES, MANIFEST_KEYS, RunManifest, main
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


def test_worker_pool_never_outnumbers_the_demos(tmp_path, robot_files, source_dataset,
                                                monkeypatch):
    # A stand-in executor: records its size and maps serially, so no process starts.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    src, tgt = robot_files
    out = tmp_path / "out"
    assert main(retarget_args(src, tgt, source_dataset, out, workers=64)) == 0
    assert sizes == [2] and len(read_index(out)) == 2


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
    '{"anchors": [[0.0, 0.0, 0.0]], "object_box": {"min": [0, 0, 1], "max": [1, 1, 0]}}',
    '{"anchors": [[0.0, true, 0.0]]}',
    '{"anchors": [0.0, 0.0, 0.0, 0.1, 0.0, 0.0]}',
    '{"anchors": [[[0.0, 0.0, 0.0]]]}',
    "[" * 100000,
], ids=["empty-object", "not-an-object", "bad-json", "box-without-max", "inverted-box",
        "bool-coordinate", "flat-anchors", "nested-anchors", "deep-nesting"])
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


def _edit_manifest(demo: Path, edit) -> None:
    doc = json.loads((demo / "manifest.json").read_text())
    edit(doc)
    (demo / "manifest.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [
    lambda demo: (demo / "frames" / "000001.bin").unlink(),
    lambda demo: (demo / "manifest.json").write_bytes((demo / "manifest.json").read_bytes()[:40]),
    lambda demo: _edit_manifest(demo, lambda doc: doc.pop("length")),
    lambda demo: _edit_manifest(demo, lambda doc: doc.update(length=str(doc["length"]))),
    lambda demo: _edit_manifest(demo, lambda doc: doc.update(arm_dof=doc["arm_dof"] + 0.9)),
    lambda demo: _edit_manifest(demo, lambda doc: doc.update(
        arm_dof=-1, ee_dof=doc["arm_dof"] + doc["ee_dof"] + 1)),
    lambda demo: _edit_manifest(demo, lambda doc: doc.update(seed=str(doc["seed"]))),
    lambda demo: (demo / "manifest.json").unlink() or (demo / "manifest.json").mkdir(),
    lambda demo: (demo / "frames" / "000001.bin").unlink()
    or (demo / "frames" / "000001.bin").mkdir(),
], ids=["missing-frame", "cut-manifest", "no-length", "string-length", "fractional-arm-dof",
        "negative-arm-dof", "string-seed", "manifest-is-a-directory",
        "frame-block-is-a-directory"])
def test_validate_reports_damaged_demo(source_dataset, damage, capsys):
    damage(source_dataset / "demo0")
    assert main(["validate", str(source_dataset)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["demos_checked"] == 2
    assert [f["demo"] for f in report["findings"]] == ["demo0"]


@pytest.mark.parametrize("entry, key", [
    ({"id": "a"}, "'path'"),
    ({"id": "a", "path": None, "embodiment": "hand6", "length": 1, "checksum": "0"}, "'path'"),
    ({"id": "a", "path": "a", "embodiment": "hand6", "length": 2.5, "checksum": "0"},
     "'length'"),
], ids=["missing-key", "null-path", "fractional-length"])
def test_validate_reports_malformed_index_entry(tmp_path, entry, key, capsys):
    (tmp_path / "index.json").write_text(json.dumps({"format": INDEX_FORMAT,
                                                     "demos": [entry]}))
    assert main(["validate", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(report["findings"]) == 1
    finding = report["findings"][0]["finding"]
    assert "demos[0]" in finding and "'a'" in finding and key in finding


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


def test_validate_accepts_configurations_at_the_limits(tmp_path, hand6, robot_files, capsys):
    # float32(0.075) is 0.0750000030: a demo at its limits must still validate.
    _, tgt = robot_files
    lo, hi = hand6.lower_limits, hand6.upper_limits
    demos = {name: helpers.make_source_demo(hand6, np.tile(q, (3, 1)), n_table=20, n_object=4)
             for name, q in (("lower", lo), ("upper", hi))}
    write_dataset(demos, tmp_path / "ok")
    assert main(["validate", str(tmp_path / "ok"), "--embodiment", str(tgt)]) == 0
    capsys.readouterr()

    # One float32 step beyond a limit is flagged, on either side.
    one_step = {}
    for name, q, d, away in (("below", lo, 0, -np.inf), ("above", hi, 2, np.inf)):
        beyond = q.copy()
        beyond[d] = np.nextafter(np.float32(q[d]), np.float32(away))
        one_step[name] = helpers.make_source_demo(hand6, np.tile(beyond, (3, 1)),
                                                  n_table=20, n_object=4)
    write_dataset(one_step, tmp_path / "bad")
    assert main(["validate", str(tmp_path / "bad"), "--embodiment", str(tgt)]) == 1
    findings = {(f["demo"], f["finding"]) for f in json.loads(capsys.readouterr().out)["findings"]}
    assert findings == {("below", "joint 'thumb_slide' outside limits"),
                        ("above", "joint 'finger_l_slide' outside limits")}


def test_validate_reports_nonfinite_joint_value(tmp_path, hand6, robot_files, capsys):
    _, tgt = robot_files
    trajectory = np.tile(hand6.mid_range_configuration(), (3, 1))
    ds = tmp_path / "ds"
    write_dataset({name: helpers.make_source_demo(hand6, trajectory, n_table=20, n_object=4)
                   for name in ("clean", "poisoned")}, ds)
    # One proprioception float of frame 1 becomes NaN, and the index checksum
    # (BLAKE2b-64 over the frame blocks in order) is rewritten to match.
    demo = ds / "poisoned"
    points = json.loads((demo / "manifest.json").read_text())["point_counts"][1]
    block = demo / "frames" / "000001.bin"
    values = np.frombuffer(block.read_bytes(), dtype="<f4").copy()
    values[3 * points + 2] = np.nan
    block.write_bytes(values.tobytes())
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((demo / "frames").iterdir()):
        digest.update(path.read_bytes())
    index = json.loads((ds / "index.json").read_text())
    for entry in index["demos"]:
        if entry["id"] == "poisoned":
            entry["checksum"] = digest.hexdigest()
    (ds / "index.json").write_text(json.dumps(index))

    assert main(["validate", str(ds), "--embodiment", str(tgt)]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [f["demo"] for f in findings] == ["poisoned"]
    assert "non-finite" in findings[0]["finding"]


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


# -- run manifest ------------------------------------------------------------

REQUIRED = {"source": {"description": "src.json"}, "target": {"description": "tgt.json"},
            "input": "in", "output": "out"}


def with_key(doc: dict, name: str, value) -> dict:
    doc = json.loads(json.dumps(doc))
    section, _, key = name.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def parse_run(tmp_path, monkeypatch, doc: dict, flags=()) -> RunManifest:
    """The RunManifest that `retarget --manifest <doc> <flags>` would run."""
    seen = []
    monkeypatch.setattr(cli, "_run", lambda command, args, transforms, **augment:
                        seen.append(cli.load_run_manifest(args)) or 0)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["retarget", "--manifest", str(path), *flags]) == 0
    return seen[0]


def test_empty_manifest_gives_the_dataclass_defaults(tmp_path, monkeypatch):
    run = parse_run(tmp_path, monkeypatch, {},
                    ["--source", "s.json", "--target", "t.json", "--input", "i", "--out", "o"])
    assert run == RunManifest("s.json", "t.json", "i", "o")
    assert run.alignment == AlignmentConfig()
    assert run.synthesis == SynthConfig()


# manifest key -> (a non-default manifest value, the setting it gives, the
# flag argv that overrides it or None, the setting the flag gives, the setting
# as the RunManifest holds it). eis.samples only counts with EIS on.
KEY_CASES = {
    "source.description": ("a.json", "a.json", ["--source", "b.json"], "b.json",
                           lambda r: r.source_description),
    "source.manifest": ("a.manifest.json", "a.manifest.json", None, None,
                        lambda r: r.source_manifest),
    "target.description": ("a.json", "a.json", ["--target", "b.json"], "b.json",
                           lambda r: r.target_description),
    "target.manifest": ("a.manifest.json", "a.manifest.json", None, None,
                        lambda r: r.target_manifest),
    "input": ("a", "a", ["--input", "b"], "b", lambda r: r.input_path),
    "output": ("a", "a", ["--out", "b"], "b", lambda r: r.output_path),
    "seed": (3, (3, 3), ["--seed", "0"], (0, 0), lambda r: (r.seed, r.synthesis.seed)),
    "workers": (3, 3, ["--workers", "4"], 4, lambda r: r.workers),
    "template.points_per_link": (8, 8, None, None, lambda r: r.points_per_link),
    "template.seed": (5, 5, None, None, lambda r: r.template_seed),
    "alignment.lambda": (0.25, 0.25, ["--lambda", "0"], 0.0,
                         lambda r: r.alignment.metric.lam),
    "alignment.epsilon": (1e-6, 1e-6, None, None, lambda r: r.alignment.metric.epsilon),
    "alignment.w1": (2, 2.0, ["--w1", "0.5"], 0.5, lambda r: r.alignment.w1),
    "alignment.w2": (0.5, 0.5, ["--w2", "3"], 3.0, lambda r: r.alignment.w2),
    "alignment.max_steps": (20, 20, ["--max-steps", "30"], 30,
                            lambda r: r.alignment.max_steps),
    "alignment.patience": (4, 4, ["--patience", "6"], 6, lambda r: r.alignment.patience),
    "alignment.step_size": (0.05, 0.05, None, None, lambda r: r.alignment.step_size),
    "synthesis.tau": (0.01, 0.01, ["--tau", "0.002"], 0.002, lambda r: r.synthesis.tau),
    "synthesis.workspace": ({"min": [-1, -1, 0], "max": [1, 1, 2]}, [[-1, -1, 0], [1, 1, 2]],
                            None, None, lambda r: r.synthesis.workspace
                            and [c.tolist() for c in r.synthesis.workspace]),
    "synthesis.robot_points": (100, 100, None, None, lambda r: r.synthesis.robot_points),
    "synthesis.output_size": (64, 64, ["--points", "32"], 32,
                              lambda r: r.synthesis.output_size),
    "eis.enabled": (True, EIS_SAMPLES, ["--eis"], EIS_SAMPLES, lambda r: r.eis_samples),
    "eis.samples": (50, 50, ["--eis-samples", "60"], 60, lambda r: r.eis_samples),
    "eis.fraction": (0.5, 0.5, ["--eis-frac", "0.25"], 0.25, lambda r: r.eis_fraction),
}


def test_key_cases_cover_every_manifest_key():
    assert sorted(KEY_CASES) == sorted(MANIFEST_KEYS)
    assert len(MANIFEST_KEYS) == 24


@pytest.mark.parametrize("name", sorted(KEY_CASES))
def test_manifest_key_reaches_its_field_and_its_flag_wins(tmp_path, monkeypatch, name):
    value, want, flag, flag_want, read = KEY_CASES[name]
    base = with_key(REQUIRED, "eis.enabled", True) if name in ("eis.samples", "eis.fraction") \
        else REQUIRED
    got = read(parse_run(tmp_path, monkeypatch, with_key(base, name, value)))
    assert got == want != read(parse_run(tmp_path, monkeypatch, base))
    if flag is not None:
        # eis.enabled: the flag turns on what the manifest turns off
        doc = with_key(base, name, False if value is True else value)
        assert read(parse_run(tmp_path, monkeypatch, doc, flag)) == flag_want


def test_readme_table_lists_every_key_with_its_flag_and_default(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [[c.strip().strip("`") for c in line.strip("|").split("|")]
            for line in readme.read_text().splitlines() if line.startswith("| ")]
    table = {f"{section}.{key}".lstrip("."): (flag, default)
             for section, key, flag, default in rows[2:]}
    assert sorted(table) == sorted(MANIFEST_KEYS)
    defaults = parse_run(tmp_path, monkeypatch, REQUIRED)
    for name, (flag, default) in table.items():
        assert bool(flag) == (MANIFEST_KEYS[name][0] is not None), name
        number = default.split(" ")[0]
        if number.replace(".", "").replace("e-", "").isdigit():
            read = KEY_CASES[name][4]
            assert np.ravel(read(defaults))[0] == float(number), name


def test_manifest_with_the_bench_keys_loads(tmp_path, monkeypatch):
    # The exact keys bench/run.py writes for its retarget and augment workloads.
    doc = {"source": {"description": "gripper1.json"}, "target": {"description": "hand6.json"},
           "input": "source", "output": "out", "seed": 11, "workers": 1,
           "template": {"points_per_link": 16, "seed": 11},
           "alignment": {"max_steps": 300},
           "synthesis": {"robot_points": 1024, "output_size": 1024},
           "eis": {"enabled": True, "samples": 1000}}
    run = parse_run(tmp_path, monkeypatch, doc, ["--report", "r.json"])
    assert (run.seed, run.synthesis.seed, run.template_seed, run.points_per_link) == (11, 11, 11, 16)
    assert run.alignment == AlignmentConfig(max_steps=300)
    assert run.synthesis == SynthConfig(robot_points=1024, output_size=1024, seed=11)
    assert (run.eis_samples, run.report_path) == (1000, "r.json")


@pytest.mark.parametrize("text", [
    '{"alignment": {"max_steps": 3',
    "[1]",
    '{"alignment": 3}',
    '{"alignment": {"optimizer": "adaptive-moments"}}',
    '{"alignment": {"max_step": 5}}',
    '{"template": {"variant": "standard"}}',
    '{"alignment": {"max_steps": "lots"}}',
    '{"alignment": {"max_steps": 5.0}}',
    '{"seed": true}',
    '{"eis": {"enabled": 1}}',
    '{"alignment": {"lambda": NaN}}',
    '{"template": {"seed": null}}',
    '{"synthesis": {"workspace": {"min": [0, 0, 0]}}}',
    '{"synthesis": {"workspace": {"min": [0, 0, 0], "max": [1, 1, "z"]}}}',
    '{"alignment.max_steps": 5}',
    '{"eis": {"samples": 50}}',
    '{"eis": {"enabled": false, "fraction": 0.5}}',
    '{"eis": {"enabled": true, "samples": 9}}',
    '{"eis": {"enabled": true, "samples": 0}}',
    '{"eis": {"enabled": true, "fraction": 0}}',
    '{"eis": {"enabled": true, "fraction": 1.5}}',
    '{"workers": 0}',
    '{"alignment": {"w1": ' + "1" * 400 + "}}",
    '{"synthesis": {"workspace": {"min": [0, 0, 1], "max": [1, 1, 0]}}}',
], ids=["bad-json", "not-an-object", "section-not-an-object", "removed-key", "typo",
        "removed-section-key", "string-for-int", "float-for-int", "bool-for-int",
        "int-for-bool", "nan", "null", "box-without-max", "box-with-string",
        "dotted-top-level-key", "eis-samples-without-eis", "eis-fraction-without-eis",
        "eis-samples-below-10", "eis-samples-zero", "eis-fraction-zero",
        "eis-fraction-above-1", "no-workers", "400-digit-number", "inverted-workspace"])
def test_malformed_manifest_exits_2_before_any_output(tmp_path, robot_files, source_dataset,
                                                      text, capsys):
    src, tgt = robot_files
    manifest = tmp_path / "run.json"
    manifest.write_text(text)
    out = tmp_path / "out"
    code = main(["retarget", "--source", str(src), "--target", str(tgt), "--input",
                 str(source_dataset), "--out", str(out), "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not out.exists() and not Path(str(out) + ".report.json").exists()


@pytest.mark.parametrize("flags", [
    ["--eis-samples", "50"], ["--eis-frac", "0.5"], ["--eis", "--eis-samples", "5"],
    ["--eis", "--eis-frac", "0"], ["--workers", "-3"],
], ids=["eis-samples-without-eis", "eis-frac-without-eis", "eis-samples-below-10",
        "eis-frac-zero", "negative-workers"])
def test_malformed_run_flags_exit_2_before_any_output(tmp_path, robot_files, source_dataset,
                                                      flags, capsys):
    src, tgt = robot_files
    out = tmp_path / "out"
    code = main(retarget_args(src, tgt, source_dataset, out) + flags)
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not out.exists() and not Path(str(out) + ".report.json").exists()


def test_missing_compiler_exits_2_before_any_output(tmp_path, robot_files, source_dataset,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(native, "_COMPILER", "xembody-missing-cc")
    native.load_kernels.cache_clear()
    src, tgt = robot_files
    out = tmp_path / "out"
    try:
        code = main(retarget_args(src, tgt, source_dataset, out))
    finally:
        native.load_kernels.cache_clear()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "xembody-missing-cc" in err[0]
    assert not out.exists() and not Path(str(out) + ".report.json").exists()


def test_inspect_with_missing_compiler_exits_2(tmp_path, robot_files, source_dataset,
                                               monkeypatch, capsys):
    # inspect first needs the kernels when it matches the two sets.
    src, _ = robot_files
    demo = str(source_dataset / "demo0")
    obj_path = tmp_path / "frame.obj"
    monkeypatch.setattr(native, "_COMPILER", "xembody-missing-cc")
    native.load_kernels.cache_clear()
    try:
        code = main(["inspect", "--demo", demo, "--frame", "0", "--out", str(obj_path),
                     "--embodiment", str(src), "--paired-demo", demo,
                     "--paired-embodiment", str(src), "--points-per-link", "4"])
    finally:
        native.load_kernels.cache_clear()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "xembody-missing-cc" in err[0]
    assert not obj_path.exists()


# -- robot descriptions ------------------------------------------------------

def _nameless_link(tmp_path, hand6):
    doc = json.loads(serialize_embodiment(hand6))
    del doc["links"][0]["name"]
    path = tmp_path / "hand6.json"
    path.write_text(json.dumps(doc))
    return path, "'name'"


def _not_an_object(tmp_path, hand6):
    path = tmp_path / "hand6.json"
    path.write_text("[1, 2]")
    return path, "JSON object"


def _missing_file(tmp_path, hand6):
    path = tmp_path / "hand6.json"
    return path, "No such file"


def _not_utf8(tmp_path, hand6):
    path = tmp_path / "hand6.json"
    path.write_bytes(b"\xff\xfe" + serialize_embodiment(hand6).encode())
    return path, "not UTF-8"


def _sidecar_not_utf8(tmp_path, hand6):
    (tmp_path / "hand6.json").write_text(serialize_embodiment(hand6))
    sidecar = tmp_path / "hand6.manifest.json"
    sidecar.write_bytes(b"\xff\xfe" + json.dumps({"pad_links": list(hand6.pad_links)}).encode())
    return sidecar, "not UTF-8"


def _sidecar_field(key, value, detail):
    """hand6 with a sidecar manifest whose `key` is `value`."""
    def case(tmp_path, hand6):
        (tmp_path / "hand6.json").write_text(serialize_embodiment(hand6))
        sidecar = tmp_path / "hand6.manifest.json"
        sidecar.write_text(json.dumps({"pad_links": list(hand6.pad_links), key: value}))
        return sidecar, detail
    return case


def _joint_field(key, value, detail):
    """The first joint with `key` (an origin key when it is one) set to `value`."""
    def case(tmp_path, hand6):
        doc = json.loads(serialize_embodiment(hand6))
        joint = doc["joints"][0]
        if key in ("rpy", "rotation", "translation"):
            joint["origin"] = {key: value}
        else:
            joint[key] = value
        path = tmp_path / "hand6.json"
        path.write_text(json.dumps(doc))
        return path, detail
    return case


def _link_geometry(edit_geometry, detail):
    """The first meshed link with its geometry changed by `edit_geometry`."""
    def case(tmp_path, hand6):
        doc = json.loads(serialize_embodiment(hand6))
        link = next(l for l in doc["links"] if l["geometry"] is not None)
        link["geometry"] = edit_geometry(link["geometry"], tmp_path)
        path = tmp_path / "hand6.json"
        path.write_text(json.dumps(doc))
        return path, detail
    return case


def _string_vertex(geometry, tmp_path):
    geometry["vertices"][0][0] = "x"
    return geometry


def _float_face(geometry, tmp_path):
    geometry["faces"][0][0] = 0.5
    return geometry


def _string_half_extent(geometry, tmp_path):
    return {"type": "box", "half_extents": [0.01, "a", 0.01]}


def _string_scale(geometry, tmp_path):
    (tmp_path / "link.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    return {"type": "mesh_file", "path": "link.obj", "scale": "big"}


BAD_DESCRIPTIONS = {
    "missing-file": _missing_file,
    "not-utf8": _not_utf8,
    "sidecar-not-utf8": _sidecar_not_utf8,
    "link-without-name": _nameless_link,
    "workspace-without-max": _sidecar_field("workspace", {"min": [0, 0, 0]}, "'max'"),
    "not-an-object": _not_an_object,
    "workspace-corner-of-2": _sidecar_field(
        "workspace", {"min": [0, 0], "max": [1, 1, 1]}, "'workspace' 'min'"),
    "workspace-corner-with-string": _sidecar_field(
        "workspace", {"min": [0, 0, 0], "max": [1, 1, "z"]}, "'workspace' 'max'"),
    "base-rpy-of-2": _sidecar_field("world_to_base", {"rpy": [0, 0]}, "'world_to_base' 'rpy'"),
    "base-rotation-of-3": _sidecar_field("world_to_base", {"rotation": [1, 0, 0]},
                                         "'world_to_base' 'rotation'"),
    "pad-links-not-names": _sidecar_field("pad_links", [1, 2], "'pad_links'"),
    "pad-links-a-string": _sidecar_field("pad_links", "thumb_pad", "'pad_links'"),
    "joint-rpy-of-2": _joint_field("rpy", [0, 0], "origin 'rpy'"),
    "joint-rotation-of-4": _joint_field("rotation", [1, 0, 0, 1], "origin 'rotation'"),
    "joint-translation-of-2": _joint_field("translation", [0, 0], "origin 'translation'"),
    "joint-axis-of-2": _joint_field("axis", [0, 1], "'axis'"),
    "joint-lower-a-string": _joint_field("lower", "x", "'lower'"),
    "link-vertex-a-string": _link_geometry(_string_vertex, "'vertices' row 0"),
    "link-face-a-float": _link_geometry(_float_face, "'faces' row 0"),
    "link-half-extent-a-string": _link_geometry(_string_half_extent, "'half_extents'"),
    "link-scale-a-string": _link_geometry(_string_scale, "'scale'"),
    "joint-lower-of-400-digits": _joint_field("lower", int("1" * 400), "'lower'"),
}


@pytest.mark.parametrize("case", BAD_DESCRIPTIONS.values(), ids=BAD_DESCRIPTIONS.keys())
def test_bad_robot_description_exits_2(tmp_path, robot_files, source_dataset, hand6, case,
                                       capsys):
    src, _ = robot_files
    robot_dir = tmp_path / "robot"
    robot_dir.mkdir()
    named, detail = case(robot_dir, hand6)
    target = robot_dir / "hand6.json"
    out = tmp_path / "out"
    for argv in (["validate", str(source_dataset), "--embodiment", str(target)],
                 retarget_args(src, target, source_dataset, out)):
        assert main(argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and str(named) in last and detail in last
    assert not out.exists()
