"""Command-line front end: retarget, augment, validate, inspect.

Runs are described by a JSON manifest plus flag overrides; every piece of
randomness derives from the single recorded seed, and demos are processed
independently (optionally in a worker pool) so outputs are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import shutil
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .align import AlignmentConfig, align_trajectory, eis_initialize
from .augment import (AnchoredTransform, AugmentationSchedule, augment_rep_trajectory,
                      augment_scene_cloud, clipped_growth, grid_transforms)
from .chamfer import MetricConfig, _matches
from .dataset import (DatasetIndex, IndexEntry, read_demonstration, read_index,
                      write_demonstration, write_index)
from .errors import ValidationError, XembodyError
from .fields import Fields
from .funcrep import (FunctionalTemplate, _subseed, build_template, eval_template,
                      template_trajectory)
from .native import load_kernels
from .robot import Embodiment, load_embodiment
from .synth import Demonstration, SynthConfig, in_box, synthesize_demonstration

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunManifest:
    """Everything a retarget/augment run needs, resolvable from JSON + flags."""

    source_description: str
    target_description: str
    input_path: str
    output_path: str
    source_manifest: str | None = None
    target_manifest: str | None = None
    points_per_link: int = 64
    template_seed: int | None = None  # derived from `seed` when unset
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    synthesis: SynthConfig = field(default_factory=SynthConfig)
    seed: int = 0
    workers: int = 1
    eis_samples: int = 0  # 0 disables elite initialization
    eis_fraction: float = 0.10
    report_path: str | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        if not 0.0 < self.eis_fraction <= 1.0:
            raise ValidationError(f"EIS elite fraction must be in (0, 1], got {self.eis_fraction}")


EIS_SAMPLES = 1000  # elite-initialization draws when EIS is on without a count

_json = Fields(XembodyError)

# Every run-manifest key: "section.key" (top-level keys have no section) ->
# (the flag that overrides it, its reader, the config it sets, the field).
# The defaults live in the config dataclasses only.
MANIFEST_KEYS = {
    "source.description": ("source", _json.string, "run", "source_description"),
    "source.manifest": (None, _json.string, "run", "source_manifest"),
    "target.description": ("target", _json.string, "run", "target_description"),
    "target.manifest": (None, _json.string, "run", "target_manifest"),
    "input": ("input", _json.string, "run", "input_path"),
    "output": ("out", _json.string, "run", "output_path"),
    "seed": ("seed", _json.integer, "run", "seed"),
    "workers": ("workers", _json.integer, "run", "workers"),
    "template.points_per_link": (None, _json.integer, "run", "points_per_link"),
    "template.seed": (None, _json.integer, "run", "template_seed"),
    "alignment.lambda": ("lam", _json.number, "metric", "lam"),
    "alignment.epsilon": (None, _json.number, "metric", "epsilon"),
    "alignment.w1": ("w1", _json.number, "alignment", "w1"),
    "alignment.w2": ("w2", _json.number, "alignment", "w2"),
    "alignment.max_steps": ("max_steps", _json.integer, "alignment", "max_steps"),
    "alignment.patience": ("patience", _json.integer, "alignment", "patience"),
    "alignment.step_size": (None, _json.number, "alignment", "step_size"),
    "synthesis.tau": ("tau", _json.number, "synthesis", "tau"),
    "synthesis.workspace": (None, _json.box, "synthesis", "workspace"),
    "synthesis.robot_points": (None, _json.integer, "synthesis", "robot_points"),
    "synthesis.output_size": ("points", _json.integer, "synthesis", "output_size"),
    "eis.enabled": ("eis", _json.boolean, "eis", "enabled"),
    "eis.samples": ("eis_samples", _json.integer, "eis", "samples"),
    "eis.fraction": ("eis_frac", _json.number, "run", "eis_fraction"),
}
_SECTIONS = {name.split(".")[0] for name in MANIFEST_KEYS if "." in name}


def _manifest_values(path: str) -> dict:
    """The manifest's settings as {"section.key": value}; unknown keys and
    sections that are not objects are errors."""
    values = {}
    for key, value in _json.read(Path(path)).items():
        if key in _SECTIONS:
            section = _json.object(value, f"{path}: section {key!r}")
            values.update((f"{key}.{sub}", v) for sub, v in section.items())
        elif "." in key:  # a dotted name such as "alignment.w1" only exists in its section
            raise XembodyError(f"{path}: unknown key {key!r}")
        else:
            values[key] = value
    for name in values:
        if name not in MANIFEST_KEYS:
            raise XembodyError(f"{path}: unknown key {name!r}")
    return values


def load_run_manifest(args: argparse.Namespace) -> RunManifest:
    """The run's settings: the manifest's keys with the flags written over
    them; every absent setting keeps its config dataclass default."""
    values = _manifest_values(args.manifest) if args.manifest else {}
    for name, (flag, *_) in MANIFEST_KEYS.items():
        if flag is not None and getattr(args, flag) is not None:
            values[name] = getattr(args, flag)
    for label, name in (("--source", "source.description"), ("--target", "target.description"),
                        ("--input", "input"), ("--out", "output")):
        if name not in values:
            raise XembodyError(f"{label} is required (flag or manifest)")

    configs = {"run": {}, "metric": {}, "alignment": {}, "synthesis": {}, "eis": {}}
    for name, value in values.items():
        _, read, config, field_name = MANIFEST_KEYS[name]
        configs[config][field_name] = read(value, f"manifest key {name!r}")
    run, eis = configs["run"], configs["eis"]
    if eis.get("enabled"):
        run["eis_samples"] = eis.get("samples", EIS_SAMPLES)
        if run["eis_samples"] < 10:
            raise XembodyError(f"manifest key 'eis.samples' must be at least 10, "
                               f"got {run['eis_samples']}")
    elif "samples" in eis or "eis_fraction" in run:
        raise XembodyError("eis.samples and eis.fraction (--eis-samples, --eis-frac) "
                           "need EIS turned on with eis.enabled or --eis")
    if "seed" in run:
        configs["synthesis"]["seed"] = run["seed"]
    metric = replace(AlignmentConfig().metric, **configs["metric"])
    return RunManifest(**run, report_path=args.report,
                       alignment=AlignmentConfig(metric=metric, **configs["alignment"]),
                       synthesis=SynthConfig(**configs["synthesis"]))


@dataclass
class _DemoTask:
    """One unit of work: everything a worker needs, picklable."""

    out_id: str
    demo_path: str
    checksum: str  # recorded in the input index; verified before decoding
    out_path: str
    manifest: RunManifest
    source: Embodiment
    target: Embodiment
    source_template: FunctionalTemplate
    target_template: FunctionalTemplate
    transform: AnchoredTransform | None = None  # set for augment runs, with a schedule
    schedule: AugmentationSchedule | None = None
    object_box: tuple | None = None


def _run_demo_task(task: _DemoTask) -> dict:
    started = time.perf_counter()
    manifest = task.manifest
    result = {"id": task.out_id, "ok": False, "length": 0, "wall_clock_s": 0.0,
              "align_s": 0.0, "synth_s": 0.0, "steps": [], "loss": [], "dcd": [],
              "early_stopped": [], "error": None, "checksum": None, "embodiment": None}
    try:
        demo = read_demonstration(task.demo_path, task.checksum)
        configs = task.source.configuration_from_split(demo.arm_positions,
                                                       demo.ee_positions)
        rep_traj = template_trajectory(task.source, task.source_template, configs)

        if task.transform is not None:
            rep_traj = augment_rep_trajectory(rep_traj, task.transform.transform,
                                              task.schedule)
            clouds = []
            for t, cloud in enumerate(demo.clouds):
                growth = clipped_growth(t, len(demo), task.schedule.knee)
                mask = np.zeros(len(cloud), dtype=bool) if task.object_box is None \
                    else in_box(cloud.points, task.object_box)
                clouds.append(augment_scene_cloud(cloud, mask, task.transform.transform, growth))
            demo = replace(demo, clouds=tuple(clouds))

        align_started = time.perf_counter()
        if manifest.eis_samples > 0:
            q0 = eis_initialize(task.target, task.target_template, rep_traj[0],
                                manifest.eis_samples, manifest.eis_fraction,
                                _subseed(manifest.seed, f"eis:{task.out_id}"),
                                manifest.alignment)
        else:
            q0 = None
        aligned = align_trajectory(rep_traj, task.target, task.target_template, q0,
                                   manifest.alignment)
        align_done = time.perf_counter()

        out_demo = synthesize_demonstration(demo, task.source, task.target, aligned,
                                            manifest.synthesis, demo_id=task.out_id)
        checksum = write_demonstration(out_demo, task.out_path)
        done = time.perf_counter()
        result.update(
            ok=True, length=len(out_demo), checksum=checksum,
            embodiment=out_demo.embodiment,
            steps=[d.steps_used for d in aligned.diagnostics],
            loss=[d.final_loss for d in aligned.diagnostics],
            dcd=[d.final_dcd for d in aligned.diagnostics],
            early_stopped=[d.early_stopped for d in aligned.diagnostics],
            align_s=align_done - align_started, synth_s=done - align_done,
        )
    except (XembodyError, OSError, ValueError, KeyError) as err:
        result["error"] = f"{type(err).__name__}: {err}"
        # Never leave a half-written demo directory behind.
        shutil.rmtree(task.out_path, ignore_errors=True)
    result["wall_clock_s"] = time.perf_counter() - started
    return result


def _finish_run(command: str, manifest: RunManifest, results: list[dict],
                started: float) -> int:
    out_dir = Path(manifest.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [
        IndexEntry(r["id"], r["id"], r["embodiment"], r["length"], r["checksum"])
        for r in sorted(results, key=lambda r: r["id"]) if r["ok"]
    ]
    write_index(DatasetIndex(tuple(entries)), out_dir)

    failed = [r for r in results if not r["ok"]]
    total_frames = sum(r["length"] for r in results if r["ok"])
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "seed": manifest.seed,
        "workers": manifest.workers,
        "demos": [
            {k: r[k] for k in ("id", "ok", "length", "wall_clock_s", "align_s",
                               "synth_s", "steps", "loss", "dcd", "early_stopped",
                               "error")}
            for r in sorted(results, key=lambda r: r["id"])
        ],
        "totals": {
            "demos": len(results),
            "failed": len(failed),
            "frames": total_frames,
            "wall_clock_s": time.perf_counter() - started,
            "align_s": sum(r["align_s"] for r in results),
            "synth_s": sum(r["synth_s"] for r in results),
        },
    }
    report_path = manifest.report_path or str(out_dir) + ".report.json"
    Path(report_path).write_text(json.dumps(report, sort_keys=True, indent=1))
    for r in failed:
        print(f"FAILED {r['id']}: {r['error']}", file=sys.stderr)
    print(f"{command}: {len(results) - len(failed)}/{len(results)} demos, "
          f"{total_frames} frames, {report['totals']['wall_clock_s']:.1f}s "
          f"(report: {report_path})")
    return 1 if failed else 0


def _run(command: str, args: argparse.Namespace, transforms, **augment) -> int:
    """Convert every input demo once per transform; `None` keeps the demo as is."""
    started = time.perf_counter()
    manifest = load_run_manifest(args)
    # Built before any demo is read, so a missing compiler fails the run once;
    # forked workers inherit the loaded kernels.
    load_kernels()
    source = load_embodiment(manifest.source_description, manifest.source_manifest)
    target = load_embodiment(manifest.target_description, manifest.target_manifest)
    template_seed = manifest.template_seed
    if template_seed is None:
        template_seed = _subseed(manifest.seed, "template")
    source_template = build_template(source, source.pad_links, manifest.points_per_link,
                                     template_seed)
    target_template = build_template(target, target.pad_links, manifest.points_per_link,
                                     template_seed)
    in_dir = Path(manifest.input_path)
    index = read_index(in_dir)
    if len(index) == 0:
        warnings.warn(f"input dataset {in_dir} is empty")

    tasks = []
    for e in index.entries:
        for t in transforms:
            out_id = e.demo_id if t is None else \
                f"{e.demo_id}-a{t.anchor_index:02d}g{t.grid_i:02d}x{t.grid_j:02d}"
            tasks.append(_DemoTask(
                out_id=out_id, demo_path=str(in_dir / e.path), checksum=e.checksum,
                out_path=str(Path(manifest.output_path) / out_id), manifest=manifest,
                source=source, target=target,
                source_template=source_template, target_template=target_template,
                transform=t, **augment,
            ))
    if manifest.workers <= 1 or len(tasks) <= 1:
        results = _collect(command, map(_run_demo_task, tasks), len(tasks))
    else:
        # A pool that forks starts all its workers at the first submit.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(manifest.workers, len(tasks))) as pool:
            results = _collect(command, pool.map(_run_demo_task, tasks), len(tasks))
    return _finish_run(command, manifest, results, started)


def _collect(command: str, results, total: int) -> list[dict]:
    """Gather results in task order, printing one progress line per demo to stderr."""
    done = []
    for r in results:
        done.append(r)
        status = "" if r["ok"] else ", FAILED"
        print(f"{command} [{len(done)}/{total}] {r['id']}: {r['length']} frames, "
              f"align {r['align_s']:.2f}s, synth {r['synth_s']:.2f}s{status}",
              file=sys.stderr, flush=True)
    return done


def _read_anchors_file(path: str) -> tuple[np.ndarray, tuple | None]:
    """The (K, 3) anchors and the (min, max) object box (None when absent) of
    `{"anchors": [[x, y, z], ...], "object_box": {"min": [x, y, z], "max": [x, y, z]}}`."""
    doc = _json.read(Path(path))
    anchors = _json.rows(_json.required(doc, "anchors", path), f"{path}: 'anchors'", min_rows=1)
    box = doc.get("object_box")
    return anchors, None if box is None else _json.box(box, f"{path}: 'object_box'")


def cmd_augment(args: argparse.Namespace) -> int:
    anchors, object_box = _read_anchors_file(args.anchors_file)
    return _run("augment", args, grid_transforms(anchors, args.grid_n, args.grid_range),
                schedule=AugmentationSchedule(args.growth_knee), object_box=object_box)


def cmd_validate(args: argparse.Namespace) -> int:
    dataset_dir = Path(args.dataset)
    findings: list[dict] = []
    embodiment = None
    if args.embodiment:
        embodiment = load_embodiment(args.embodiment)

    try:
        index = read_index(dataset_dir)
    except XembodyError as err:
        findings.append({"demo": None, "finding": str(err)})
        index = DatasetIndex(())

    checked = 0
    for entry in index.entries:
        checked += 1
        try:
            demo = read_demonstration(dataset_dir / entry.path, entry.checksum)
        except XembodyError as err:
            findings.append({"demo": entry.demo_id, "finding": str(err)})
            continue
        if len(demo) != entry.length:
            findings.append({"demo": entry.demo_id,
                             "finding": f"index length {entry.length} != {len(demo)}"})
        if demo.embodiment != entry.embodiment:
            findings.append({"demo": entry.demo_id,
                             "finding": f"index embodiment {entry.embodiment!r} != "
                                        f"{demo.embodiment!r}"})
        if args.points is not None:
            bad = [t for t, c in enumerate(demo.clouds) if len(c) != args.points]
            if bad:
                findings.append({"demo": entry.demo_id,
                                 "finding": f"frames {bad[:5]} do not have {args.points} points"})
        if embodiment is not None:
            if demo.arm_positions.shape[1] != len(embodiment.arm_indices) \
                    or demo.ee_positions.shape[1] != len(embodiment.ee_indices):
                findings.append({"demo": entry.demo_id,
                                 "finding": f"dof split does not match {embodiment.name!r}"})
            else:
                q = embodiment.configuration_from_split(demo.arm_positions,
                                                        demo.ee_positions)
                # Frames hold float32, and rounding to float32 is monotone: a
                # value within the limits is stored within the rounded limits.
                lo = embodiment.lower_limits.astype(np.float32)
                hi = embodiment.upper_limits.astype(np.float32)
                for d in range(embodiment.dof):
                    if np.any(q[:, d] < lo[d]) or np.any(q[:, d] > hi[d]):
                        name = embodiment.actuated_joint_names[d]
                        findings.append({"demo": entry.demo_id,
                                         "finding": f"joint {name!r} outside limits"})

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "validate",
        "dataset": str(dataset_dir),
        "demos_checked": checked,
        "findings": findings,
        "ok": not findings,
    }
    text = json.dumps(report, sort_keys=True, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0 if not findings else 1


def _rep_of(desc_path: str, demo: Demonstration, frame: int, points_per_link: int):
    e = load_embodiment(desc_path)
    template = build_template(e, e.pad_links, points_per_link,
                              _subseed(demo.seed, "template"))
    q = e.configuration_from_split(demo.arm_positions[frame], demo.ee_positions[frame])
    return eval_template(e, template, q)


def cmd_inspect(args: argparse.Namespace) -> int:
    demo = read_demonstration(args.demo)
    if not 0 <= args.frame < len(demo):
        raise XembodyError(f"frame {args.frame} out of range for length {len(demo)}")
    cloud = demo.clouds[args.frame]

    rep_a = rep_b = None
    if args.primary_embodiment:
        rep_a = _rep_of(args.primary_embodiment, demo, args.frame, args.points_per_link)
    if args.paired_embodiment and args.paired_demo:
        paired = read_demonstration(args.paired_demo)
        rep_b = _rep_of(args.paired_embodiment, paired,
                        min(args.frame, len(paired) - 1), args.points_per_link)

    lines = write_inspect_obj(Path(args.out), cloud, rep_a, rep_b, args.whisker, args.lam)
    print(f"wrote {args.out}: {len(cloud)} scene points, "
          f"{0 if rep_a is None else len(rep_a)} rep points, {lines} lines")
    return 0


def write_inspect_obj(path: Path, cloud, rep_a, rep_b, whisker: float, lam: float) -> int:
    """Dump scene points, rep points, direction whiskers, and match lines as OBJ.

    Vertices are formatted at float32 precision (%.9g) so a re-import agrees
    with the in-memory float32 values. Returns the number of line records.
    """
    records = []
    def vline(p):
        records.append("v %.9g %.9g %.9g" % tuple(np.float32(p)))

    for p in cloud.points:
        vline(p)
    line_records = []
    cursor = len(cloud)

    for rep in (rep_a, rep_b):
        if rep is None:
            continue
        base = cursor
        for p in rep.points:
            vline(p)
        cursor += len(rep)
        for i, (p, n) in enumerate(zip(rep.points, rep.directions)):
            vline(p + whisker * n)
            line_records.append(f"l {base + i + 1} {cursor + 1}")
            cursor += 1

    if rep_a is not None and rep_b is not None:
        # Match lines use the metric's own argmin rule.
        fwd, _, _, _ = _matches(rep_a, rep_b, MetricConfig(lam=lam))
        a_base = len(cloud)
        whiskers_a = len(rep_a)
        b_base = a_base + len(rep_a) + whiskers_a
        for i, j in enumerate(fwd):
            line_records.append(f"l {a_base + i + 1} {b_base + j + 1}")

    path.write_text("\n".join(records + line_records) + "\n")
    return len(line_records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="xembody",
                                     description="Cross-embodiment demonstration retargeting")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--source", help="source robot description (urdf/xml or native json)")
        p.add_argument("--target", help="target robot description")
        p.add_argument("--manifest", help="run manifest JSON; flags override its fields")
        p.add_argument("--input", help="input dataset directory")
        p.add_argument("--out", help="output dataset directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="directional weight in the Chamfer metric")
        p.add_argument("--w1", type=float, default=None)
        p.add_argument("--w2", type=float, default=None)
        p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--tau", type=float, default=None, help="robot masking distance (m)")
        p.add_argument("--points", type=int, default=None, help="output cloud size")
        p.add_argument("--eis", action="store_true", default=None,
                       help="elite-based initialization")
        p.add_argument("--eis-samples", dest="eis_samples", type=int, default=None)
        p.add_argument("--eis-frac", dest="eis_frac", type=float, default=None)
        p.add_argument("--report", default=None, help="report JSON path")

    p_ret = sub.add_parser("retarget", help="retarget a source dataset to a target embodiment")
    add_run_flags(p_ret)

    p_aug = sub.add_parser("augment", help="spatially augment demos over a transform grid")
    add_run_flags(p_aug)
    p_aug.add_argument("--anchors-file", dest="anchors_file", required=True,
                       help="JSON with anchors (and optional object_box)")
    p_aug.add_argument("--grid-n", dest="grid_n", type=int, default=10)
    p_aug.add_argument("--grid-range", dest="grid_range", type=float, default=0.08)
    p_aug.add_argument("--growth-knee", dest="growth_knee", type=float,
                       default=AugmentationSchedule.knee)

    p_val = sub.add_parser("validate", help="check dataset invariants")
    p_val.add_argument("dataset")
    p_val.add_argument("--points", type=int, default=None, help="expected per-frame point count")
    p_val.add_argument("--embodiment", default=None, help="description for limit checks")
    p_val.add_argument("--out", default=None, help="write the report JSON here too")

    p_ins = sub.add_parser("inspect", help="dump one frame as an OBJ point/line file")
    p_ins.add_argument("--demo", required=True)
    p_ins.add_argument("--frame", type=int, required=True)
    p_ins.add_argument("--out", required=True)
    p_ins.add_argument("--embodiment", dest="primary_embodiment", default=None)
    p_ins.add_argument("--paired-demo", dest="paired_demo", default=None)
    p_ins.add_argument("--paired-embodiment", dest="paired_embodiment", default=None)
    p_ins.add_argument("--points-per-link", dest="points_per_link", type=int,
                       default=RunManifest.points_per_link)
    p_ins.add_argument("--whisker", type=float, default=0.01)
    p_ins.add_argument("--lambda", dest="lam", type=float, default=MetricConfig.lam)

    args = parser.parse_args(argv)
    try:
        if args.command == "retarget":
            return _run("retarget", args, [None])
        if args.command == "augment":
            return cmd_augment(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "inspect":
            return cmd_inspect(args)
    except XembodyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
