"""xembody benchmark: three workloads, every output checked, one JSON result.

Run from the repository root:

    python3 bench/run.py --workload retarget --seed 1 --seconds 35 --trace 0

Workloads: `retarget`, `augment`, `dataset_roundtrip` (see bench/README.md).
The program is imported from ./src in this process, single-threaded, and
driven closed-loop through its CLI entry point: one command at a time, in
rounds of identical work, for --seconds (a warm-up round and at least three
timed rounds). With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the program's layer functions are wrapped and the
per-layer metrics are reported per round instead. Everything else goes to
stderr.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np

import checks
import inputs
import oracles
import tracing

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
MIN_ROUNDS = 3
LAM = 0.5  # the CLI's default directional weight; DCD >= -2 * LAM
MAX_STEPS = 300  # the CLI's default step cap, passed explicitly
# The contact templates are part of the fixed robot pair, like its meshes: a
# template draw moves alignment work by tens of percent, which would swamp
# the seed-to-seed comparison. The program's run seed (its EIS and synthesis
# streams) is fixed for the same reason: on `augment` an EIS draw moved the
# alignment steps of a round by +-12%. The workload seed varies demo lengths
# and every frame's scene and robot samples.
TEMPLATE_SEED = 11
RUN_SEED = 11


def load_program():
    src = ROOT / "src"
    if not (src / "xembody" / "__init__.py").is_file():
        raise SystemExit(f"error: no xembody sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import xembody
    import xembody.align
    import xembody.cli
    import xembody.synth
    if Path(xembody.__file__).resolve().parent != (src / "xembody").resolve():
        raise SystemExit(f"error: imported xembody from {xembody.__file__}, not {src}")
    return types.SimpleNamespace(xembody=xembody, cli=xembody.cli, align=xembody.align,
                                 synth=xembody.synth)


def time_import() -> None:
    """Program start-up in a fresh interpreter: `import xembody.cli`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import xembody.cli"], env=env, check=True,
                   timeout=120)


def report_stats(report: dict) -> dict:
    """Per-round counts from a retarget/augment run report."""
    steps = np.array([s for d in report["demos"] for s in d["steps"]], dtype=float)
    capped = sum(1 for d in report["demos"]
                 for s, early in zip(d["steps"], d["early_stopped"])
                 if s >= MAX_STEPS and not early)
    return {
        "attempted": len(report["demos"]),
        "failed": sum(1 for d in report["demos"] if not d["ok"]),
        "frames": report["totals"]["frames"],
        "steps": steps,
        "cap_frames": capped,
        "dcd": [v for d in report["demos"] for v in d["dcd"]],
    }


class Retarget:
    """`xembody retarget` gripper1 -> hand6 with the c11 settings."""

    name = "retarget"
    demos = 1
    lengths = (95, 115)
    robot_points = 300  # gripper samples inserted into each source frame
    points_per_link = 16
    synth_robot_points = 1024
    eis_samples = 0
    points = 1024

    def __init__(self, program, seed: int):
        self.program = program
        self.seed = seed

    def make_inputs(self, root: Path):
        rng = np.random.default_rng([self.seed, 1])
        gripper_path, hand_path = inputs.write_robots(root)
        xembody = self.program.xembody
        specs, robot = {}, []
        for k, length in enumerate(rng.integers(self.lengths[0], self.lengths[1] + 1,
                                                size=self.demos)):
            spec, on_robot = inputs.gripper_demo(rng, int(length), self.robot_points)
            specs[f"demo{k:02d}"] = spec
            robot.append(on_robot)
        xembody.write_dataset({k: inputs.make_demo(xembody, s, self.seed)
                               for k, s in specs.items()}, root / "source")
        xembody.write_dataset({}, root / "empty")
        state = types.SimpleNamespace(
            root=root, gripper_path=gripper_path, hand_path=hand_path, specs=specs,
            ghost_keys={row.tobytes() for row in np.vstack(robot)},
            out=root / "out", report=root / "out.report.json")
        self.write_manifest(state)
        return state

    def write_manifest(self, state) -> None:
        manifest = {
            "source": {"description": str(state.gripper_path)},
            "target": {"description": str(state.hand_path)},
            "input": str(state.root / "source"),
            "output": str(state.out),
            "seed": RUN_SEED,
            "workers": 1,
            "template": {"points_per_link": self.points_per_link, "seed": TEMPLATE_SEED},
            "alignment": {"max_steps": MAX_STEPS},
            "synthesis": {"robot_points": self.synth_robot_points,
                          "output_size": self.points},
        }
        if self.eis_samples:
            manifest["eis"] = {"enabled": True, "samples": self.eis_samples}
        (state.root / "run.json").write_text(json.dumps(manifest))

    def argv(self, state) -> list[str]:
        return ["retarget", "--manifest", str(state.root / "run.json"),
                "--report", str(state.report)]

    def startup(self, state) -> None:
        """The CLI up to its first demo: an identical run over an empty dataset."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = checks.run_cli(self.program, self.argv(state) + [
                "--input", str(state.root / "empty"), "--out", str(state.root / "startup")])
        if code != 0:
            raise RuntimeError(f"{self.name} on an empty dataset exited {code}")

    def prepare_round(self, state) -> None:
        shutil.rmtree(state.out, ignore_errors=True)

    def run_round(self, state) -> None:
        state.exit_code = checks.run_cli(self.program, self.argv(state))

    def finish_round(self, state) -> dict:
        report = json.loads(state.report.read_text())
        stats = report_stats(report)
        index = json.loads((state.out / "index.json").read_text())
        stats["checksums"] = {d["id"]: d["checksum"] for d in index["demos"]}
        stats["exit_code"] = state.exit_code
        stats["report"] = report
        return stats

    # -- output checks ------------------------------------------------------

    def expected_outputs(self, state) -> dict:
        return {demo_id: demo_id for demo_id in state.specs}

    def scene(self, state, out_id: str, t: int) -> np.ndarray:
        cloud = state.specs[self.expected_outputs(state)[out_id]]["clouds"][t]
        return cloud.astype("<f4").astype(float)

    def source_rep(self, state, out_id: str, t: int):
        spec = state.specs[self.expected_outputs(state)[out_id]]
        q = spec["configs"][t].astype("<f4").astype(float)
        return checks.posed_template(inputs.gripper1_doc(), state.source_template, q)

    def check(self, state, last: dict) -> list[str]:
        xembody = self.program.xembody
        gripper = xembody.load_embodiment(state.gripper_path)
        hand = xembody.load_embodiment(state.hand_path)
        state.source_template = xembody.build_template(
            gripper, gripper.pad_links, self.points_per_link, TEMPLATE_SEED)
        hand_template = xembody.build_template(hand, hand.pad_links, self.points_per_link,
                                               TEMPLATE_SEED)
        problems = checks.check_retargeted(
            state.out, self.expected_outputs(state), last["report"], inputs.hand6_doc(),
            self.points, lambda i, t: self.scene(state, i, t),
            lambda i, t: self.source_rep(state, i, t), hand_template, LAM)
        problems += checks.check_validate(self.program, state.out, self.points,
                                          state.hand_path, state.root)
        return problems

    def dcd_excess_mm(self, state, last: dict) -> float:
        return (float(np.mean(last["dcd"])) + 2 * LAM) * 1000.0

    def start_mismatch(self, state) -> int:
        return 0


class Augment(Retarget):
    """`xembody augment` gripper1 -> hand6 over one short demo, with EIS."""

    name = "augment"
    demos = 1
    lengths = (30, 30)
    anchors = ((0.0, 0.0, 0.0), (0.0, 0.01, 0.0))
    grid_n = 1
    grid_range = 0.01
    growth_knee = 0.8
    points_per_link = 64  # the CLI default
    synth_robot_points = 4096  # the CLI default
    eis_samples = 1000
    points = 128

    def write_manifest(self, state) -> None:
        super().write_manifest(state)
        (state.root / "anchors.json").write_text(json.dumps({
            "anchors": [list(a) for a in self.anchors],
            "object_box": {"min": list(inputs.OBJECT_BOX[0]),
                           "max": list(inputs.OBJECT_BOX[1])}}))

    def argv(self, state) -> list[str]:
        return ["augment", "--manifest", str(state.root / "run.json"),
                "--report", str(state.report),
                "--anchors-file", str(state.root / "anchors.json"),
                "--grid-n", str(self.grid_n), "--grid-range", str(self.grid_range),
                "--growth-knee", str(self.growth_knee)]

    def offsets(self) -> np.ndarray:
        return (np.array([0.0]) if self.grid_n == 1
                else np.linspace(-self.grid_range, self.grid_range, self.grid_n))

    def expected_outputs(self, state) -> dict:
        return {f"{demo_id}-a{a:02d}g{i:02d}x{j:02d}": demo_id
                for demo_id in state.specs
                for a in range(len(self.anchors))
                for i in range(self.grid_n) for j in range(self.grid_n)}

    def translation(self, out_id: str, t: int, length: int) -> np.ndarray:
        """The variant's object translation at frame t (clipped linear growth)."""
        a, i, j = int(out_id[-8:-6]), int(out_id[-5:-3]), int(out_id[-2:])
        offsets = self.offsets()
        full = np.asarray(self.anchors[a]) + np.array([offsets[i], offsets[j], 0.0])
        return min(t / (self.growth_knee * length), 1.0) * full

    def scene(self, state, out_id: str, t: int) -> np.ndarray:
        cloud = super().scene(state, out_id, t)
        length = len(state.specs[self.expected_outputs(state)[out_id]]["clouds"])
        lo, hi = (np.asarray(b) for b in inputs.OBJECT_BOX)
        moved = np.all((cloud >= lo) & (cloud <= hi), axis=1)
        cloud[moved] += self.translation(out_id, t, length)
        return cloud

    def source_rep(self, state, out_id: str, t: int):
        points, dirs = super().source_rep(state, out_id, t)
        length = len(state.specs[self.expected_outputs(state)[out_id]]["clouds"])
        return points + self.translation(out_id, t, length), dirs

    def start_mismatch(self, state) -> int:
        """Variants whose frame-0 configuration differs from their demo's first
        variant, although their frame-0 source sets are bit-identical."""
        first: dict[str, np.ndarray] = {}
        mismatched = 0
        for out_id, demo_id in sorted(self.expected_outputs(state).items()):
            _, _, proprio, _ = oracles.decode_demo(state.out / out_id)
            if demo_id not in first:
                first[demo_id] = proprio[0]
            elif not np.array_equal(proprio[0], first[demo_id]):
                mismatched += 1
        return mismatched


class DatasetRoundtrip:
    """`write_dataset` of retarget-shaped hand6 demos, then `xembody validate`.

    The dataset is written once per set-up and each round validates it. File
    creation on the reference disk costs ~0.5 ms per frame file and its time
    swings by 30% from run to run, which would bury the program's own
    encoding, checksum and read cost; writes are timed in `setup_s` here and
    per round on `retarget` and `augment`.
    """

    name = "dataset_roundtrip"
    demos = 8
    length = 105
    points = 1024

    def __init__(self, program, seed: int):
        self.program = program
        self.seed = seed

    def make_inputs(self, root: Path):
        rng = np.random.default_rng([self.seed, 3])
        template_rng = np.random.default_rng(TEMPLATE_SEED)
        _, hand_path = inputs.write_robots(root)
        xembody = self.program.xembody
        specs = {f"demo{k:02d}": inputs.hand_demo(rng, self.length, self.points)
                 for k in range(self.demos)}
        xembody.write_dataset({k: inputs.make_demo(xembody, s, self.seed)
                               for k, s in specs.items()}, root / "dataset")
        xembody.write_dataset({}, root / "empty")
        return types.SimpleNamespace(
            root=root, hand_path=hand_path, specs=specs, ghost_keys=set(),
            out=root / "dataset", report=root / "validate.json",
            gripper_template=inputs.PadTemplate(inputs.gripper1_doc(), 16, template_rng),
            hand_template=inputs.PadTemplate(inputs.hand6_doc(), 16, template_rng))

    def startup(self, state) -> None:
        code, _ = checks.validate(self.program, state.root / "empty", self.points,
                                  state.hand_path, state.root / "startup.json")
        if code != 0:
            raise RuntimeError(f"validate on an empty dataset exited {code}")

    def prepare_round(self, state) -> None:
        pass

    def run_round(self, state) -> None:
        state.exit_code, state.validated = checks.validate(
            self.program, state.out, self.points, state.hand_path, state.report)

    def finish_round(self, state) -> dict:
        doc = state.validated
        flagged = {f["demo"] for f in doc["findings"]}
        index = json.loads((state.out / "index.json").read_text())
        return {
            "attempted": self.demos,
            "failed": self.demos if None in flagged else len(flagged),
            "frames": self.demos * self.length,
            "tasks": doc["demos_checked"],
            "checksums": {d["id"]: d["checksum"] for d in index["demos"]},
            "exit_code": state.exit_code,
        }

    def check(self, state, last: dict) -> list[str]:
        problems = []
        index = json.loads((state.out / "index.json").read_text())["demos"]
        if sorted(e["id"] for e in index) != sorted(state.specs):
            problems.append("index ids differ from the demos written")
        hand = inputs.hand6_doc()
        state.read_back = {}
        for entry in index:
            decoded = checks.decode_checked(state.out, entry, hand, self.points, problems)
            spec = state.specs.get(entry["id"])
            if decoded is None or spec is None:
                continue
            configs, clouds = decoded
            state.read_back[entry["id"]] = configs
            if not np.array_equal(configs, spec["configs"].astype("<f4")):
                problems.append(f"{entry['id']}: configurations changed in the round trip")
            if not all(np.array_equal(c, s.astype("<f4"))
                       for c, s in zip(clouds, spec["clouds"])):
                problems.append(f"{entry['id']}: points changed in the round trip")
        problems += checks.check_validate(self.program, state.out, self.points,
                                          state.hand_path, state.root)
        return problems

    def dcd_excess_mm(self, state, last: dict) -> float:
        """Alignment excess of the configurations as read back, against the
        gripper pinch they mirror (benchmark-owned pad templates)."""
        gripper, hand = inputs.gripper1_doc(), inputs.hand6_doc()
        values = []
        for configs in state.read_back.values():
            for q_grip, q_hand in zip(inputs.pinch(len(configs)), configs):
                x = checks.posed_template(gripper, state.gripper_template, q_grip)
                y = checks.posed_template(hand, state.hand_template, q_hand)
                values.append(oracles.dcd(*x, *y, LAM))
        return (float(np.mean(values)) + 2 * LAM) * 1000.0

    def start_mismatch(self, state) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Retarget, Augment, DatasetRoundtrip)}


def fps_check(points, n, start, got) -> str | None:
    want = points[oracles.greedy_fps(points, n, start)]
    if not np.array_equal(got, want):
        return f"fps_downsample({len(points)} -> {n}) differs from the greedy oracle"
    return None


def per_layer_metrics(tracer: tracing.Tracer, rounds: list[dict], workload, state,
                      run_s: float) -> dict:
    """Per-round layer metrics: busy seconds, calls and work counts."""
    n = len(rounds)
    last = rounds[-1]
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    steps = last.get("steps", np.zeros(0))
    values = {
        "align.trajectory_s": busy["align.trajectory"] / n,
        "align.trajectory_self_s": tracer.self_s["align.trajectory"] / n,
        "align.step_us": (busy["align.trajectory"] / n / steps.sum() * 1e6
                          if steps.size and steps.sum() else 0.0),
        "align.steps": float(steps.sum()),
        "align.steps_p50": float(np.percentile(steps, 50)) if steps.size else 0.0,
        "align.steps_p95": float(np.percentile(steps, 95)) if steps.size else 0.0,
        "align.steps_max": float(steps.max()) if steps.size else 0.0,
        "align.cap_frames": float(last.get("cap_frames", 0)),
        "align.frames": float(steps.size),
        "align.penalty_s": busy["align.penalty"] / n,
        "align.penalty_calls": calls["align.penalty"] / n,
        "align.eis_s": busy["align.eis"] / n,
        "align.eis_samples": counts["align.eis_samples"] / n,
        "chamfer.grad_s": busy["chamfer.grad"] / n,
        "chamfer.grad_calls": calls["chamfer.grad"] / n,
        "chamfer.pair_evals": counts["chamfer.pair_evals"] / n,
        "chamfer.eval_s": busy["chamfer.eval"] / n,
        "chamfer.eval_calls": calls["chamfer.eval"] / n,
        "kinematics.fk_s": busy["kinematics.fk"] / n,
        "kinematics.fk_calls": calls["kinematics.fk"] / n,
        "kinematics.pullback_s": busy["kinematics.pullback"] / n,
        "kinematics.pullback_calls": calls["kinematics.pullback"] / n,
        "synth.demo_s": busy["synth.demo"] / n,
        "synth.crop_s": busy["synth.crop"] / n,
        "synth.crop_points_out": counts["synth.crop_points_out"] / n,
        "synth.robot_cloud_s": busy["synth.robot_cloud"] / n,
        "synth.robot_cloud_points": counts["synth.robot_cloud_points"] / n,
        "synth.mask_s": busy["synth.mask"] / n,
        "synth.mask_removed": counts["synth.mask_removed"] / n,
        "synth.mask_ghost_points": counts["synth.mask_ghost_points"] / n,
        "synth.fps_s": busy["synth.fps"] / n,
        "synth.fps_points_in": counts["synth.fps_points_in"] / n,
        "synth.fps_padded_frames": counts["synth.fps_padded_frames"] / n,
        "augment.rep_s": busy["augment.rep"] / n,
        "augment.scene_s": busy["augment.scene"] / n,
        "augment.start_mismatch": float(workload.start_mismatch(state)),
        "dataset.write_s": busy["dataset.write"] / n,
        "dataset.write_bytes": counts["dataset.write_bytes"] / n,
        "dataset.read_s": busy["dataset.read"] / n,
        "dataset.read_bytes": counts["dataset.read_bytes"] / n,
        "dataset.index_s": busy["dataset.index"] / n,
        "robot.load_s": busy["robot.load"] / n,
        "funcrep.build_template_s": busy["funcrep.build_template"] / n,
        "funcrep.template_trajectory_s": busy["funcrep.template_trajectory"] / n,
        "cli.tasks": float(last.get("tasks", last["attempted"])),
        "cli.other_s": max(run_s - tracer.covered - tracer.hook_s, 0.0) / n,
    }
    return values


def metric_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    workload = WORKLOADS[args.workload](program, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    setup_times = []
    for rep in range(SETUP_REPS):
        started = time.perf_counter()
        state = workload.make_inputs(work / f"setup{rep}")
        time_import()
        workload.startup(state)
        setup_times.append(time.perf_counter() - started)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer, program, state.ghost_keys, fps_check)
    rounds, run_s = [], 0.0
    try:
        # The first round warms caches and is left out of the median. Stop
        # before a round would end past --seconds, but time at least
        # MIN_ROUNDS rounds after it so the median can reject bursts of load.
        while len(rounds) <= MIN_ROUNDS or run_s + statistics.median(
                r["seconds"] for r in rounds[1:]) <= args.seconds:
            workload.prepare_round(state)
            started = time.perf_counter()
            workload.run_round(state)
            round_s = time.perf_counter() - started
            run_s += round_s
            rounds.append(workload.finish_round(state))
            rounds[-1]["seconds"] = round_s
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(tracer.problems) if tracer else []
    if any(r["checksums"] != rounds[0]["checksums"] for r in rounds):
        problems.append("rounds of identical work wrote different bytes")
    problems += [f"round exited {r['exit_code']}" for r in rounds if r["exit_code"] != 0
                 and r["failed"] == 0]
    check_started = time.perf_counter()
    problems += workload.check(state, rounds[-1])
    print(f"checks took {time.perf_counter() - check_started:.2f}s", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    frames = sum(r["frames"] for r in rounds)
    if args.trace:
        units = metric_units("per_layer")
        values = per_layer_metrics(tracer, rounds, workload, state, run_s)
    else:
        units = metric_units("end_to_end")
        values = {
            # Rounds are identical work: the median round after the warm-up
            # resists bursts of load from outside the benchmark.
            "frames_per_s": rounds[-1]["frames"] / statistics.median(
                r["seconds"] for r in rounds[1:]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
            "dcd_excess_mm": workload.dcd_excess_mm(state, rounds[-1]),
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both "
                           "measured and listed in BENCHMARK.json")
    steps = sum(float(np.sum(r.get("steps", 0))) for r in rounds)
    round_s = sorted(r["seconds"] for r in rounds[1:])
    print(f"{args.workload}: {len(rounds)} rounds, {frames} frames in {run_s:.2f}s, "
          f"{steps:.0f} alignment steps, setup {setup_times}; after the warm-up, round s "
          f"min {round_s[0]:.4f} median {statistics.median(round_s):.4f} "
          f"max {round_s[-1]:.4f}", file=sys.stderr)
    if len(rounds) <= 40:
        print("round s in order: " + " ".join(f"{r['seconds']:.3f}" for r in rounds),
              file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
