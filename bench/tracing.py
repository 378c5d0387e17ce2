"""Per-layer tracing by wrapping the program's functions where they are called.

A `Tracer` replaces a function in the namespace of the module that calls it
(for example `xembody.align.dcd_value_and_cotangent`) with a wrapper that
records busy time and calls under a layer name. Spans nest: time that no span
covers is what the CLI spends elsewhere. Hooks that count work (or check a
call against an oracle) run after the span closes, and their time is taken
out of every enclosing span, so checking does not inflate what is measured.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

_PROC_IO = Path("/proc/self/io")


def _io_counters() -> tuple[int, int, int]:
    """(rchar, wchar, bytes returned by this read) from /proc/self/io."""
    text = _PROC_IO.read_bytes()
    fields = dict(line.split(b": ") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)  # layer -> seconds inside its spans
        self.self_s = defaultdict(float)  # layer -> busy minus nested spans
        self.calls = defaultdict(int)  # layer -> calls
        self.counts = defaultdict(float)  # named work counters
        self.problems: list[str] = []  # oracle mismatches seen by hooks
        self.covered = 0.0  # time inside outermost spans
        self.hook_s = 0.0  # time spent in hooks (excluded from spans)
        self._children: list[float] = []  # nested-span time, per open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, layer: str, post=None, io: str | None = None) -> None:
        """Trace `module.attr` as `layer`.

        `post(args, kwargs, result)` may count work and return a replacement
        result. `io` ("read" or "write") counts the bytes the call moves
        through read/write system calls into `<layer>_bytes`. A missing
        attribute is reported and skipped, so the layer reads 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; {layer} reads 0",
                  file=sys.stderr)
            return
        setattr(module, attr, self.traced(original, layer, post, io))
        self._patches.append((module, attr, original))

    def traced(self, fn, layer: str, post=None, io: str | None = None):
        def wrapper(*args, **kwargs):
            if io:
                hook_start = time.perf_counter()
                before = _io_counters()
                self.hook_s += time.perf_counter() - hook_start
            hooks_before = self.hook_s
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start - (self.hook_s - hooks_before)
                self.self_s[layer] += elapsed - self._children.pop()
                self.busy[layer] += elapsed
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed
                else:
                    self.covered += elapsed
            hook_start = time.perf_counter()
            if io:
                after = _io_counters()
                moved = after[0] - before[0] if io == "read" else after[1] - before[1]
                # The read of /proc/self/io before the call counts as read bytes.
                self.counts[f"{layer}_bytes"] += moved - (before[2] if io == "read" else 0)
            if post is not None:
                result = post(args, kwargs, result)
            self.hook_s += time.perf_counter() - hook_start
            return result

        return wrapper

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def install(tracer: Tracer, program, ghost_keys: set, fps_check) -> None:
    """Wrap the program's layer entry points at their call sites.

    `ghost_keys` holds the float32 bytes of every source-robot point inserted
    into the input frames; `fps_check(points, n, start, result)` compares a
    sampled farthest-point call with the oracle and returns a problem or None.
    """
    cli, align, synth = program.cli, program.align, program.synth
    counts = tracer.counts

    def count(name, value):
        counts[name] += value

    def on_grad(args, kwargs, result):
        count("chamfer.pair_evals", len(args[0]) * len(args[1]))
        return result

    def on_fk(args, kwargs, result):
        points, dirs, pullback = result
        return points, dirs, tracer.traced(pullback, "kinematics.pullback")

    def on_eis(args, kwargs, result):
        count("align.eis_samples", args[3] if len(args) > 3 else kwargs["samples"])
        return result

    def on_crop(args, kwargs, result):
        count("synth.crop_points_out", len(result))
        return result

    def on_robot_cloud(args, kwargs, result):
        count("synth.robot_cloud_points", len(result))
        return result

    def on_mask(args, kwargs, result):
        count("synth.mask_removed", len(args[0]) - len(result))
        kept = result.points.astype("<f4")
        count("synth.mask_ghost_points", sum(row.tobytes() in ghost_keys for row in kept))
        return result

    def on_fps(args, kwargs, result):
        pc, n = args[0], args[1]
        start = args[2] if len(args) > 2 else kwargs.get("start_index", 0)
        count("synth.fps_points_in", len(pc))
        if len(pc) < n:
            count("synth.fps_padded_frames", 1)
        elif tracer.calls["synth.fps"] % 97 == 1:
            problem = fps_check(pc.points, n, start, result.points)
            if problem:
                tracer.problems.append(problem)
        return result

    for module, attr, layer, post, io in (
        (cli, "load_embodiment", "robot.load", None, None),
        (cli, "build_template", "funcrep.build_template", None, None),
        (cli, "template_trajectory", "funcrep.template_trajectory", None, None),
        (cli, "read_index", "dataset.index", None, None),
        (cli, "write_index", "dataset.index", None, None),
        (cli, "read_demonstration", "dataset.read", None, "read"),
        (cli, "write_demonstration", "dataset.write", None, "write"),
        (cli, "augment_rep_trajectory", "augment.rep", None, None),
        (cli, "augment_scene_cloud", "augment.scene", None, None),
        (cli, "eis_initialize", "align.eis", on_eis, None),
        (cli, "align_trajectory", "align.trajectory", None, None),
        (align, "dcd_value_and_cotangent", "chamfer.grad", on_grad, None),
        (align, "dcd", "chamfer.eval", None, None),
        (align, "functional_similarity", "chamfer.eval", None, None),
        (align, "evaluate_with_pullback", "kinematics.fk", on_fk, None),
        (align, "joint_limit_penalty", "align.penalty", None, None),
        (align, "joint_limit_penalty_gradient", "align.penalty", None, None),
        (cli, "synthesize_demonstration", "synth.demo", None, None),
        (synth, "crop_workspace", "synth.crop", on_crop, None),
        (synth, "sample_robot_cloud", "synth.robot_cloud", on_robot_cloud, None),
        (synth, "mask_robot_points", "synth.mask", on_mask, None),
        (synth, "fps_downsample", "synth.fps", on_fps, None),
    ):
        tracer.wrap(module, attr, layer, post, io)
