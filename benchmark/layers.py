"""The traced run: which call sites are wrapped, and the per-layer metrics.

Layers are the program's modules: frame (PGM decode/encode, abs_diff,
replay_dir), roi, motion, hybrid, zones, cli (building and writing the NDJSON
records), evaluate and synth. Each wrapped name below is a module attribute
that the program looks up at call time; a call site that moves elsewhere
stops producing spans, and the run then fails naming it rather than
reporting a layer that costs nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict

from spans import Span, Tracer, self_ns, self_times

# (module, attribute, how, commands that must call it): "call" is one span
# per call, "iter" one span per next() on the returned iterator (a frame
# each), "frame" a call that starts the next frame's trace.
CALL_SITES = [
    ("cli", "replay_dir", "iter", ("detect",)),
    ("cli", "hybrid_step", "call", ("detect",)),
    ("cli", "zone_update", "call", ("detect",)),
    ("cli", "run_eval", "call", ("eval",)),
    ("cli", "generate", "call", ("synth",)),
    ("frame", "load_pgm", "call", ("detect", "eval")),
    ("hybrid", "roi_analyze", "call", ("detect",)),
    ("hybrid", "motion_step", "call", ("detect",)),
    ("motion", "abs_diff", "call", ("detect", "eval")),
    ("evaluate", "replay_dir", "iter", ("eval",)),
    ("evaluate", "roi_analyze", "call", ("eval",)),
    ("evaluate", "motion_step", "call", ("eval",)),
    ("synth", "render_frame", "frame", ("synth",)),
    ("synth", "standard_normals", "call", ("synth",)),
    ("synth", "write_pgm", "call", ("synth",)),
]


def expected_spans(command: str) -> list[str]:
    return [f"{m}.{a}" for m, a, _, commands in CALL_SITES if command in commands]


# values recorded at a call site, after its span has closed
COUNTERS = {
    "frame.load_pgm": lambda result, path: os.path.getsize(path),
    "hybrid.roi_analyze": lambda result, *args: result.any,
    "hybrid.motion_step": lambda result, *args: result.background_updated,
    "cli.zone_update": lambda result, *args: len(result[1]),
    "evaluate.roi_analyze": lambda result, *args: result.any,
    "evaluate.motion_step": lambda result, *args: result.movement,
}

# name -> unit; README.md lists the end-to-end metric each should move
PER_LAYER_UNITS = {
    "frame.load_pgm.us": "us",
    "frame.load_pgm.bytes": "bytes",
    "frame.replay.self_us": "us",
    "roi.roi_analyze.us": "us",
    "motion.motion_step.self_us": "us",
    "frame.abs_diff.us": "us",
    "motion.background_update_rate": "ratio",
    "roi.flag_rate": "ratio",
    "hybrid.hybrid_step.self_us": "us",
    "zones.zone_update.us": "us",
    "zones.events_per_frame": "count",
    "cli.detect.record_self_us": "us",
    "cli.detect.frame_us": "us",
    "evaluate.run_eval.self_us_per_frame": "us",
    "synth.render_frame.us": "us",
    "synth.render_frame.self_us": "us",
    "synth.standard_normals.us": "us",
    "frame.write_pgm.us": "us",
    "synth.generate.self_us_per_frame": "us",
    "trace.detect_slowdown": "ratio",
}


def install(tracer: Tracer) -> None:
    for module_name, attr, how, _ in CALL_SITES:
        module = importlib.import_module(f"thermal_sentry.{module_name}")
        name = f"{module_name}.{attr}"
        original = getattr(module, attr)
        if how == "iter":
            wrapper = tracer.wrap_iter(name, original)
        else:
            wrapper = tracer.wrap(name, original, new_trace=how == "frame",
                                  count=COUNTERS.get(name))
        tracer.patch(module, attr, wrapper)


class Layers:
    """Per-layer samples pooled over every traced pass of a run."""

    def __init__(self) -> None:
        self.us: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list] = defaultdict(list)
        self.fps = {"traced": [], "untraced": []}
        self.last: dict[str, list[Span]] = {}

    def add_spans(self, command: str, spans: list[Span], counts: dict) -> dict:
        """Durations and self times by span name, in µs. A span the command
        must produce and did not ends the run, naming the lost layer."""
        names = {span.name for span in spans}
        missing = [name for name in expected_spans(command) if name not in names]
        if missing:
            raise SystemExit(f"benchmark: traced {command} produced no span from "
                             f"{', '.join(missing)}")
        self.last[command] = spans
        for name, values in counts.items():
            self.counts[name].extend(values)
        duration, own = defaultdict(list), defaultdict(list)
        for span, self_time in zip(spans, self_times(spans)):
            duration[span.name].append((span.end - span.start) / 1000.0)
            own[span.name].append(self_time / 1000.0)
        return {"us": duration, "self_us": own}

    def detect(self, spans: list[Span], counts: dict, stamps: list[int]) -> None:
        t = self.add_spans("detect", spans, counts)
        self.us["frame.load_pgm.us"] += t["us"]["frame.load_pgm"]
        self.us["frame.replay.self_us"] += t["self_us"]["cli.replay_dir"]
        self.us["roi.roi_analyze.us"] += t["us"]["hybrid.roi_analyze"]
        self.us["motion.motion_step.self_us"] += t["self_us"]["hybrid.motion_step"]
        self.us["frame.abs_diff.us"] += t["us"]["motion.abs_diff"]
        self.us["hybrid.hybrid_step.self_us"] += t["self_us"]["cli.hybrid_step"]
        self.us["zones.zone_update.us"] += t["us"]["cli.zone_update"]
        self.counts["frames"].append(len(stamps))

        # A frame runs from the previous detection record (for frame 0, from
        # its read) to its own record; what its decode, hybrid and zone spans
        # leave uncovered is record building and writing.
        top = defaultdict(list)
        for span in spans:
            if span.parent < 0:
                top[span.trace].append((span.start, span.end))
        start = next(s.start for s in spans if s.name == "cli.replay_dir")
        for k, stamp in enumerate(stamps):
            self.us["cli.detect.frame_us"].append((stamp - start) / 1000.0)
            # frame k is the (k+1)-th next() on the replay, trace id k+1
            own = self_ns(start, stamp, top[k + 1])
            self.us["cli.detect.record_self_us"].append(own / 1000.0)
            start = stamp

    def eval(self, spans: list[Span], counts: dict) -> None:
        t = self.add_spans("eval", spans, counts)
        frames = len(t["us"]["evaluate.roi_analyze"])
        for own in t["self_us"]["cli.run_eval"]:
            self.us["evaluate.run_eval.self_us_per_frame"].append(own / frames)

    def synth(self, spans: list[Span], counts: dict) -> None:
        t = self.add_spans("synth", spans, counts)
        self.us["synth.render_frame.us"] += t["us"]["synth.render_frame"]
        self.us["synth.render_frame.self_us"] += t["self_us"]["synth.render_frame"]
        self.us["synth.standard_normals.us"] += t["us"]["synth.standard_normals"]
        self.us["frame.write_pgm.us"] += t["us"]["synth.write_pgm"]
        frames = len(t["us"]["synth.render_frame"])
        for own in t["self_us"]["cli.generate"]:
            self.us["synth.generate.self_us_per_frame"].append(own / frames)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {name: (statistics.median(values), f"median of {len(values)} spans")
               for name, values in self.us.items()}
        c = self.counts
        frames = sum(c["frames"])
        per_frame = f"over {frames} detect frames"
        out["frame.load_pgm.bytes"] = (statistics.median(c["frame.load_pgm"]),
                                       f"median of {len(c['frame.load_pgm'])} files")
        out["motion.background_update_rate"] = (sum(c["hybrid.motion_step"]) / frames,
                                                per_frame)
        out["roi.flag_rate"] = (sum(c["hybrid.roi_analyze"]) / frames, per_frame)
        out["zones.events_per_frame"] = (sum(c["cli.zone_update"]) / frames, per_frame)
        untraced, traced = self.fps["untraced"], self.fps["traced"]
        out["trace.detect_slowdown"] = (
            statistics.median(untraced) / statistics.median(traced),
            f"untraced/traced detect_fps, medians of {len(untraced)} and {len(traced)} passes")
        return {name: out[name] for name in PER_LAYER_UNITS}

    def write_last(self, path) -> None:
        """The spans of the last traced pass of each command, one per line."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for command, spans in self.last.items():
                for index, s in enumerate(spans):
                    fh.write(json.dumps({
                        "command": command, "id": index, "name": s.name,
                        "start_ns": s.start, "end_ns": s.end,
                        "parent": s.parent, "trace": s.trace,
                    }) + "\n")


def traced_run(run, seconds: int) -> dict[str, tuple[float, str]]:
    """Rounds of traced synth, detect and eval, plus an untraced detect pass
    whose throughput against the traced one gives the tracing overhead."""
    run.detect("warm-up detect")
    run.eval_pass()
    run.synth_pass()
    tracer = Tracer()
    layers = Layers()

    def eval_agrees() -> list[str]:
        # per frame: eval's hybrid prediction is detect's verdict
        b = tracer.counts["evaluate.roi_analyze"]
        a = tracer.counts["evaluate.motion_step"]
        hybrid = [x or y for x, y in zip(a, b)]
        if hybrid != run.predictions["hybrid"]:
            return ["eval's per-frame hybrid predictions differ from detect's verdicts"]
        return []

    deadline = time.monotonic() + seconds
    while True:
        install(tracer)
        try:
            # a pass that failed is counted by `run`, and its spans dropped
            ok, taken = run.synth_pass(), tracer.take()
            if ok:
                layers.synth(*taken)
            result, (spans, counts) = run.detect("traced detect"), tracer.take()
            if result is not None:
                stream, secs = result
                layers.detect(spans, counts, stream.stamps)
                layers.fps["traced"].append(len(stream.stamps) / secs)
            ok, taken = run.eval_pass(check=eval_agrees), tracer.take()
            if ok:
                layers.eval(*taken)
        finally:
            tracer.restore()
        result = run.detect("untraced detect")
        if result is not None:
            stream, secs = result
            layers.fps["untraced"].append(len(stream.stamps) / secs)
        if time.monotonic() >= deadline:
            break

    layers.write_last(run.trace_path)
    return layers.metrics()
