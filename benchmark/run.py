#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of thermal-sentry.

    python3 benchmark/run.py --workload ref160 --seed 7 --seconds 35 --trace 0

Runs one workload per process, from the root of a source checkout. The
program is imported from `src/` of that checkout and driven only through
`thermal_sentry.cli.main` (`synth`, `detect`, `eval`, in process) and a
fresh `python -m thermal_sentry.cli detect` process for start-up time. The
load is a closed loop: one stream, one process, no extra threads; the next
frame is read only after the verdict for the previous one has been written.

With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run (see README.md in this directory).
Every invocation checks its output; the last line of standard output is
one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_SCENE = ROOT / "scenes" / "reference.scene"
GOLDEN = ROOT / "tests" / "data" / "reference_golden.json"
WORK_PARENT = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

DEFAULT_SEED = 7  # the seed= of scenes/reference.scene
ZONES = "Q0=warning\nQ3=critical\ndebounce=3\n"
MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it
SYNTH_SHARE = 0.15  # of --seconds, spent on synth passes
SETUP_SHARE = 0.2  # of --seconds, spent on start-up processes (about 12 in 35 s)
# Seconds each calibration takes at the reference speed, per workload scale:
# about its median on a 2-vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6.
CALIBRATION_REFERENCE_S = {
    1: {"replay": 0.050, "start": 0.18},
    4: {"replay": 0.047, "start": 0.18},
}
# what the "start" calibration process imports: the program's start-up
# without the program
START_CALIBRATION = "import argparse, fractions, json, numpy; print()"


class Workload(NamedTuple):
    scale: int  # positions, sigmas, width and height are multiplied by this
    humans: bool  # keep the human blobs of the reference scene
    frames: int | None  # prefix length; None keeps the scene's 1000 frames
    synth_chunk: int  # frames written by one timed synth pass


WORKLOADS = {
    "ref160": Workload(1, True, None, 200),
    "idle160": Workload(1, False, None, 200),
    "vga640": Workload(4, True, 80, 12),
}

# sha256 at seed 7, recorded from the program as of this benchmark's first
# commit: "detect" is detect's NDJSON with elapsed_us stripped, "dataset" the
# synthesized frames and labels.
DIGESTS = {
    "ref160": {
        "detect": "1d0055408526242d3806fa386b0fc7b5005db8b5919b6a1beeedef9048e35ba4",
        "dataset": "6450928640884570cceca554128f8ed2ad5fba11134af410f3c7b02d62d9b7c8",
    },
    "idle160": {
        "detect": "2c24a4302e6d824caa54b195176fb08ddfb0224f9e42c61c74377bfeb95a8ba7",
        "dataset": "e390c24582174e2a0d857124f5a4ba01fc12b6f121fce1e1b3a8260f4da522be",
    },
    "vga640": {
        "detect": "502ddb521f23327f0f7f621c2339842911b82534959eb95812081fb97b886279",
        "dataset": "2d6c8680b1208fb3566ad5803a8e8bcca635e84607b6f2401ce92d32e11ae98d",
    },
}

UNITS = {
    "detect_fps": "frames/s",
    "eval_fps": "frames/s",
    "synth_fps": "frames/s",
    "frame_us_p50": "us",
    "frame_us_p90": "us",
    "frame_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_ops": "ratio",
}
# The metrics of the result line; the others are printed only (README.md).
END_TO_END = ["detect_fps", "eval_fps", "frame_us_p50", "frame_us_p90", "setup_s",
              "peak_rss_mb"]


# ---------------------------------------------------------------- helpers


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_TAIL
    samples lie beyond it (the tail is too thin to support it)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))  # 1-based rank of the value
    if len(ordered) - rank < MIN_TAIL:
        return None
    return ordered[max(rank, 1) - 1]


def is_detection_record(text: str) -> bool:
    """True for a per-frame detection record, False for a zone event."""
    return text.startswith("{") and '"verdict": ' in text


def strip_elapsed(lines: list[str]) -> list[str]:
    """NDJSON lines without the run-dependent elapsed_us field."""
    out = []
    for line in lines:
        record = json.loads(line)
        record.pop("elapsed_us", None)
        out.append(json.dumps(record))
    return out


def ndjson_digest(lines: list[str]) -> str:
    """sha256 of detect's output without elapsed_us."""
    return hashlib.sha256("\n".join(strip_elapsed(lines)).encode()).hexdigest()


def intervals_us(stamps_ns: list[int]) -> list[float]:
    """Time between consecutive detection records."""
    return [(b - a) / 1000.0 for a, b in zip(stamps_ns, stamps_ns[1:])]


class RecordStream:
    """Stands in for detect's standard output. A detection record is
    stamped when it is written; zone events are output but not frames."""

    def __init__(self) -> None:
        self.chunks: list[str] = []
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        if is_detection_record(text):
            self.stamps.append(time.perf_counter_ns())
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def lines(self) -> list[str]:
        return "".join(self.chunks).splitlines()


def derive_scene(reference: str, workload: Workload, seed: int,
                 frames: int | None = None) -> str:
    """The workload's scene file, derived from the reference scene."""
    out = []
    for raw in reference.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "seed":
            value = str(seed)
        elif key in ("width", "height"):
            value = str(int(value) * workload.scale)
        elif key == "frames":
            value = str(frames or workload.frames or int(value))
        elif key == "blob":
            amplitude, sigma, kind, *points = (p.strip() for p in value.split(","))
            if kind == "human" and not workload.humans:
                continue
            s = workload.scale
            scaled = []
            for point in points:
                t, x, y = point.split(":")
                scaled.append(f"{t}:{float(x) * s:g}:{float(y) * s:g}")
            value = ",".join([amplitude, f"{float(sigma) * s:g}", kind, *scaled])
        out.append(f"{key}={value}")
    return "\n".join(out) + "\n"


def read_labels(path: Path) -> list[bool]:
    rows = path.read_text().splitlines()[1:]
    return [row.split(",")[1] == "1" for row in rows if row]


def confusion(predictions: list[bool], truth: list[bool]) -> dict[str, int]:
    cells = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for pred, present in zip(predictions, truth):
        cells[("t" if pred == present else "f") + ("p" if pred else "n")] += 1
    return cells


def dataset_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def first_line(argv: list[str], env) -> tuple[float, int, str, str]:
    """Run a fresh process to its end: the seconds from spawning it to its
    first line of output, its exit code, that line and its standard error.
    Raises TimeoutError when it runs past 60 s."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        secs = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise TimeoutError(f"{argv[1:3]} did not exit within 60 s") from None
    return secs, proc.returncode, first, err


class Calibration:
    """Fixed pieces of work, timed after every timed pass to track the speed
    of the machine. They run no code of the program, so every commit times
    the same work; each is of the kind its command does.

    - "replay", for detect and eval (about 45 ms): on frames of the
      workload's size, read a PGM file, difference two frames, sum 2x2
      cells, and build and serialize a record in Python;
    - "start", for the start-up processes: a fresh interpreter that imports
      what the program's command line imports, to its first line of output.
    """

    def __init__(self, scale: int, work: Path) -> None:
        rng = np.random.default_rng(0)
        shape = (120 * scale, 160 * scale)
        self.count = math.ceil(170 / scale**2)
        self.frames = [rng.integers(0, 4096, shape, dtype=np.uint16) for _ in range(4)]
        self.path = work / "calibration.pgm"
        self.path.write_bytes(b"P5\n%d %d\n65535\n" % shape[::-1]
                              + self.frames[0].astype(">u2").tobytes())
        self.reference_s = CALIBRATION_REFERENCE_S[scale]
        self.last: dict[str, float] = {}
        for kind in self.reference_s:
            self.time(kind)  # warm-up
            self.last[kind] = self.time(kind)

    def replay(self, i: int, previous):
        data = self.path.read_bytes()
        frame = np.frombuffer(data, dtype=">u2", offset=len(data) - 2 * previous.size)
        frame = frame.reshape(previous.shape) ^ self.frames[i % len(self.frames)]
        diff = np.abs(frame.astype(np.int32) - previous.astype(np.int32))
        h, w = diff.shape
        cells = diff.reshape(h // 2, 2, w // 2, 2).sum(axis=(1, 3))
        mean = Fraction(str(round(int(diff.sum()) / diff.size, 4)))
        record = {"frame": i, "movement": bool(mean > 900), "elapsed_us": 0,
                  "flags": {f"Q{q}": bool(cells[q % 2].max() > 9000) for q in range(4)}}
        json.dumps(record)
        return frame

    def start(self) -> float:
        secs, code, _, err = first_line([sys.executable, "-c", START_CALIBRATION],
                                        os.environ)
        if code:
            raise RuntimeError(f"start-up calibration exit {code}: {err.strip()}")
        return secs

    def time(self, kind: str) -> float:
        if kind == "start":
            return self.start()
        start = time.perf_counter()
        previous = self.frames[-1]
        for i in range(self.count):
            previous = self.replay(i, previous)
        return time.perf_counter() - start

    def slowdown(self, kind: str) -> float:
        """How much slower than the reference speed the machine ran over the
        pass just made: the mean of the calibrations before and after it,
        over the reference time."""
        before, self.last[kind] = self.last[kind], self.time(kind)
        return (before + self.last[kind]) / 2 / self.reference_s[kind]


# ---------------------------------------------------------------- the run


def import_program():
    """Import thermal_sentry from this checkout's src/, nowhere else."""
    package = SRC / "thermal_sentry"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program at {package}")
    sys.path.insert(0, str(SRC))
    import thermal_sentry.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported {cli.__file__}, not {package}")
    return cli


class Run:
    """One workload, one seed: the dataset, the checks and the samples."""

    def __init__(self, cli, name: str, seed: int, work: Path) -> None:
        self.cli = cli
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {
            "detect_fps": [], "eval_fps": [], "synth_fps": [], "setup_s": [],
        }
        self.intervals: list[float] = []
        self.slowdowns: dict[str, list[float]] = {}  # per calibration, one per pass
        reference = REFERENCE_SCENE.read_text()
        self.dataset = work / "dataset"
        self.scene = work / "scene.txt"
        self.scene.write_text(derive_scene(reference, self.workload, seed))
        self.chunk_scene = work / "chunk.txt"
        self.chunk_scene.write_text(
            derive_scene(reference, self.workload, seed, self.workload.synth_chunk))
        self.zones = work / "zones.cfg"
        self.zones.write_text(ZONES)
        self.one_frame = work / "one_frame"
        self.trace_path = TRACE_OUT / f"spans-{name}-seed{seed}.jsonl"
        self.labels: list[bool] = []
        self.detect_lines: list[str] | None = None  # stripped, from the first pass
        self.predictions: dict[str, list[bool]] = {}  # per method, from detect
        self.matrices: dict | None = None  # eval's, from the first pass
        self.detect_problems: list[str] = []
        self.eval_problems: list[str] = []

    # Each invocation is one attempt; it fails when it exits non-zero,
    # raises, or its output fails a check.
    def attempt(self, label: str, body: Callable[[], list[str]]) -> bool:
        self.attempted += 1
        try:
            problems = body()
        except Exception:  # a crash of the program is a failed operation
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"benchmark: {self.name} {label} failed: {problems[0]}",
                  file=sys.stderr)
        return not problems

    def invoke(self, argv: list[str], stdout) -> tuple[int, float]:
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(argv)
        return code, (time.perf_counter_ns() - start) / 1e9

    # -- synth

    def make_dataset(self) -> None:
        def body():
            code, _ = self.invoke(
                ["synth", "--scene", str(self.scene), "--out-dir", str(self.dataset)],
                io.StringIO())
            if code:
                return [f"synth exit {code}"]
            self.labels = read_labels(self.dataset / "labels.csv")
            frames = sorted(self.dataset.glob("*.pgm"))
            self.one_frame.mkdir()
            shutil.copy(frames[0], self.one_frame / frames[0].name)
            problems = []
            if len(frames) != len(self.labels) or not frames:
                problems.append(f"{len(frames)} frames for {len(self.labels)} labels")
            expected = DIGESTS[self.name]["dataset"]
            if self.seed == DEFAULT_SEED and dataset_digest(self.dataset) != expected:
                problems.append("dataset differs from the recorded seed-7 digest")
            return problems

        self.attempt("synth dataset", body)

    def synth_pass(self) -> bool:
        out = self.work / "chunk"

        def body():
            shutil.rmtree(out, ignore_errors=True)
            code, secs = self.invoke(
                ["synth", "--scene", str(self.chunk_scene), "--out-dir", str(out)],
                io.StringIO())
            if code:
                return [f"synth exit {code}"]
            self.samples["synth_fps"].append(self.workload.synth_chunk / secs)
            problems = []
            for path in sorted(out.glob("*.pgm")):
                if path.read_bytes() != (self.dataset / path.name).read_bytes():
                    problems.append(f"{path.name} differs from the dataset's")
                    break
            labels = read_labels(out / "labels.csv")
            if labels != self.labels[: self.workload.synth_chunk]:
                problems.append("chunk labels differ from the dataset's")
            return problems

        return self.attempt("synth", body)

    # -- detect

    def detect(self, label: str = "detect") -> tuple[RecordStream, float] | None:
        """One checked detect pass: its output stream and wall seconds."""
        result: list[tuple[RecordStream, float]] = []

        def body():
            stream = RecordStream()
            code, secs = self.invoke(
                ["detect", "--input-dir", str(self.dataset), "--zones", str(self.zones)],
                stream)
            if code:
                return [f"detect exit {code}"]
            result.append((stream, secs))
            return self.check_detect(stream.lines(), len(stream.stamps))

        self.attempt(label, body)
        return result[0] if result else None

    def detect_pass(self) -> None:
        result = self.detect()
        if result is not None:
            stream, secs = result
            self.samples["detect_fps"].append(len(stream.stamps) / secs)
            self.intervals.extend(intervals_us(stream.stamps))

    def check_detect(self, lines: list[str], frames: int) -> list[str]:
        # the first pass is checked in full; a later one must repeat it, and
        # shares its verdict
        stripped = strip_elapsed(lines)
        if self.detect_lines is not None:
            if stripped != self.detect_lines:
                return ["output differs from the first pass"]
            return self.detect_problems
        problems = []
        if frames != len(self.labels):
            problems.append(f"{frames} detection records for {len(self.labels)} frames")
        digest = ndjson_digest(lines)
        if self.seed == DEFAULT_SEED and digest != DIGESTS[self.name]["detect"]:
            problems.append(f"NDJSON digest {digest} differs from the recorded seed-7 one")
        records = [json.loads(line) for line in stripped if is_detection_record(line)]
        for r in records:
            if r["verdict"] != (r["movement"] or any(r["flags"].values())):
                problems.append(f"frame {r['frame']}: verdict is not movement OR flags (C6)")
                break
        self.predictions = {
            "method_a": [r["movement"] for r in records],
            "method_b": [any(r["flags"].values()) for r in records],
            "hybrid": [r["verdict"] for r in records],
        }
        self.detect_lines, self.detect_problems = stripped, problems
        return problems

    # -- eval

    def eval_pass(self, check: Callable[[], list[str]] | None = None) -> bool:
        report = self.work / "report.json"

        def body():
            code, secs = self.invoke(
                ["eval", "--input-dir", str(self.dataset),
                 "--labels", str(self.dataset / "labels.csv"), "--out", str(report)],
                io.StringIO())
            if code:
                return [f"eval exit {code}"]
            data = json.loads(report.read_text())
            self.samples["eval_fps"].append(data["frames_evaluated"] / secs)
            matrices = {
                m: {k: cells[k] for k in ("tp", "fp", "fn", "tn")}
                for m, cells in data["matrices"].items()
            }
            problems = self.check_eval(matrices, data["frames_evaluated"])
            return problems + (check() if check else [])

        return self.attempt("eval", body)

    def check_eval(self, matrices: dict, frames: int) -> list[str]:
        if self.matrices is not None:
            if matrices != self.matrices:
                return ["matrices differ from the first pass"]
            return self.eval_problems
        problems = [] if self.predictions else ["no detect output to compare with"]
        if frames != len(self.labels):
            problems.append(f"evaluated {frames} of {len(self.labels)} frames")
        # detect's verdicts and components must score exactly as eval's
        # predictions do, method by method
        for method, preds in self.predictions.items():
            if confusion(preds, self.labels) != matrices.get(method):
                problems.append(f"{method}: eval matrix disagrees with detect's records")
        if self.name == "ref160" and self.seed == DEFAULT_SEED:
            golden = json.loads(GOLDEN.read_text())
            if matrices != golden["matrices"] or frames != golden["frames"]:
                problems.append("matrices differ from tests/data/reference_golden.json")
        self.matrices, self.eval_problems = matrices, problems
        return problems

    # -- start-up

    def setup_probe(self) -> None:
        """Time from spawning a fresh detect process to its first record."""

        def body():
            argv = [sys.executable, "-m", "thermal_sentry.cli", "detect",
                    "--input-dir", str(self.one_frame), "--zones", str(self.zones)]
            env = dict(os.environ, PYTHONPATH=str(SRC))
            secs, code, first, err = first_line(argv, env)
            if code:
                return [f"exit {code}: {err.strip()}"]
            self.samples["setup_s"].append(secs)
            if self.detect_lines and strip_elapsed([first]) != self.detect_lines[:1]:
                return ["first record differs from detect's frame 0"]
            return []

        self.attempt("start-up probe", body)


def measure(run: Run, seconds: int) -> dict[str, tuple[float, str]]:
    """Untimed warm-up, then three timed phases: synth passes, rounds of one
    detect and one eval pass, and start-up processes.

    The speed of this shared machine drifts by a quarter and more over
    minutes. So every detect and eval pass and every start-up process is
    followed by a calibration, and its throughput or times are scaled to the
    reference speed by the calibrations on either side of it. synth is not
    scaled: most of its time is page faults, whose cost varies apart from
    anything a calibration tracked (README.md).

    synth has a phase of its own. The objects that detect and eval leave
    behind change where the allocator places synth's frame buffers: after
    about a dozen interleaved rounds synth stops page-faulting on every
    frame and runs about 30% faster, at a round that varies from run to run.
    A fresh synth process faults on every frame, and so do synth passes that
    follow only the warm-up. detect and eval are interleaved so that both
    sample the same stretch of machine time. The start-up processes come
    last: each one allocates and frees a whole interpreter's memory, which
    slows the in-process passes that follow it on this virtual machine.
    """
    # warm-up round: fills caches and pins the reference outputs; untimed
    run.detect("warm-up detect")
    run.eval_pass()
    run.synth_pass()
    for key in run.samples:
        run.samples[key].clear()
    calibration = Calibration(run.workload.scale, run.work)

    def timed(make_pass: Callable[[], object], kind: str) -> None:
        done = {key: len(values) for key, values in run.samples.items()}
        frames = len(run.intervals)
        make_pass()
        slow = calibration.slowdown(kind)
        run.slowdowns.setdefault(kind, []).append(slow)
        for key, values in run.samples.items():
            scale = slow if key.endswith("_fps") else 1 / slow
            values[done[key]:] = [v * scale for v in values[done[key]:]]
        run.intervals[frames:] = [us / slow for us in run.intervals[frames:]]

    start = time.monotonic()
    while True:
        run.synth_pass()
        if time.monotonic() >= start + seconds * SYNTH_SHARE:
            break
    while True:
        timed(run.detect_pass, "replay")
        timed(run.eval_pass, "replay")
        if time.monotonic() >= start + seconds * (1 - SETUP_SHARE):
            break
    while True:
        timed(run.setup_probe, "start")
        if time.monotonic() >= start + seconds:
            break
    return summarize(run)


def summarize(run: Run) -> dict[str, tuple[float, str]]:
    """Each metric with the samples it rests on.

    Throughputs are the median over passes, and frame times percentiles of
    all frame intervals of the run, so a run reflects its whole span of
    machine time rather than its luckiest pass. Times and throughputs are
    at the reference speed, except synth's; memory is as measured.
    """
    s = run.samples
    metrics = {}
    for kind, slowdowns in run.slowdowns.items():
        print(f"machine at {1 / statistics.median(slowdowns):.3f} of the reference speed "
              f"by the {kind} calibration (median of {len(slowdowns)})")
    for key in ("detect_fps", "eval_fps", "synth_fps"):
        if s[key]:
            metrics[key] = (statistics.median(s[key]), f"median of {len(s[key])} passes")
    n = len(run.intervals)
    for q in (50, 90, 99):
        value = tail_percentile(run.intervals, q)
        if value is not None:
            beyond = n - math.ceil(q / 100.0 * n)
            metrics[f"frame_us_p{q}"] = (value, f"of {n} frame intervals, {beyond} beyond")
    if s["setup_s"]:
        metrics["setup_s"] = (statistics.median(s["setup_s"]),
                              f"median of {len(s['setup_s'])} fresh processes")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "high-water mark of this process")
    metrics["failed_ops"] = (run.failed / max(run.attempted, 1),
                             f"{run.failed} of {run.attempted} invocations")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    if not REFERENCE_SCENE.is_file():
        raise SystemExit(f"benchmark: missing {REFERENCE_SCENE}")
    WORK_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_PARENT) as tmp:
        run = Run(cli, args.workload, args.seed, Path(tmp))
        run.make_dataset()
        if run.failed:
            raise SystemExit("benchmark: could not build the dataset")
        if args.trace:
            from layers import PER_LAYER_UNITS, traced_run

            metrics = traced_run(run, args.seconds)
            units, reported = PER_LAYER_UNITS, PER_LAYER_UNITS
        else:
            metrics = measure(run, args.seconds)
            units, reported = UNITS, END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds} s")
    for name, (value, basis) in metrics.items():
        print(f"  {name:38s} {value:12.4f} {units[name]:9s} {basis}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in reported if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
