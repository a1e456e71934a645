"""Command-line interface: replay detection, evaluation, synthesis, benchmarking.

Detection output is NDJSON, one record per line. Per-frame records carry
exactly the fields {frame, verdict, movement, active_count, quadrant_means,
flags, state, elapsed_us}; zone events are separate records with the fields
{frame, event, quadrant, from_state, to_state}. Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .evaluate import (
    ConfusionMatrix,
    DatasetError,
    LatencyStats,
    Method,
    accuracy,
    format_matrix,
    format_report,
    report_to_dict,
    run_eval,
)
from .frame import QUADRANTS, PgmError, ThermalFrame, load_pgm, replay_dir
from .hybrid import CombineMode, hybrid_step
from .motion import MotionConfig, motion_init, motion_step
from .roi import RoiConfig, roi_analyze
from .synth import BlobSpec, SceneError, SceneSpec, generate, parse_scene, render_frame
from .zones import ZoneConfig, ZoneState, parse_zone_config, zone_update

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

CONFIG_ENV = "THERMAL_SENTRY_CONFIG"

# config-file keys and how to convert their values (CLI flags take precedence)
_CONFIG_KEYS = {
    "active_delta": int,
    "active_fraction": float,
    "max_hold_frames": int,
    "roi_ratio": float,
    "roi_min_mean": int,
    "mode": str,
    "zones": str,
}


# (quadrant, record key) pairs, in record order
_QUADRANT_KEYS = tuple((q, q.name) for q in QUADRANTS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for data errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _checked(convert, config, field: str):
    """Flag type that converts the text and then has the config dataclass
    check the value, so an out-of-range flag is a usage error. The same value
    from a config file reaches the dataclass directly and stays a data error."""

    def parse(text: str):
        value = convert(text)
        try:
            config(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser(defaults: dict | None = None) -> _Parser:
    parser = _Parser(
        prog="thermal-sentry",
        description="Human-presence detection for low-resolution thermal imagery.",
        # main() reads --config before parsing; an abbreviation it cannot
        # see must not be accepted and then ignored
        allow_abbrev=False,
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help=f"key=value config file (default: ${CONFIG_ENV})",
    )

    detector = _Parser(add_help=False)
    group = detector.add_argument_group("detector options")
    group.add_argument("--active-delta", default=20, metavar="COUNTS",
                       type=_checked(int, MotionConfig, "active_pixel_delta"),
                       help="per-pixel movement threshold (default 20)")
    group.add_argument("--active-fraction", default=0.05, metavar="FRAC",
                       type=_checked(float, MotionConfig, "active_fraction"),
                       help="fraction of active pixels that means movement (default 0.05)")
    group.add_argument("--max-hold-frames", default=None, metavar="N",
                       type=_checked(int, MotionConfig, "max_hold_frames"),
                       help="force a background refresh after N movement frames")
    group.add_argument("--roi-ratio", default=1.20, metavar="RATIO",
                       type=_checked(float, RoiConfig, "ratio"),
                       help="quadrant mean must exceed RATIO x frame mean (default 1.20)")
    group.add_argument("--roi-min-mean", default=1, metavar="COUNTS",
                       type=_checked(int, RoiConfig, "min_quadrant_mean"),
                       help="absolute quadrant-mean floor (default 1)")
    group.add_argument("--mode", choices=["parallel", "sequential"], default="parallel",
                       help="combine mode: run both methods, or B first (default parallel)")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_detect = sub.add_parser(
        "detect", parents=[detector], help="replay frames and emit NDJSON detections"
    )
    p_detect.add_argument("frames", nargs="*", metavar="FRAME.pgm",
                          help="individual frame files, in order")
    p_detect.add_argument("--input-dir", metavar="DIR",
                          help="directory of PGM frames (lexicographic order)")
    p_detect.add_argument("--zones", metavar="FILE", help="zone configuration file")
    p_detect.add_argument("--out", metavar="FILE", help="write NDJSON here instead of stdout")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser(
        "eval", parents=[detector], help="score a labeled dataset (three confusion matrices)"
    )
    p_eval.add_argument("--input-dir", metavar="DIR", help="directory of PGM frames")
    p_eval.add_argument("--labels", metavar="FILE", help="ground-truth CSV")
    p_eval.add_argument("--cells", metavar="TP,FP,FN,TN",
                        help="score an explicit confusion matrix instead of a dataset")
    p_eval.add_argument("--out", metavar="FILE", help="also write the report as JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p_synth.add_argument("--scene", required=True, metavar="FILE", help="scene description file")
    p_synth.add_argument("--out-dir", required=True, metavar="DIR", help="dataset output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser(
        "bench", parents=[detector], help="measure per-frame detection latency"
    )
    p_bench.add_argument("--iterations", type=_positive_int, default=1000, metavar="N",
                         help="frames to process (default 1000)")
    p_bench.add_argument("--input-dir", metavar="DIR",
                         help="frames to cycle through (default: built-in 160x120 scene)")
    p_bench.add_argument("--out", metavar="FILE", help="also write results as JSON")
    p_bench.set_defaults(func=cmd_bench)

    if defaults:
        # subparsers parse into a fresh namespace, so config-file defaults
        # must be pushed down to each of them, not just the root parser
        for p in (parser, p_detect, p_eval, p_bench):
            p.set_defaults(**defaults)
    return parser


def _load_config_file(path: str) -> dict:
    defaults = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if not sep or key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {raw!r}")
        try:
            defaults[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}") from None
    return defaults


def _detector_configs(args) -> tuple[MotionConfig, RoiConfig, CombineMode]:
    motion_cfg = MotionConfig(
        active_pixel_delta=args.active_delta,
        active_fraction=args.active_fraction,
        max_hold_frames=args.max_hold_frames,
    )
    roi_cfg = RoiConfig(ratio=args.roi_ratio, min_quadrant_mean=args.roi_min_mean)
    mode = CombineMode(args.mode)
    return motion_cfg, roi_cfg, mode


def _iter_input_frames(args):
    if args.input_dir:
        yield from replay_dir(args.input_dir)
        return
    for index, path in enumerate(args.frames):
        frame = load_pgm(path)
        # the frame is fresh from load_pgm and not yet shared, as in replay_dir
        object.__setattr__(frame, "frame_index", index)
        yield frame


def cmd_detect(args) -> int:
    if bool(args.input_dir) == bool(args.frames):
        print("detect: exactly one of --input-dir or frame files required",
              file=sys.stderr)
        return EXIT_USAGE
    motion_cfg, roi_cfg, mode = _detector_configs(args)
    zone_cfg = ZoneConfig()
    if args.zones:
        zone_cfg = parse_zone_config(Path(args.zones).read_text())

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        state = motion_init(motion_cfg)
        zone_state = ZoneState()
        for frame in _iter_input_frames(args):
            detection = hybrid_step(state, frame, roi_cfg, mode)
            safety, events = zone_update(zone_state, detection, zone_cfg)
            roi = detection.roi
            motion = detection.motion
            record = {
                "frame": detection.frame_index,
                "verdict": detection.verdict,
                "movement": motion.movement if motion else None,
                "active_count": motion.active_count if motion else None,
                "quadrant_means": {
                    key: round(roi.quadrant_means[q], 3) for q, key in _QUADRANT_KEYS
                },
                "flags": {key: roi.flags[q] for q, key in _QUADRANT_KEYS},
                "state": safety.label,
                "elapsed_us": round(detection.elapsed_us, 3),
            }
            out.write(json.dumps(record) + "\n")
            for event in events:
                # SafetyState.RUN and QuadrantId.Q0 are falsy IntEnums;
                # compare against None explicitly
                out.write(json.dumps({
                    "frame": event.frame_index,
                    "event": event.kind.value,
                    "quadrant": event.quadrant.name if event.quadrant is not None else None,
                    "from_state": event.from_state.label if event.from_state is not None else None,
                    "to_state": event.to_state.label if event.to_state is not None else None,
                }) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.cells:
        try:
            cells = [int(c) for c in args.cells.split(",")]
            if len(cells) != 4:
                raise ValueError
        except ValueError:
            print("eval: --cells expects TP,FP,FN,TN", file=sys.stderr)
            return EXIT_USAGE
        cm = ConfusionMatrix(*cells)
        for line in format_matrix("Injected matrix", cm, accuracy(cm)):
            print(line)
        return EXIT_OK
    if not args.input_dir or not args.labels:
        print("eval: --input-dir and --labels required (or --cells)", file=sys.stderr)
        return EXIT_USAGE
    motion_cfg, roi_cfg, mode = _detector_configs(args)
    report = run_eval(args.input_dir, args.labels, motion_cfg, roi_cfg, mode)
    print(format_report(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = parse_scene(Path(args.scene).read_text())
    dataset = generate(spec, args.out_dir)
    positives = sum(1 for label in dataset.labels if label.human_present)
    print(f"wrote {len(dataset.frame_paths)} frames to {dataset.directory}")
    print(f"labels: {positives} positive, {len(dataset.labels) - positives} negative "
          f"({dataset.labels_path})")
    return EXIT_OK


def _bench_frames() -> list[ThermalFrame]:
    # one walking human plus one static heat source, cycled during the bench
    spec = SceneSpec(
        frames=48,
        ambient=60.0,
        drift_per_frame=0.05,
        noise_sigma=1.5,
        seed=99,
        blobs=(
            BlobSpec(900.0, 8.0, ((0, 20.0, 30.0), (47, 140.0, 90.0))),
            BlobSpec(250.0, 5.0, ((0, 130.0, 20.0),), is_human=False),
        ),
    )
    return [render_frame(spec, t) for t in range(spec.frames)]


def cmd_bench(args) -> int:
    motion_cfg, roi_cfg, _ = _detector_configs(args)
    if args.input_dir:
        frames = list(replay_dir(args.input_dir))
        if not frames:
            print(f"bench: no frames in {args.input_dir}", file=sys.stderr)
            return EXIT_DATA
    else:
        frames = _bench_frames()

    state = motion_init(motion_cfg)
    samples: dict[Method, list[float]] = {m: [] for m in Method}
    for i in range(args.iterations):
        frame = frames[i % len(frames)]
        t0 = time.perf_counter_ns()
        roi = roi_analyze(frame, roi_cfg)
        t1 = time.perf_counter_ns()
        motion_step(state, frame)
        t2 = time.perf_counter_ns()
        samples[Method.METHOD_B].append((t1 - t0) / 1000.0)
        samples[Method.METHOD_A].append((t2 - t1) / 1000.0)
        samples[Method.HYBRID].append((t2 - t0) / 1000.0)

    stats = {m: LatencyStats.from_samples(samples[m]) for m in Method}
    width, height = frames[0].width, frames[0].height
    print(f"{args.iterations} iterations on {width}x{height} frames")
    names = {Method.METHOD_A: "method A", Method.METHOD_B: "method B",
             Method.HYBRID: "hybrid  "}
    for m in Method:
        s = stats[m]
        print(f"  {names[m]}  max {s.max_us:9.1f} us   mean {s.mean_us:9.1f} us   "
              f"p99 {s.p99_us:9.1f} us")
    if args.out:
        payload = {
            "iterations": args.iterations,
            "frame_size": [width, height],
            "latency_us": {
                m.value: {"max": s.max_us, "mean": s.mean_us, "p99": s.p99_us}
                for m, s in stats.items()
            },
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # the config file supplies the parser's defaults, so it is read first;
    # like argparse, take the last --config FILE or --config=FILE
    config_path = os.environ.get(CONFIG_ENV)
    for at, arg in enumerate(argv):
        if arg == "--config":
            if at + 1 >= len(argv):
                print("thermal-sentry: --config requires a file", file=sys.stderr)
                return EXIT_USAGE
            config_path = argv[at + 1]
        elif arg.startswith("--config="):
            config_path = arg.partition("=")[2]
    defaults = {}
    if config_path:
        try:
            defaults = _load_config_file(config_path)
        except (OSError, ValueError) as exc:
            print(f"thermal-sentry: {exc}", file=sys.stderr)
            return EXIT_DATA

    parser = build_parser(defaults)
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (PgmError, DatasetError, SceneError, OSError, ValueError) as exc:
        print(f"thermal-sentry: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
