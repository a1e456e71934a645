"""Command-line interface: replay detection, evaluation and synthesis.

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
import stat
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Mapping

from .evaluate import (
    ConfusionMatrix,
    DatasetError,
    accuracy,
    format_matrix,
    format_report,
    report_to_dict,
    run_eval,
)
from .frame import QUADRANTS, PgmError, QuadrantId, replay_dir, replay_files
from .hybrid import hybrid_step
from .keyvalue import key_value_lines
from .motion import MotionConfig, motion_init
from .roi import RoiConfig
from .synth import SceneError, generate, parse_scene
from .zones import ZoneConfig, ZoneState, parse_zone_config, zone_update

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

CONFIG_ENV = "THERMAL_SENTRY_CONFIG"

_MODES = ("parallel", "sequential")


def _mode(text: str) -> str:
    if text not in _MODES:
        raise ValueError(text)
    return text


# config-file keys and how to convert their values (CLI flags take precedence)
_CONFIG_KEYS = {
    "active_delta": int,
    "active_fraction": float,
    "max_hold_frames": int,
    "roi_ratio": float,
    "roi_min_mean": int,
    "mode": _mode,
    "zones": str,
}


# A detection record as json.dumps writes it, with the fields in the order
# the module docstring lists them; only the values vary from frame to frame.
_RECORD = (
    '{{"frame": {}, "verdict": {}, "movement": {}, "active_count": {}, '
    '"quadrant_means": {{"Q0": {}, "Q1": {}, "Q2": {}, "Q3": {}}}, '
    '"flags": {{"Q0": {}, "Q1": {}, "Q2": {}, "Q3": {}}}, '
    '"state": "{}", "elapsed_us": {}}}\n'
).format
_LITERAL = {True: "true", False: "false", None: "null"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for data errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_detect = sub.add_parser(
        "detect", parents=[detector], help="replay frames and emit NDJSON detections"
    )
    p_detect.add_argument("frames", nargs="*", metavar="FRAME.pgm",
                          help="individual frame files, in order")
    p_detect.add_argument("--input-dir", metavar="DIR",
                          help="directory of PGM frames (lexicographic order)")
    p_detect.add_argument("--zones", metavar="FILE", help="zone configuration file")
    p_detect.add_argument("--mode", choices=_MODES, default="parallel",
                          help="combine mode: run both methods, or B first (default parallel)")
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

    if defaults:
        # subparsers parse into a fresh namespace, so config-file defaults
        # must be pushed down to each of them, not just the root parser
        for p in (parser, p_detect, p_eval):
            p.set_defaults(**defaults)
    return parser


def _load_config_file(path: str) -> dict:
    defaults = {}
    for lineno, raw, key, value in key_value_lines(Path(path).read_text()):
        key = key.replace("-", "_")
        if value is None or key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {raw!r}")
        try:
            defaults[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}") from None
    return defaults


def _detector_configs(args) -> tuple[MotionConfig, RoiConfig]:
    motion_cfg = MotionConfig(
        active_pixel_delta=args.active_delta,
        active_fraction=args.active_fraction,
        max_hold_frames=args.max_hold_frames,
    )
    roi_cfg = RoiConfig(ratio=args.roi_ratio, min_quadrant_mean=args.roi_min_mean)
    return motion_cfg, roi_cfg


def record_line(
    frame: int,
    verdict: bool,
    movement: bool | None,
    active_count: int | None,
    quadrant_means: Mapping[QuadrantId, float],
    flags: Mapping[QuadrantId, bool],
    state: str,
    elapsed_us: float,
) -> str:
    """One detection record as an NDJSON line: the bytes of `json.dumps` of
    the record, with means and elapsed_us rounded to 3 decimals."""
    q0, q1, q2, q3 = QUADRANTS
    return _RECORD(
        frame, _LITERAL[verdict], _LITERAL[movement],
        "null" if active_count is None else active_count,
        float.__repr__(round(quadrant_means[q0], 3)),
        float.__repr__(round(quadrant_means[q1], 3)),
        float.__repr__(round(quadrant_means[q2], 3)),
        float.__repr__(round(quadrant_means[q3], 3)),
        _LITERAL[flags[q0]], _LITERAL[flags[q1]], _LITERAL[flags[q2]], _LITERAL[flags[q3]],
        state, float.__repr__(round(elapsed_us, 3)),
    )


def _open_out(path: str):
    """The stream for `detect --out`, and the temporary file behind it when
    it is to replace `path` once the run succeeds (else None).

    A regular file or a path not there yet is replaced, so a failed run
    leaves an existing file as it was; the new file gets the mode
    `open(path, "w")` would give it. Anything else, such as a FIFO or the
    symlink /dev/stdout, is written in place, and so is a path next to
    which no temporary file can be created.
    """
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        mode = None
    if mode is None or stat.S_ISREG(mode):
        directory, name = os.path.split(path)
        temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        try:
            # as for open(path, "w"), a new file is 0o666 less the umask
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
        else:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            return os.fdopen(fd, "w"), temp
    return open(path, "w"), None


def cmd_detect(args) -> int:
    if bool(args.input_dir) == bool(args.frames):
        print("detect: exactly one of --input-dir or frame files required",
              file=sys.stderr)
        return EXIT_USAGE
    motion_cfg, roi_cfg = _detector_configs(args)
    # sequential: a frame the quadrant method flagged reports no movement
    sequential = args.mode == "sequential"
    zone_cfg = ZoneConfig()
    if args.zones:
        zone_cfg = parse_zone_config(Path(args.zones).read_text())

    frames = replay_dir(args.input_dir) if args.input_dir else replay_files(args.frames)
    target, temp = _open_out(args.out) if args.out else (nullcontext(sys.stdout), None)
    try:
        with target as out:
            state = motion_init(motion_cfg)
            zone_state = ZoneState()
            for frame in frames:
                detection = hybrid_step(state, frame, roi_cfg)
                safety, events = zone_update(zone_state, detection, zone_cfg)
                roi = detection.roi
                motion = None if sequential and roi.any else detection.motion
                out.write(record_line(
                    detection.frame_index,
                    detection.verdict,
                    motion.movement if motion else None,
                    motion.active_count if motion else None,
                    roi.quadrant_means,
                    roi.flags,
                    safety.label,
                    detection.elapsed_us,
                ))
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
        if temp:
            os.replace(temp, args.out)
    except BaseException:
        if temp:
            os.unlink(temp)
        raise
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.cells:
        for flag, value in (("--input-dir", args.input_dir), ("--labels", args.labels),
                            ("--out", args.out)):
            if value is not None:
                print(f"eval: {flag} cannot be combined with --cells", file=sys.stderr)
                return EXIT_USAGE
        try:
            cells = [int(c) for c in args.cells.split(",")]
            if len(cells) != 4:
                raise ValueError
        except ValueError:
            print("eval: --cells expects TP,FP,FN,TN", file=sys.stderr)
            return EXIT_USAGE
        try:
            cm = ConfusionMatrix(*cells)
            acc = accuracy(cm)
        except ValueError as exc:  # negative or all-zero counts
            print(f"eval: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for line in format_matrix("Injected matrix", cm, acc):
            print(line)
        return EXIT_OK
    if not args.input_dir or not args.labels:
        print("eval: --input-dir and --labels required (or --cells)", file=sys.stderr)
        return EXIT_USAGE
    motion_cfg, roi_cfg = _detector_configs(args)
    report = run_eval(args.input_dir, args.labels, motion_cfg, roi_cfg)
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
