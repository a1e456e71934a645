"""Command-line interface: replay detection, evaluation and synthesis.

Detection output is NDJSON, one record per line. Per-frame records carry
exactly the fields {frame, verdict, movement, active_count, quadrant_means,
flags, state, elapsed_us}; both detectors run on every frame, so `movement`
is always a bool and `active_count` always an int. Zone events are separate
records with the fields {frame, event, quadrant, from_state, to_state}.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path

from .frame import replay_dir, replay_files
from .hybrid import Detection, hybrid_step
from .keyvalue import checked, read_settings
from .motion import MotionConfig, MotionState
from .roi import RoiConfig
from .zones import SafetyState, ZoneConfig, ZoneEvent, ZoneState, parse_zone_config, zone_update

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

CONFIG_ENV = "THERMAL_SENTRY_CONFIG"


class BadValueError(argparse.ArgumentTypeError, ValueError):
    """A flag or config-file value out of range: argparse prints its message
    for a flag, and the config-file reader catches it as a ValueError."""


def _file(text: str) -> str:
    # '' would mean no zone file (every quadrant ignored), stdout or the
    # current directory, not the file the flag names
    if not text:
        raise BadValueError("empty file name")
    return text


# A detection record as json.dumps writes it, with the fields in the order
# the module docstring lists them; only the values vary from frame to frame.
_RECORD = (
    '{{"frame": {}, "verdict": {}, "movement": {}, "active_count": {}, '
    '"quadrant_means": {{"Q0": {}, "Q1": {}, "Q2": {}, "Q3": {}}}, '
    '"flags": {{"Q0": {}, "Q1": {}, "Q2": {}, "Q3": {}}}, '
    '"state": "{}", "elapsed_us": {}}}\n'
).format
_LITERAL = {True: "true", False: "false"}
# each state's label, read once: `.label` costs two Enum property calls
_LABEL = {state: state.label for state in SafetyState}
# A zone event the same way; every name it holds is plain ASCII.
_EVENT = (
    '{{"frame": {}, "event": "{}", "quadrant": {}, "from_state": {}, "to_state": {}}}\n'
).format


class _Parser(argparse.ArgumentParser):
    # every option is spelled out in full: an abbreviation such as --conf or
    # --max-hold is a usage error. add_subparsers builds each subcommand's
    # parser as this class, so the rule holds for every subcommand.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits 2 on usage errors; 2 is reserved for data errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # argparse hands a subcommand's unrecognized arguments back to the root
    # parser, whose usage line lists none of the subcommand's flags, so
    # each parser reports its own
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# The detector flags of detect and eval, by the config they set: (flag,
# config-file key and config field, converter, metavar, help). Each default
# is the config class's own.
_DETECTOR_FLAGS = {
    MotionConfig: (
        ("active_delta", int, "COUNTS", "per-pixel movement threshold"),
        ("active_fraction", float, "FRAC", "fraction of active pixels that means movement"),
        ("max_hold_frames", int, "N", "force a background refresh after N movement frames"),
    ),
    RoiConfig: (
        ("roi_ratio", float, "RATIO", "quadrant mean must exceed RATIO x frame mean"),
        ("roi_min_mean", int, "COUNTS", "absolute quadrant-mean floor"),
    ),
}

# config-file keys and how to convert their values (CLI flags take precedence);
# the detector flags convert with the same functions, so a value out of range
# is reported where it is written: as a flag a usage error, in a config file a
# data error, even when a flag overrides it or the command builds no detector
_CONFIG_KEYS = {
    key: checked(convert, config, key, error=BadValueError)
    for config, flags in _DETECTOR_FLAGS.items()
    for key, convert, _, _ in flags
}
_CONFIG_KEYS.update(zones=_file)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="thermal-sentry",
        description="Human-presence detection for low-resolution thermal imagery.",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help=f"key=value config file, given before COMMAND (default: ${CONFIG_ENV})",
    )

    detector = _Parser(add_help=False)
    group = detector.add_argument_group("detector options")
    # a flag not given sets nothing: the config file or class supplies it
    for config, flags in _DETECTOR_FLAGS.items():
        for key, _, metavar, text in flags:
            default = getattr(config(), key)
            group.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                               metavar=metavar, type=_CONFIG_KEYS[key],
                               help=text if default is None else f"{text} (default {default})")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_detect = sub.add_parser(
        "detect", parents=[detector], help="replay frames and emit NDJSON detections"
    )
    p_detect.add_argument("frames", nargs="*", metavar="FRAME.pgm",
                          help="individual frame files, in order")
    p_detect.add_argument("--input-dir", metavar="DIR", type=_file,
                          help="directory of PGM frames (lexicographic order)")
    p_detect.add_argument("--zones", metavar="FILE", type=_file, help="zone configuration file")
    p_detect.add_argument("--out", metavar="FILE", type=_file,
                          help="write NDJSON here instead of stdout")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser(
        "eval", parents=[detector], help="score a labeled dataset (three confusion matrices)"
    )
    p_eval.add_argument("--input-dir", metavar="DIR", type=_file, help="directory of PGM frames")
    p_eval.add_argument("--labels", metavar="FILE", type=_file, help="ground-truth CSV")
    p_eval.add_argument("--cells", metavar="TP,FP,FN,TN",
                        help="score an explicit confusion matrix instead of a dataset")
    p_eval.add_argument("--out", metavar="FILE", type=_file,
                        help="also write the report as JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p_synth.add_argument("--scene", required=True, metavar="FILE", type=_file,
                         help="scene description file")
    p_synth.add_argument("--out-dir", required=True, metavar="DIR", type=_file,
                         help="dataset output directory")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def parse_config(text: str) -> dict:
    """Settings, by config-file key, from config-file text."""
    return read_settings(text, _CONFIG_KEYS)


def _detector_configs(args) -> tuple[MotionConfig, RoiConfig]:
    given = vars(args)  # a setting neither flag nor file gave is the class default
    return tuple(
        config(**{key: given[key] for key, *_ in flags if key in given})
        for config, flags in _DETECTOR_FLAGS.items()
    )


def _parse_file(path: str, parse):
    """`parse` of the file's text, with the file named in its errors."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))  # a leading BOM is dropped
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decimal3(x: float) -> str:
    """`float.__repr__(round(x, 3))`, which is `x` rounded to 3 decimals and
    written without trailing zeros past the first decimal. Inside +-1e12 a
    3-decimal value has at most 15 significant digits, so that repr is
    exactly the fixed-point text, and fixed-point formatting (correctly
    rounded, as round() is) costs less than round() plus repr."""
    if -1e12 < x < 1e12:
        text = f"{x:.3f}".rstrip("0")
        return text + "0" if text[-1] == "." else text
    return float.__repr__(round(x, 3))


def record_line(detection: Detection, state: SafetyState) -> str:
    """One detection record as an NDJSON line: the bytes of `json.dumps` of
    the record, with means and elapsed_us rounded to 3 decimals."""
    motion, roi = detection.motion, detection.roi
    m0, m1, m2, m3 = roi.quadrant_means
    f0, f1, f2, f3 = roi.flags
    return _RECORD(
        detection.frame_index, _LITERAL[detection.verdict], _LITERAL[motion.movement],
        motion.active_count, _decimal3(m0), _decimal3(m1), _decimal3(m2), _decimal3(m3),
        _LITERAL[f0], _LITERAL[f1], _LITERAL[f2], _LITERAL[f3],
        _LABEL[state], _decimal3(detection.elapsed_us),
    )


def event_line(event: ZoneEvent) -> str:
    """One zone event as an NDJSON line: the bytes of `json.dumps` of the
    record. SafetyState.RUN and QuadrantId.Q0 are falsy IntEnums, so each
    is compared against None explicitly. `_value_` and `_name_` are what the
    Enum properties `value` and `name` return, read without their calls."""
    quadrant, before, after = event.quadrant, event.from_state, event.to_state
    return _EVENT(
        event.frame_index, event.kind._value_,
        "null" if quadrant is None else f'"{quadrant._name_}"',
        "null" if before is None else f'"{_LABEL[before]}"',
        "null" if after is None else f'"{_LABEL[after]}"',
    )


@contextmanager
def _output(path: str | None):
    """The stream for an `--out` flag's FILE, or stdout when none is given.

    A regular file or a path not there yet is replaced only once the run
    succeeds, so a failed run leaves an existing file as it was; the new
    file gets the mode `open(path, "w")` would give it. Anything else, such
    as a FIFO or the symlink /dev/stdout, is written in place, and so is a
    path next to which no temporary file can be created. The temporary file
    is `.NAME.PID.tmp` next to the target, or `.NAME.PID.N.tmp` when a file,
    such as one left by a killed process that had the same pid, holds that
    name.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        mode = None
    fd = -1
    if mode is None or stat.S_ISREG(mode):
        directory, name = os.path.split(path)
        stem = os.path.join(directory, f".{name}.{os.getpid()}")
        for attempt in range(100):  # all taken: the file is written in place
            temp = f"{stem}.{attempt}.tmp" if attempt else f"{stem}.tmp"
            try:  # as for open(path, "w"), a new file is 0o666 less the umask
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                pass
            except OSError:
                break
    if fd < 0:
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield out
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def cmd_detect(args) -> int:
    if bool(args.input_dir) == bool(args.frames):
        print("detect: exactly one of --input-dir or frame files required",
              file=sys.stderr)
        return EXIT_USAGE
    motion_cfg, roi_cfg = _detector_configs(args)
    zone_cfg = _parse_file(args.zones, parse_zone_config) if args.zones else ZoneConfig()

    frames = replay_dir(args.input_dir) if args.input_dir else replay_files(args.frames)
    with _output(args.out) as out:
        state = MotionState(motion_cfg)
        zone_state = ZoneState(zone_cfg)
        for frame in frames:
            detection = hybrid_step(state, frame, roi_cfg)
            safety, events = zone_update(
                zone_state, detection.frame_index, detection.roi.flags, detection.verdict)
            out.write(record_line(detection, safety))
            for event in events:
                out.write(event_line(event))
    return EXIT_OK


# `detect` needs neither evaluate (with csv) nor synth, so they are imported
# on first use. The benchmark traces run_eval and generate as attributes of
# this module, looked up when cmd_eval and cmd_synth call them.
def run_eval(*args, **kwargs):
    from .evaluate import run_eval
    return run_eval(*args, **kwargs)


def generate(*args, **kwargs):
    from .synth import generate
    return generate(*args, **kwargs)


def cmd_eval(args) -> int:
    from .evaluate import ConfusionMatrix, accuracy, format_matrix, format_report, report_to_dict

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
    # an --out that cannot be written fails the run before any report is printed
    if args.out:
        import json

        with _output(args.out) as out:
            out.write(json.dumps(report_to_dict(report), indent=2) + "\n")
    print(format_report(report))
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synth import parse_scene

    spec = _parse_file(args.scene, parse_scene)
    dataset = generate(spec, args.out_dir)
    positives = sum(1 for label in dataset.labels if label.human_present)
    print(f"wrote {len(dataset.frame_paths)} frames to {dataset.directory}")
    print(f"labels: {positives} positive, {len(dataset.labels) - positives} negative "
          f"({dataset.labels_path})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    # a config file supplies each setting no flag gave, so that a flag on
    # the command line wins; --config '' names no file
    config_path = os.environ.get(CONFIG_ENV) if args.config is None else args.config
    try:
        if config_path:
            for key, value in _parse_file(config_path, parse_config).items():
                if getattr(args, key, None) is None:
                    setattr(args, key, value)
        return args.func(args)
    except (OSError, ValueError) as exc:  # every data error class is a ValueError
        print(f"thermal-sentry: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
