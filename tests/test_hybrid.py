import ast
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import thermal_sentry
from thermal_sentry.evaluate import (
    ConfusionMatrix, EvalReport, GroundTruthLabel, LatencyStats, Method)
from thermal_sentry.frame import QuadrantId, ThermalFrame, write_pgm
from thermal_sentry.hybrid import Detection, hybrid_step
from thermal_sentry.motion import MotionConfig, MotionResult, MotionState, motion_step
from thermal_sentry.roi import RoiConfig, RoiResult, roi_analyze
from thermal_sentry.synth import BlobSpec, LabeledDataset, SceneError, SceneSpec
from thermal_sentry.zones import SafetyState, ZoneClass, ZoneConfig, ZoneEvent, ZoneEventKind
from thermal_sentry.cli import main
from conftest import make_frame, uniform_frame


def hot_quadrant_frame(frame_index=0, base=50, hot=400):
    """Static frame whose Q0 trips the quadrant detector."""
    pixels = np.full((12, 16), base, dtype=np.uint16)
    pixels[:6, :8] = hot
    return ThermalFrame(16, 12, pixels, frame_index=frame_index)


def global_shift_frame(frame_index, base):
    """Uniform frame; a shift against the background moves every pixel but
    keeps all quadrant means equal, so only the movement method fires."""
    return uniform_frame(16, 12, base, frame_index=frame_index)


class TestVerdictTable:
    def test_movement_only_is_positive(self):
        state = MotionState()
        hybrid_step(state, global_shift_frame(0, 100))
        det = hybrid_step(state, global_shift_frame(1, 200))
        assert det.motion.movement and not det.roi.any
        assert det.verdict

    def test_roi_only_is_positive(self):
        state = MotionState()
        hybrid_step(state, hot_quadrant_frame(0))
        det = hybrid_step(state, hot_quadrant_frame(1))
        assert det.roi.any and not det.motion.movement
        assert det.verdict

    def test_both_negative_is_negative(self):
        state = MotionState()
        hybrid_step(state, global_shift_frame(0, 100))
        det = hybrid_step(state, global_shift_frame(1, 100))
        assert not det.motion.movement and not det.roi.any
        assert not det.verdict

    def test_both_positive_is_positive(self):
        state = MotionState()
        hybrid_step(state, global_shift_frame(0, 50))
        det = hybrid_step(state, hot_quadrant_frame(1))
        assert det.motion.movement and det.roi.any
        assert det.verdict

    def test_first_frame_with_hot_quadrant(self):
        # frame 0 is its own background, the quadrant method carries it
        state = MotionState()
        det = hybrid_step(state, hot_quadrant_frame(0))
        assert not det.motion.movement and det.motion.active_count == 0
        assert det.roi.any
        assert det.verdict

    def test_first_frame_cold_scene(self):
        state = MotionState()
        det = hybrid_step(state, global_shift_frame(0, 100))
        assert not det.verdict


def detect_records(tmp_path, capsys, frames):
    """Run `detect` over frames written as PGM files; return the per-frame
    records (zone events dropped)."""
    paths = []
    for frame in frames:
        path = tmp_path / f"f{frame.frame_index:03d}.pgm"
        write_pgm(frame, path)
        paths.append(str(path))
    capsys.readouterr()
    assert main(["detect", *paths]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return [r for r in records if "verdict" in r]


class TestDetectRecords:
    # both detectors run on every frame, and detect reports both results

    def test_parallel_reports_both_components(self, tmp_path, capsys):
        [rec] = detect_records(tmp_path, capsys, [hot_quadrant_frame(0)])
        assert rec["movement"] is False and rec["active_count"] == 0
        assert rec["flags"]["Q0"] and rec["verdict"]

    def test_motion_runs_on_flagged_frames(self, tmp_path, capsys):
        # the first unflagged frame is compared against the background the
        # flagged frames left behind; had the movement method skipped them,
        # that frame would be its own background and show no movement
        frames = [hot_quadrant_frame(0), hot_quadrant_frame(1, hot=500),
                  global_shift_frame(2, 50), global_shift_frame(3, 300)]
        records = detect_records(tmp_path, capsys, frames)
        assert [any(r["flags"].values()) for r in records] == [True, True, False, False]
        assert records[2]["movement"] is True

        state = MotionState()
        dets = [hybrid_step(state, frame) for frame in frames]
        assert ([[r["movement"], r["active_count"]] for r in records]
                == [[d.motion.movement, d.motion.active_count] for d in dets])


class TestUnionProperty:
    def test_hybrid_positives_are_union_of_standalone_positives(self, rng):
        # mixed random stream: shifts, hot quadrants, quiet stretches
        frames = []
        for t in range(60):
            kind = rng.integers(0, 3)
            if kind == 0:
                frames.append(global_shift_frame(t, int(rng.integers(50, 400))))
            elif kind == 1:
                frames.append(hot_quadrant_frame(t, hot=int(rng.integers(200, 600))))
            else:
                frames.append(global_shift_frame(t, 100))

        a_state = MotionState(MotionConfig())
        a_pos = {f.frame_index for f in frames if motion_step(a_state, f).movement}
        b_pos = {f.frame_index for f in frames if roi_analyze(f).any}
        h_state = MotionState(MotionConfig())
        h_pos = {f.frame_index for f in frames if hybrid_step(h_state, f).verdict}
        assert h_pos == a_pos | b_pos

    def test_elapsed_us_recorded_and_positive(self):
        state = MotionState()
        dets = [hybrid_step(state, global_shift_frame(t, 100)) for t in range(5)]
        assert all(d.elapsed_us > 0 for d in dets)


# Each record with its field names in order, one set of values for them and
# the same values with one field changed: the per-frame results, the configs
# and the records of evaluation and synthesis.
_MOTION = (True, 1000, 960, False, False)
_ROI = (70.5, tuple(70.5 + q for q in QuadrantId), tuple(q == 3 for q in QuadrantId), True)
_ZONES = {q: ZoneClass.WARNING for q in QuadrantId}
_EVENT = (9, ZoneEventKind.STATE_CHANGED, None, SafetyState.RUN, SafetyState.STOP)
_REPORT = ({Method.HYBRID: ConfusionMatrix(5, 1, 2, 8)}, {Method.HYBRID: 81.25},
           {Method.HYBRID: LatencyStats(40.0, 12.5, 35.0)}, 16)
_BLOB = (300.0, 4.0, ((0, 10.0, 20.0), (9, 30.0, 20.0)), False)
_SCENE = (12, 32, 24, 100.0, 0.5, 2.0, 7, (BlobSpec(*_BLOB),))
_DATASET = (Path("ds"), Path("ds/labels.csv"), (Path("ds/frame_000000.pgm"),),
            (GroundTruthLabel(0, False),))
RECORDS = [
    (MotionResult, ("movement", "active_count", "required_count",
                    "background_updated", "forced_refresh"), _MOTION,
     (False,) + _MOTION[1:]),
    (RoiResult, ("frame_mean", "quadrant_means", "flags", "any"), _ROI, (71.5,) + _ROI[1:]),
    (Detection, ("frame_index", "verdict", "elapsed_us", "motion", "roi"),
     (4, True, 12.5, MotionResult(*_MOTION), RoiResult(*_ROI)),
     (5, True, 12.5, MotionResult(*_MOTION), RoiResult(*_ROI))),
    (MotionConfig, ("active_delta", "active_fraction", "max_hold_frames"),
     (25, 0.1, 7), (25, 0.1, 8)),
    (RoiConfig, ("roi_ratio", "roi_min_mean"), (1.5, 10), (1.5, 11)),
    (ZoneConfig, ("zone_class", "debounce", "clear"), (_ZONES, 2, 4),
     (_ZONES, 2, 5)),
    (ZoneEvent, ("frame_index", "kind", "quadrant", "from_state", "to_state"), _EVENT,
     (10,) + _EVENT[1:]),
    (ConfusionMatrix, ("tp", "fp", "fn", "tn"), (5, 1, 2, 8), (5, 1, 2, 9)),
    (GroundTruthLabel, ("frame_index", "human_present", "occupied_quadrants"),
     (3, True, frozenset({QuadrantId.Q1})), (3, True, frozenset())),
    (LatencyStats, ("max_us", "mean_us", "p99_us"), (40.0, 12.5, 35.0), (40.0, 12.5, 36.0)),
    (EvalReport, ("matrices", "accuracies", "latency", "frames_evaluated"), _REPORT,
     _REPORT[:3] + (17,)),
    (BlobSpec, ("amplitude", "sigma", "path", "is_human"), _BLOB, _BLOB[:3] + (True,)),
    (SceneSpec, ("frames", "width", "height", "ambient", "drift", "noise_sigma",
                 "seed", "blobs"), _SCENE, _SCENE[:6] + (8,) + _SCENE[7:]),
    (LabeledDataset, ("directory", "labels_path", "frame_paths", "labels"), _DATASET,
     (Path("other"),) + _DATASET[1:]),
]


@pytest.mark.parametrize("record, names, values, changed", RECORDS,
                         ids=[record.__name__ for record, *_ in RECORDS])
class TestResultRecords:
    """The contract of the records the package returns and takes, whatever
    class implements them: the tests, the benchmark and callers build and
    read them by position and by name."""

    def test_field_names_in_order(self, record, names, values, changed):
        assert tuple(inspect.signature(record).parameters) == names

    def test_positional_construction(self, record, names, values, changed):
        built = record(*values)
        assert tuple(getattr(built, name) for name in names) == values
        assert built == record(**dict(zip(names, values)))

    def test_fields_cannot_be_assigned(self, record, names, values, changed):
        built = record(*values)
        for name, value in zip(names, values):
            with pytest.raises(AttributeError):
                setattr(built, name, value)
        assert tuple(getattr(built, name) for name in names) == values

    def test_equal_fields_compare_equal(self, record, names, values, changed):
        assert record(*values) == record(*values)
        assert not record(*values) != record(*values)
        assert record(*values) != record(*changed)

    def test_replace_changes_one_field(self, record, names, values, changed):
        [(name, value)] = [(n, c) for n, v, c in zip(names, values, changed) if v != c]
        assert record(*values)._replace(**{name: value}) == record(*changed)


# the configs the settings readers build one field at a time (`keyvalue.checked`)
@pytest.mark.parametrize("record, names, values, changed", RECORDS[3:6],
                         ids=[record.__name__ for record, *_ in RECORDS[3:6]])
def test_config_field_by_keyword(record, names, values, changed):
    default = record()
    for name, value in zip(names, values):
        built = record(**{name: value})
        assert [getattr(built, n) for n in names] == [
            value if n == name else getattr(default, n) for n in names]


_GRID = np.zeros((12, 16), dtype=np.uint16)
# each checked record built from values its checks reject: the keyword
# arguments, and the error with its message, which callers print
INVALID = [
    (ThermalFrame, dict(width=3), ValueError, "width must be an even int >= 2"),
    (ThermalFrame, dict(height=2), ValueError, "pixel grid shape (12, 16) does not match 2x16"),
    (ThermalFrame, dict(pixels=np.zeros(3)), ValueError, "expected 192 pixels, got 3"),
    (ThermalFrame, dict(pixels=_GRID - 1.0), ValueError, "pixel values must be ints in 0..65535"),
    (ThermalFrame, dict(frame_index=-1), ValueError, "frame_index must be an int >= 0"),
    (MotionConfig, dict(active_delta=0),
     ValueError, "active_delta must be an int in 1..65535"),
    (MotionConfig, dict(active_fraction=0.0), ValueError, "active_fraction must be in (0, 1]"),
    (MotionConfig, dict(max_hold_frames=0), ValueError, "max_hold_frames must be an int >= 1"),
    (RoiConfig, dict(roi_ratio=4.0),
     ValueError, "roi_ratio must be a finite number >= 1.0 and < 4.0"),
    (RoiConfig, dict(roi_min_mean=-1),
     ValueError, "roi_min_mean must be an int in 0..65535"),
    (ZoneConfig, dict(zone_class={QuadrantId.Q0: ZoneClass.IGNORE}),
     ValueError, "zone_class must map every quadrant"),
    (ZoneConfig, dict(zone_class={q: "critical" for q in QuadrantId}),
     ValueError, "zone_class values must be ZoneClass members"),
    (ZoneConfig, dict(debounce=0), ValueError, "debounce must be an int >= 1"),
    (ZoneConfig, dict(clear=0), ValueError, "clear must be an int >= 1"),
    (ZoneEvent, dict(frame_index=-1), ValueError, "frame_index must be an int >= 0"),
    (ConfusionMatrix, dict(fn=-1), ValueError, "fn must be an int >= 0"),
    (GroundTruthLabel, dict(frame_index=-1), ValueError, "frame_index must be an int >= 0"),
    (GroundTruthLabel, dict(human_present=False),
     ValueError, "occupied quadrants require human_present"),
    (BlobSpec, dict(amplitude=0.0), SceneError, "blob amplitude must be positive"),
    (BlobSpec, dict(path=()), SceneError, "blob path needs at least one waypoint"),
    (SceneSpec, dict(frames=0), SceneError, "frames must be an int >= 1"),
    (SceneSpec, dict(width=3), SceneError, "width must be an even int >= 2"),
    (SceneSpec, dict(noise_sigma=math.nan), SceneError, "noise_sigma must be finite"),
]
# values of a type the field does not take: a count takes an int and not a
# bool, pixels are counts too, and a bool ratio or fraction has no decimal
# text for the exact threshold arithmetic. Their ids carry the value.
WRONG_TYPE = [
    (ThermalFrame, dict(width=4.0), ValueError, "width must be an even int >= 2"),
    (ThermalFrame, dict(height=True), ValueError, "height must be an even int >= 2"),
    (ThermalFrame, dict(pixels=np.full((12, 16), 2.7)),
     ValueError, "pixel values must be ints in 0..65535"),
    (ThermalFrame, dict(pixels=np.full((12, 16), math.nan)),
     ValueError, "pixel values must be ints in 0..65535"),
    (ThermalFrame, dict(pixels=np.full((12, 16), math.inf)),
     ValueError, "pixel values must be ints in 0..65535"),
    (ThermalFrame, dict(pixels=np.ones((12, 16), dtype=bool)),
     ValueError, "pixel values must be ints in 0..65535"),
    (ThermalFrame, dict(frame_index=True), ValueError, "frame_index must be an int >= 0"),
    (ThermalFrame, dict(frame_index=1.5), ValueError, "frame_index must be an int >= 0"),
    (ThermalFrame, dict(frame_index="7"), ValueError, "frame_index must be an int >= 0"),
    (MotionConfig, dict(active_delta=20.5),
     ValueError, "active_delta must be an int in 1..65535"),
    (MotionConfig, dict(active_delta=True),
     ValueError, "active_delta must be an int in 1..65535"),
    (MotionConfig, dict(active_fraction=True), ValueError, "active_fraction must be in (0, 1]"),
    (MotionConfig, dict(max_hold_frames=2.5), ValueError, "max_hold_frames must be an int >= 1"),
    (MotionConfig, dict(max_hold_frames=True), ValueError, "max_hold_frames must be an int >= 1"),
    (RoiConfig, dict(roi_ratio=True),
     ValueError, "roi_ratio must be a finite number >= 1.0 and < 4.0"),
    (RoiConfig, dict(roi_min_mean=0.5),
     ValueError, "roi_min_mean must be an int in 0..65535"),
    (RoiConfig, dict(roi_min_mean=True),
     ValueError, "roi_min_mean must be an int in 0..65535"),
    (ZoneConfig, dict(debounce=2.5), ValueError, "debounce must be an int >= 1"),
    (ZoneConfig, dict(clear=True), ValueError, "clear must be an int >= 1"),
    (SceneSpec, dict(frames=2.5), SceneError, "frames must be an int >= 1"),
    (SceneSpec, dict(frames=True), SceneError, "frames must be an int >= 1"),
    (SceneSpec, dict(width=4.0), SceneError, "width must be an even int >= 2"),
    (SceneSpec, dict(height=True), SceneError, "height must be an even int >= 2"),
    (SceneSpec, dict(seed=2.5), SceneError, "seed must be an int"),
    (BlobSpec, dict(path=((True, 1.0, 1.0), (2, 3.0, 3.0))),
     SceneError, "waypoint frame index must be an int"),
    (BlobSpec, dict(path=((0, 1.0, 1.0), (2.5, 3.0, 3.0))),
     SceneError, "waypoint frame index must be an int"),
]
VALID = {record: values for record, _, values, _ in RECORDS}
VALID[ThermalFrame] = (16, 12, _GRID, 0)


def _value_id(value):
    # an array's repr runs over many lines: its dtype and first value name it
    return f"{value.dtype}({value.flat[0]})" if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize(
    "record, fields, error, message", INVALID + WRONG_TYPE,
    ids=[f"{r.__name__}-{'-'.join(f)}" for r, f, _, _ in INVALID]
    + [f"{r.__name__}-{k}={_value_id(v)}" for r, f, _, _ in WRONG_TYPE for k, v in f.items()])
class TestRecordChecks:
    def test_construction_is_checked(self, record, fields, error, message):
        arguments = dict(zip(inspect.signature(record).parameters, VALID[record]))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            record(**{**arguments, **fields})

    def test_replace_is_checked(self, record, fields, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            record(*VALID[record])._replace(**fields)


def test_one_function_owns_the_int_check():
    """`isinstance(..., int)` is written only in `frame.check_count`, so
    every count the package checks follows its one rule and message."""
    def owners(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(node.args[1]))):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from owners(child, function)

    found = {(path.name, function)
             for path in Path(thermal_sentry.__file__).parent.glob("*.py")
             for function in owners(ast.parse(path.read_text(encoding="utf-8")), None)}
    assert found == {("frame.py", "check_count")}


class TestFrameRecord:
    def frame(self, value=7, frame_index=0):
        return ThermalFrame(16, 12, np.full((12, 16), value, dtype=np.uint16), frame_index)

    def test_construction_by_position_and_keyword(self):
        a = self.frame(frame_index=3)
        b = ThermalFrame(width=16, height=12, pixels=np.full(192, 7), frame_index=3)
        for frame in (a, b):
            assert (frame.width, frame.height, frame.frame_index) == (16, 12, 3)
            assert frame.pixels.dtype == np.uint16 and frame.pixels.shape == (12, 16)
        assert np.array_equal(a.pixels, b.pixels)
        assert tuple(inspect.signature(ThermalFrame).parameters) == (
            "width", "height", "pixels", "frame_index")

    def test_fields_cannot_be_assigned(self):
        frame = self.frame()
        for name in ("width", "height", "pixels", "frame_index"):
            with pytest.raises(AttributeError):
                setattr(frame, name, getattr(frame, name))
        with pytest.raises(ValueError):
            frame.pixels[0, 0] = 1

    def test_frames_compare_and_hash_by_identity(self):
        a, b = self.frame(), self.frame()
        assert a == a and not a != a
        assert a != b and not a == b  # equal pixels, still two frames
        assert hash(a) == object.__hash__(a) and len({a, b, a}) == 2
        # == never compares the pixel arrays, which would raise
        plain = (16, 12, np.full((12, 16), 7, dtype=np.uint16), 0)
        assert a != plain and plain != a and a not in [plain, None, 0]

    def test_replace_copies_through_the_checks(self):
        source = np.full((12, 16), 7, dtype=np.uint16)
        frame = self.frame()._replace(pixels=source, frame_index=5)
        assert frame.frame_index == 5 and not frame.pixels.flags.writeable
        source[0, 0] = 9
        assert frame.pixels[0, 0] == 7


def test_forced_refresh_defaults_to_false():
    # the zone tests and acceptance C10 build MotionResult from four values
    assert MotionResult(False, 0, 1, True).forced_refresh is False
