import inspect
import json

import numpy as np
import pytest

from thermal_sentry.frame import QuadrantId, ThermalFrame, write_pgm
from thermal_sentry.hybrid import Detection, hybrid_step
from thermal_sentry.motion import MotionConfig, MotionResult, MotionState, motion_step
from thermal_sentry.roi import RoiConfig, RoiResult, roi_analyze
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


# Each per-frame result record with its field names in order and one set of
# values for them.
_MOTION = (True, 1000, 960, False, False)
_ROI = (70.5, tuple(70.5 + q for q in QuadrantId), tuple(q == 3 for q in QuadrantId), True)
RECORDS = [
    (MotionResult, ("movement", "active_count", "required_count",
                    "background_updated", "forced_refresh"), _MOTION),
    (RoiResult, ("frame_mean", "quadrant_means", "flags", "any"), _ROI),
    (Detection, ("frame_index", "verdict", "elapsed_us", "motion", "roi"),
     (4, True, 12.5, MotionResult(*_MOTION), RoiResult(*_ROI))),
]


@pytest.mark.parametrize("record, names, values", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
class TestResultRecords:
    """The contract of the records the detectors return, whatever class
    implements them: the tests, the benchmark and callers build and read
    them by position and by name."""

    def test_field_names_in_order(self, record, names, values):
        assert tuple(inspect.signature(record).parameters) == names

    def test_positional_construction(self, record, names, values):
        built = record(*values)
        assert tuple(getattr(built, name) for name in names) == values
        assert built == record(**dict(zip(names, values)))

    def test_fields_cannot_be_assigned(self, record, names, values):
        built = record(*values)
        for name, value in zip(names, values):
            with pytest.raises(AttributeError):
                setattr(built, name, value)
        assert tuple(getattr(built, name) for name in names) == values

    def test_equal_fields_compare_equal(self, record, names, values):
        assert record(*values) == record(*values)
        assert not record(*values) != record(*values)
        changed = (not values[0],) + values[1:] if record is MotionResult else (
            (values[0] + 1,) + values[1:])
        assert record(*values) != record(*changed)


def test_forced_refresh_defaults_to_false():
    # the zone tests and acceptance C10 build MotionResult from four values
    assert MotionResult(False, 0, 1, True).forced_refresh is False
