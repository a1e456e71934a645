import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sentry import motion
from thermal_sentry.frame import ThermalFrame, abs_diff
from thermal_sentry.motion import (
    MotionConfig,
    MotionState,
    motion_step,
    required_active_count,
)
from thermal_sentry.synth import parse_scene, render_frame
from conftest import uniform_frame

REFERENCE_SCENE = Path(__file__).resolve().parent.parent / "scenes" / "reference.scene"


def frame_with_actives(width, height, base, delta, count, frame_index=0):
    """Uniform frame with exactly `count` pixels raised by `delta`."""
    pixels = np.full(height * width, base, dtype=np.uint16)
    pixels[:count] += delta
    return ThermalFrame(width, height, pixels, frame_index=frame_index)


class TestConfig:
    def test_defaults(self):
        cfg = MotionConfig()
        assert cfg.active_delta == 20
        assert cfg.active_fraction == 0.05
        assert cfg.max_hold_frames is None

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            MotionConfig(active_fraction=fraction)

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            MotionConfig(active_delta=0)

    def test_rejects_bad_hold(self):
        with pytest.raises(ValueError):
            MotionConfig(max_hold_frames=0)

    # NaN fails every comparison: a NaN delta would make no pixel active and
    # a NaN hold limit would never force a refresh
    @pytest.mark.parametrize("field, value", [
        ("active_delta", math.nan),
        ("active_delta", math.inf),
        ("active_delta", 65536),  # no |difference| exceeds 65535
        ("max_hold_frames", math.nan),
    ])
    def test_rejects_value_that_switches_detection_off(self, field, value):
        with pytest.raises(ValueError, match=field):
            MotionConfig(**{field: value})

    def test_largest_accepted_delta_still_fires(self):
        state = MotionState(MotionConfig(active_delta=65535))
        motion_step(state, uniform_frame(2, 2, 0))
        assert motion_step(state, uniform_frame(2, 2, 65535)).movement

    def test_state_keeps_its_config_for_the_whole_stream(self):
        # a held floor is built from the delta when a hold starts; a new
        # config mid-hold would compare against the old delta's floor
        config = MotionConfig(active_delta=20)
        state = MotionState(config)
        assert state.config is config
        for i, value in enumerate((100, 200, 200)):  # the floor is built on frame 2
            motion_step(state, uniform_frame(4, 4, value, i))
        with pytest.raises(AttributeError):
            state.config = MotionConfig(active_delta=200)
        assert state.config is config
        assert motion_step(state, uniform_frame(4, 4, 200, 3)).active_count == 16


class TestRequiredCount:
    def test_five_percent_of_19200_is_960(self):
        assert required_active_count(0.05, 19200) == 960

    def test_ceil_of_fractional_products(self):
        assert required_active_count(0.05, 19201) == 961
        assert required_active_count(0.051, 100) == 6

    def test_decimal_intent_not_binary_float(self):
        # 0.07 * 100 is 7.000000000000001 as a double; requirement is 7
        assert required_active_count(0.07, 100) == 7

    def test_full_fraction(self):
        assert required_active_count(1.0, 64) == 64


class TestMotionStep:
    def test_first_frame_is_a_quiet_frame(self):
        # the first frame is its own background: nothing is active
        state = MotionState()
        frame = uniform_frame(4, 4, 100)
        result = motion_step(state, frame)
        assert not result.movement
        assert result.background_updated
        assert result.active_count == 0
        assert state.background is frame
        assert state.frames_since_update == 0

    def test_identical_frame_refreshes_background(self):
        state = MotionState()
        motion_step(state, uniform_frame(4, 4, 100))
        frame = uniform_frame(4, 4, 100, frame_index=1)
        result = motion_step(state, frame)
        assert result.active_count == 0
        assert not result.movement
        assert result.background_updated
        assert state.background is frame

    def test_960_active_pixels_is_movement_959_is_not(self):
        # against a fresh background, and against a held one compared a
        # second time, through its floor
        width, height, delta = 160, 120, 20
        for (count, expect), held in itertools.product([(960, True), (959, False)],
                                                       [False, True]):
            state = MotionState()
            motion_step(state, uniform_frame(width, height, 1000))
            if held:
                assert motion_step(state, uniform_frame(width, height, 1100, 1)).movement
            frame = frame_with_actives(width, height, 1000, delta, count, frame_index=2)
            # independent oracle: count pixels differing by >= delta
            oracle = sum(
                1
                for a, b in zip(frame.pixels.ravel(), state.background.pixels.ravel())
                if abs(int(a) - int(b)) >= delta
            )
            assert oracle == count
            result = motion_step(state, frame)
            assert result.active_count == count
            assert result.required_count == 960
            assert result.movement is expect

    def test_below_delta_changes_are_not_active(self):
        state = MotionState()
        motion_step(state, uniform_frame(4, 4, 100))
        frame = frame_with_actives(4, 4, 100, 19, 16, frame_index=1)
        result = motion_step(state, frame)
        assert result.active_count == 0

    def test_uniform_drift_never_detects(self):
        # +5 counts per frame, delta 20: each refresh keeps the diff at 5
        state = MotionState()
        positives = 0
        for t in range(20):
            frame = uniform_frame(8, 6, 1000 + 5 * t, frame_index=t)
            result = motion_step(state, frame)
            positives += result.movement
            assert state.background is frame  # freshness after any negative
        assert positives == 0

    def test_static_sequence_stays_negative(self):
        state = MotionState()
        results = [
            motion_step(state, uniform_frame(6, 4, 500, frame_index=t))
            for t in range(10)
        ]
        assert not any(r.movement for r in results)

    def test_background_held_during_movement(self):
        state = MotionState()
        reference = uniform_frame(4, 4, 0)
        motion_step(state, reference)
        moving = uniform_frame(4, 4, 100, frame_index=1)
        result = motion_step(state, moving)
        assert result.movement
        assert not result.background_updated
        assert state.background is reference

    def test_forced_refresh_after_hold_limit(self):
        state = MotionState(MotionConfig(max_hold_frames=2))
        motion_step(state, uniform_frame(4, 4, 0))
        outcomes = []
        for t in range(1, 5):
            result = motion_step(state, uniform_frame(4, 4, 1000, frame_index=t))
            outcomes.append((result.movement, result.forced_refresh, result.background_updated))
        # held for 2 movement frames, replaced on the 3rd, quiet afterwards
        assert outcomes == [
            (True, False, False),
            (True, False, False),
            (True, True, True),
            (False, False, True),
        ]

    def test_dimension_mismatch(self):
        state = MotionState()
        background = uniform_frame(4, 4, 0)
        motion_step(state, background)
        assert motion_step(state, uniform_frame(4, 4, 100)).movement  # held
        with pytest.raises(ValueError, match="dimension mismatch: 6x4 vs 4x4"):
            motion_step(state, uniform_frame(6, 4, 0))
        # rejected before any state is written
        assert state.background is background
        assert state.frames_since_update == 1

    def test_held_background_and_a_frame_of_other_dimensions(self):
        # the background is in its floor's range and held; a frame of other
        # dimensions still gets abs_diff's message, before and after the
        # floor is built
        for held_frames in (1, 2):
            state = MotionState()
            background = uniform_frame(4, 4, 1000)
            motion_step(state, background)
            for t in range(held_frames):
                assert motion_step(state, uniform_frame(4, 4, 1100, frame_index=t + 1)).movement
            with pytest.raises(ValueError, match="dimension mismatch: 6x4 vs 4x4"):
                motion_step(state, uniform_frame(6, 4, 1000))
            assert state.background is background
            assert state.frames_since_update == held_frames

    @pytest.mark.parametrize("replaced_by", ["quiet frame", "forced refresh"])
    def test_floor_is_kept_only_while_its_background_is_held(self, replaced_by):
        state = MotionState(MotionConfig(max_hold_frames=2))
        for t, value in enumerate([1000, 1100, 1100]):
            motion_step(state, uniform_frame(4, 4, value, frame_index=t))
        assert state.held[0] is state.background
        assert state.held[1] is not None
        result = motion_step(state, uniform_frame(4, 4, 1000 if replaced_by == "quiet frame"
                                                  else 1100, frame_index=3))
        assert result.background_updated
        assert state.held is None

    def test_reference_scene_calls_abs_diff_only_against_fresh_backgrounds(self):
        # counted calls, not timings: a background's first comparison goes
        # through abs_diff, and its one hold, of 944 frames, builds one floor
        spec = parse_scene(REFERENCE_SCENE.read_text())
        state = MotionState()
        fresh = 0
        with mock.patch.object(motion, "abs_diff", wraps=abs_diff) as diffs, \
                mock.patch.object(motion, "_held_floor", wraps=motion._held_floor) as floors:
            for t in range(spec.frames):
                fresh += state.frames_since_update == 0
                motion_step(state, render_frame(spec, t))
        assert diffs.call_count == fresh == 56
        assert floors.call_count == 1

    def test_determinism(self):
        seq = [frame_with_actives(8, 6, 100, 30, t * 5, frame_index=t) for t in range(8)]
        runs = []
        for _ in range(2):
            state = MotionState()
            runs.append([motion_step(state, f) for f in seq])
        assert runs[0] == runs[1]


class TestMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.integers(0, 200), min_size=24, max_size=24),
        delta_low=st.integers(1, 50),
        bump=st.integers(1, 50),
    )
    def test_raising_delta_never_increases_active_count(self, data, delta_low, bump):
        def run(delta):
            state = MotionState(MotionConfig(active_delta=delta))
            motion_step(state, uniform_frame(6, 4, 100))
            return motion_step(
                state, ThermalFrame(6, 4, np.array(data, dtype=np.uint16), frame_index=1)
            ).active_count

        assert run(delta_low + bump) <= run(delta_low)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.integers(0, 200), min_size=24, max_size=24),
        fraction_low=st.floats(0.01, 0.5),
        bump=st.floats(0.01, 0.5),
    )
    def test_raising_fraction_never_creates_movement(self, data, fraction_low, bump):
        def run(fraction):
            state = MotionState(MotionConfig(active_fraction=round(fraction, 6)))
            motion_step(state, uniform_frame(6, 4, 100))
            return motion_step(
                state, ThermalFrame(6, 4, np.array(data, dtype=np.uint16), frame_index=1)
            ).movement

        if not run(fraction_low):
            assert not run(min(fraction_low + bump, 1.0))
