import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sentry.frame import QuadrantId
from thermal_sentry.hybrid import Detection
from thermal_sentry.motion import MotionResult
from thermal_sentry.roi import RoiResult
from thermal_sentry.zones import (
    SafetyState,
    ZoneClass,
    ZoneConfig,
    ZoneConfigError,
    ZoneEventKind,
    ZoneState,
    parse_zone_config,
    zone_update,
)


def detection(frame_index, flags=(), verdict=None):
    """Detection stub carrying only what the zone machine reads."""
    flag_tuple = tuple(q in flags for q in QuadrantId)
    roi = RoiResult(
        frame_mean=0.0,
        quadrant_means=(0.0, 0.0, 0.0, 0.0),
        flags=flag_tuple,
        any=any(flag_tuple),
    )
    if verdict is None:
        verdict = roi.any
    movement = verdict and not roi.any
    return Detection(
        frame_index=frame_index,
        verdict=verdict,
        elapsed_us=1.0,
        motion=MotionResult(movement, 0, 1, not movement),
        roi=roi,
    )


def critical_q3(debounce=3, clear=3):
    classes = {q: ZoneClass.IGNORE for q in QuadrantId}
    classes[QuadrantId.Q3] = ZoneClass.CRITICAL
    return ZoneConfig(zone_class=classes, debounce_frames=debounce, clear_frames=clear)


class TestConfig:
    def test_rejects_class_names_that_are_not_zone_classes(self):
        # a plain "critical" string would never demand Stop
        with pytest.raises(ValueError, match="zone_class"):
            ZoneConfig({q: "critical" for q in QuadrantId})

    # a NaN debounce would never mark a quadrant occupied, 2.5 would act as
    # 3 frames and True as 1
    @pytest.mark.parametrize("value", [0, math.nan, math.inf, 2.5, True])
    @pytest.mark.parametrize("field", ["debounce_frames", "clear_frames"])
    def test_rejects_count_that_is_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            ZoneConfig(**{field: value})

    def test_keeps_its_own_copy_of_the_zone_classes(self):
        classes = {q: ZoneClass.IGNORE for q in QuadrantId}
        config = ZoneConfig(classes, debounce_frames=1)
        # a value the checks would have rejected, put in after they ran
        classes[QuadrantId.Q3] = "critical"
        assert config.zone_class[QuadrantId.Q3] is ZoneClass.IGNORE
        safety, _ = zone_update(ZoneState(), detection(0, {QuadrantId.Q3}), config)
        assert safety is SafetyState.RUN
        with pytest.raises(TypeError):
            config.zone_class[QuadrantId.Q3] = ZoneClass.CRITICAL

    def test_each_state_starts_fresh(self):
        first, second = ZoneState(), ZoneState()
        config = critical_q3(debounce=1, clear=2)
        zone_update(first, detection(0, {QuadrantId.Q0}), config)
        zone_update(first, detection(1), config)
        assert first.occupied == {QuadrantId.Q0} and first.pending == [1, 0, 0, 0]
        assert second.occupied == set() and second.pending == [0, 0, 0, 0]


class TestParse:
    def test_partial_assignment_defaults_to_ignore(self):
        cfg = parse_zone_config("Q3=critical\nQ2=warning\ndebounce=3")
        assert cfg.zone_class[QuadrantId.Q3] is ZoneClass.CRITICAL
        assert cfg.zone_class[QuadrantId.Q2] is ZoneClass.WARNING
        assert cfg.zone_class[QuadrantId.Q0] is ZoneClass.IGNORE
        assert cfg.zone_class[QuadrantId.Q1] is ZoneClass.IGNORE
        assert cfg.debounce_frames == 3 and cfg.clear_frames == 3

    def test_empty_text_gives_defaults(self):
        cfg = parse_zone_config("")
        assert all(c is ZoneClass.IGNORE for c in cfg.zone_class.values())
        assert cfg.debounce_frames == 3 and cfg.clear_frames == 3
        assert cfg == ZoneConfig() == parse_zone_config("Q1=ignore")

    def test_case_insensitive_and_comments(self):
        cfg = parse_zone_config("# plan\nq1=WARNING  # left belt\nCLEAR=5\n")
        assert cfg.zone_class[QuadrantId.Q1] is ZoneClass.WARNING
        assert cfg.clear_frames == 5

    def test_unknown_quadrant_rejected(self):
        with pytest.raises(ZoneConfigError, match="unknown key"):
            parse_zone_config("Q9=critical")

    def test_unknown_class_rejected(self):
        with pytest.raises(ZoneConfigError, match="line 1: bad value for q1: unknown zone class 'lava'"):
            parse_zone_config("Q1=lava")

    def test_nonpositive_debounce_rejected(self):
        with pytest.raises(ZoneConfigError,
                           match="line 1: bad value for debounce: debounce_frames must be an int >= 1"):
            parse_zone_config("debounce=0")

    def test_garbage_line_rejected(self):
        with pytest.raises(ZoneConfigError, match="key=value"):
            parse_zone_config("just words")

    @pytest.mark.parametrize("text, message", [
        # a later line must not silently turn a Critical quadrant off
        ("Q3=critical\nq3=ignore", "line 2: q3 repeats line 1"),
        ("q3=critical\n# again\nQ3=critical", "line 3: q3 repeats line 1"),
        ("debounce=3\nQ0=warning\ndebounce=5", "line 3: debounce repeats line 1"),
        ("clear=2\nCLEAR=2", "line 2: clear repeats line 1"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(ZoneConfigError, match=message):
            parse_zone_config(text)


class TestStateMachine:
    def test_no_flags_means_run_forever(self):
        cfg = critical_q3()
        state = ZoneState()
        for i in range(10):
            safety, events = zone_update(state, detection(i), cfg)
            assert safety is SafetyState.RUN
            assert events == []

    def test_critical_debounce_enters_stop_on_third_frame(self):
        cfg = critical_q3(debounce=3)
        state = ZoneState()
        log = []
        for i in range(10, 16):
            flagged = (QuadrantId.Q3,) if i in (10, 11, 12) else ()
            safety, events = zone_update(state, detection(i, flagged), cfg)
            log.extend(events)
        entered = [e for e in log if e.kind is ZoneEventKind.ENTERED]
        changed = [e for e in log if e.kind is ZoneEventKind.STATE_CHANGED]
        assert len(entered) == 1 and entered[0].frame_index == 12
        assert entered[0].quadrant is QuadrantId.Q3
        assert changed[0].frame_index == 12
        assert (changed[0].from_state, changed[0].to_state) == (
            SafetyState.RUN,
            SafetyState.STOP,
        )

    def test_two_frame_glitch_produces_nothing(self):
        cfg = critical_q3(debounce=3)
        state = ZoneState()
        log = []
        for i in range(8):
            flagged = (QuadrantId.Q3,) if i in (2, 3) else ()
            safety, events = zone_update(state, detection(i, flagged), cfg)
            log.extend(events)
            assert safety is SafetyState.RUN
        assert log == []

    def test_warning_quadrant_gives_steady_slow(self):
        classes = {q: ZoneClass.IGNORE for q in QuadrantId}
        classes[QuadrantId.Q1] = ZoneClass.WARNING
        cfg = ZoneConfig(zone_class=classes, debounce_frames=2, clear_frames=2)
        state = ZoneState()
        states = []
        for i in range(6):
            safety, _ = zone_update(state, detection(i, (QuadrantId.Q1,)), cfg)
            states.append(safety)
        assert states == [SafetyState.RUN] + [SafetyState.SLOW] * 5

    def test_clear_hysteresis_and_single_stop_to_run_transition(self):
        cfg = critical_q3(debounce=2, clear=3)
        state = ZoneState()
        timeline = []
        for i in range(10):
            flagged = (QuadrantId.Q3,) if i < 4 else ()
            safety, events = zone_update(state, detection(i, flagged), cfg)
            timeline.append((i, safety, events))
        # occupied at frame 1, flags stop at 4, cleared at 4+3-1=6
        assert timeline[1][1] is SafetyState.STOP
        assert timeline[5][1] is SafetyState.STOP  # still inside clear window
        cleared_frame = 6
        assert timeline[cleared_frame][1] is SafetyState.RUN
        events6 = timeline[cleared_frame][2]
        kinds = [e.kind for e in events6]
        assert kinds == [ZoneEventKind.CLEARED, ZoneEventKind.STATE_CHANGED]
        assert (events6[1].from_state, events6[1].to_state) == (
            SafetyState.STOP,
            SafetyState.RUN,
        )

    def test_flag_interruption_resets_debounce(self):
        cfg = critical_q3(debounce=3)
        state = ZoneState()
        pattern = [True, True, False, True, True, False]
        for i, flagged in enumerate(pattern):
            safety, events = zone_update(
                state, detection(i, (QuadrantId.Q3,) if flagged else ()), cfg
            )
            assert events == []
            assert safety is SafetyState.RUN

    def test_flag_interruption_resets_clear(self):
        cfg = critical_q3(debounce=1, clear=3)
        state = ZoneState()
        # occupied at frame 0; the flag at frame 3 restarts the clear count
        pattern = [True, False, False, True, False, False]
        log = []
        for i, flagged in enumerate(pattern):
            safety, events = zone_update(
                state, detection(i, (QuadrantId.Q3,) if flagged else ()), cfg
            )
            log.extend(events)
            assert safety is SafetyState.STOP
        assert [e.kind for e in log] == [ZoneEventKind.ENTERED, ZoneEventKind.STATE_CHANGED]
        # the third unflagged frame in a row releases the quadrant
        safety, events = zone_update(state, detection(6), cfg)
        assert safety is SafetyState.RUN
        assert [e.kind for e in events] == [ZoneEventKind.CLEARED, ZoneEventKind.STATE_CHANGED]

    def test_movement_only_escalates_to_slow_for_debounce_window(self):
        cfg = critical_q3(debounce=3)
        state = ZoneState()
        # one unlocalized positive, then quiet
        sequence = [detection(0, (), verdict=True)] + [detection(i) for i in range(1, 6)]
        states = [zone_update(state, d, cfg)[0] for d in sequence]
        assert states == [SafetyState.SLOW] * 3 + [SafetyState.RUN] * 3

    def test_movement_only_never_stops(self):
        cfg = critical_q3()
        state = ZoneState()
        for i in range(10):
            safety, _ = zone_update(state, detection(i, (), verdict=True), cfg)
            assert safety is SafetyState.SLOW

    def test_critical_beats_warning(self):
        classes = {
            QuadrantId.Q0: ZoneClass.WARNING,
            QuadrantId.Q1: ZoneClass.IGNORE,
            QuadrantId.Q2: ZoneClass.IGNORE,
            QuadrantId.Q3: ZoneClass.CRITICAL,
        }
        cfg = ZoneConfig(zone_class=classes, debounce_frames=1, clear_frames=1)
        state = ZoneState()
        safety, _ = zone_update(
            state, detection(0, (QuadrantId.Q0, QuadrantId.Q3)), cfg
        )
        assert safety is SafetyState.STOP

    def test_ignored_quadrant_still_emits_occupancy_events(self):
        cfg = critical_q3(debounce=1)
        state = ZoneState()
        safety, events = zone_update(state, detection(0, (QuadrantId.Q0,)), cfg)
        assert safety is SafetyState.RUN  # Q0 is Ignore
        assert [e.kind for e in events] == [ZoneEventKind.ENTERED]


class TestEventReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(
                st.lists(st.sampled_from(list(QuadrantId)), max_size=4),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        debounce=st.integers(1, 4),
        clear=st.integers(1, 4),
        classes=st.tuples(*[st.sampled_from(list(ZoneClass))] * 4),
    )
    def test_event_log_reconstructs_state_trajectory(
        self, stream, debounce, clear, classes
    ):
        cfg = ZoneConfig(
            zone_class=dict(zip(QuadrantId, classes)),
            debounce_frames=debounce,
            clear_frames=clear,
        )
        state = ZoneState()
        trajectory = []
        log = []
        for i, (flagged, extra_verdict) in enumerate(stream):
            det = detection(i, tuple(flagged), verdict=bool(flagged) or extra_verdict)
            safety, events = zone_update(state, det, cfg)
            trajectory.append(safety)
            log.extend(events)

        # replay: states change only at StateChanged events
        current = SafetyState.RUN
        changes = {
            e.frame_index: e for e in log if e.kind is ZoneEventKind.STATE_CHANGED
        }
        for i, expected in enumerate(trajectory):
            if i in changes:
                assert changes[i].from_state is current
                current = changes[i].to_state
            assert current is expected

        # occupancy events pair up per quadrant: entered, cleared, entered...
        for q in QuadrantId:
            kinds = [
                e.kind
                for e in log
                if e.quadrant is q and e.kind is not ZoneEventKind.STATE_CHANGED
            ]
            for j, kind in enumerate(kinds):
                expected_kind = (
                    ZoneEventKind.ENTERED if j % 2 == 0 else ZoneEventKind.CLEARED
                )
                assert kind is expected_kind
