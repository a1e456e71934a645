"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or read captured output). These pin the exit
bar for the toolkit; tolerances are stated inline and are not tunable."""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thermal_sentry.evaluate import ConfusionMatrix, Method, accuracy, run_eval
from thermal_sentry.frame import QuadrantId, ThermalFrame, load_pgm, write_pgm
from thermal_sentry.hybrid import hybrid_step
from thermal_sentry.motion import MotionConfig, MotionState, motion_step
from thermal_sentry.roi import roi_analyze
from thermal_sentry.synth import BlobSpec, SceneSpec, generate, parse_scene, render_frame
from thermal_sentry.zones import ZoneEventKind, ZoneState, parse_zone_config, zone_update

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "reference_golden.json"


def report(criterion: str, ok: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


@pytest.fixture(scope="module")
def reference_dataset(tmp_path_factory):
    spec = parse_scene((REPO / "scenes" / "reference.scene").read_text())
    return generate(spec, tmp_path_factory.mktemp("reference")), spec


class TestAccuracyArithmetic:
    def test_c01_golden_accuracy_values(self):
        roi_cells = accuracy(ConfusionMatrix(tp=1027, fp=11, fn=28, tn=48))
        hybrid_cells = accuracy(ConfusionMatrix(tp=1040, fp=16, fn=17, tn=41))
        ok = abs(roi_cells - 96.5) <= 0.05 and abs(hybrid_cells - 97.0) <= 0.05
        ok = ok and round(roi_cells, 1) == 96.5 and round(hybrid_cells, 1) == 97.0
        report("C1 golden accuracy arithmetic (96.5 / 97.0)", ok)

    def test_c02_inconsistent_movement_tallies_documented(self):
        # This widely quoted movement-method matrix does not reconcile with
        # the 1114-frame recording it is cited for: its cells sum to 1113,
        # and accuracy over the cells is 94.97%, not the 94.5% quoted with
        # it. We pin our own arithmetic and do not "correct" either figure.
        cm = ConfusionMatrix(tp=1057, fp=44, fn=12, tn=0)
        acc = accuracy(cm)
        ok = cm.total == 1113 and cm.total != 1114
        ok = ok and round(acc, 2) == 94.97 and round(acc, 1) != 94.5
        report("C2 inconsistent tally set pinned, not reconciled", ok)


class TestDetectorBoundaries:
    def test_c03_movement_threshold_boundary(self):
        outcomes = {}
        for active in (960, 959):
            state = MotionState()
            motion_step(state, ThermalFrame(160, 120, np.full((120, 160), 1000, np.uint16)))
            pixels = np.full(19200, 1000, dtype=np.uint16)
            pixels[:active] += 20
            result = motion_step(
                state, ThermalFrame(160, 120, pixels, frame_index=1)
            )
            outcomes[active] = (result.movement, result.active_count, result.required_count)
        ok = outcomes[960] == (True, 960, 960) and outcomes[959] == (False, 959, 960)
        report("C3 movement boundary at exactly 5% (960 of 19200)", ok)

    def test_c04_uniform_drift_never_fires(self):
        spec = SceneSpec(frames=500, ambient=1000, drift=5.0)
        state = MotionState(MotionConfig(active_delta=20))
        positives = sum(
            motion_step(state, render_frame(spec, t)).movement for t in range(500)
        )
        report("C4 drift compensation (+5/frame, delta 20, 0 positives)", positives == 0)

    def test_c05_static_heat_rejected_roi_rule_exact(self):
        spec = SceneSpec(
            frames=500,
            ambient=80,
            seed=12,
            blobs=(BlobSpec(800.0, 6.0, ((0, 40.0, 30.0),), is_human=False),),
        )
        state = MotionState()
        movement_positives = 0
        flags_match_rule = True
        ratio = Fraction("1.2")
        for t in range(500):
            frame = render_frame(spec, t)
            movement_positives += motion_step(state, frame).movement
            result = roi_analyze(frame)
            # independent oracle: exact integer sums plus rational ratio
            half_w, half_h = frame.width // 2, frame.height // 2
            quad_n = half_w * half_h
            total = int(frame.pixels.sum(dtype=np.int64))
            for q in QuadrantId:
                x0 = (q % 2) * half_w
                y0 = (q // 2) * half_h
                qsum = int(frame.pixels[y0:y0 + half_h, x0:x0 + half_w].sum(dtype=np.int64))
                expect = 4 * qsum > ratio * total and qsum >= quad_n
                if result.flags[q] != expect:
                    flags_match_rule = False
        ok = movement_positives == 0 and flags_match_rule
        report("C5 static heat: no movement, quadrant flags by the 20% rule", ok)

    def test_c09_roi_hand_example_exact(self):
        pixels = np.array(
            [[200, 200, 100, 100]] * 2 + [[100, 100, 100, 100]] * 2, dtype=np.uint16
        )
        result = roi_analyze(ThermalFrame(4, 4, pixels))
        ok = (
            result.frame_mean == 125.0
            and result.quadrant_means[QuadrantId.Q0] == 200.0
            and result.flags[QuadrantId.Q0] is True
            and not any(result.flags[q] for q in (QuadrantId.Q1, QuadrantId.Q2, QuadrantId.Q3))
            and result.any
        )
        report("C9 quadrant hand example (200 vs 1.2 x 125), exact", ok)


class TestReferenceScenario:
    def test_c06_hybrid_is_union_of_standalone_methods(self, reference_dataset):
        dataset, _ = reference_dataset
        frames = [load_pgm(p) for p in dataset.frame_paths]
        for i, frame in enumerate(frames):
            frames[i] = ThermalFrame(frame.width, frame.height, frame.pixels, frame_index=i)

        a_state = MotionState()
        a_pos = {f.frame_index for f in frames if motion_step(a_state, f).movement}
        b_pos = {f.frame_index for f in frames if roi_analyze(f).any}
        h_state = MotionState()
        h_pos = {f.frame_index for f in frames if hybrid_step(h_state, f).verdict}
        truth = {label.frame_index for label in dataset.labels if label.human_present}
        hybrid_tp = len(h_pos & truth)
        ok = h_pos == (a_pos | b_pos)
        ok = ok and hybrid_tp >= max(len(a_pos & truth), len(b_pos & truth))
        report("C6 parallel-OR union property on 1000-frame scenario", ok)

    def test_c07_reference_accuracy_and_golden_matrix(self, reference_dataset):
        dataset, _ = reference_dataset
        result = run_eval(dataset.directory, dataset.labels_path)
        golden = json.loads(GOLDEN.read_text())
        ok = result.accuracies[Method.HYBRID] >= 95.0
        for method, cells in golden["matrices"].items():
            cm = result.matrices[Method(method)]
            ok = ok and (cm.tp, cm.fp, cm.fn, cm.tn) == (
                cells["tp"], cells["fp"], cells["fn"], cells["tn"],
            )
        ok = ok and result.frames_evaluated == golden["frames"]
        report("C7 reference scenario >= 95% and golden matrices", ok)


class TestLatency:
    def test_c08_latency_budgets(self):
        spec = SceneSpec(
            frames=64,
            ambient=60,
            drift=0.05,
            noise_sigma=1.5,
            seed=99,
            blobs=(
                BlobSpec(900.0, 8.0, ((0, 20.0, 30.0), (63, 140.0, 90.0))),
                BlobSpec(250.0, 5.0, ((0, 130.0, 20.0),), is_human=False),
            ),
        )
        frames = [render_frame(spec, t) for t in range(spec.frames)]
        iterations = 1200
        # method B, then A on the same frame; the hybrid is the two back to back
        samples = {m: [] for m in Method}
        state = MotionState()
        for i in range(iterations):
            frame = frames[i % len(frames)]
            t0 = time.perf_counter_ns()
            roi_analyze(frame)
            t1 = time.perf_counter_ns()
            motion_step(state, frame)
            t2 = time.perf_counter_ns()
            samples[Method.METHOD_B].append((t1 - t0) / 1000.0)
            samples[Method.METHOD_A].append((t2 - t1) / 1000.0)
            samples[Method.HYBRID].append((t2 - t0) / 1000.0)
        # The budgets hold for the nearest-rank p99, which leaves 12 samples
        # beyond it: on a shared 2-vCPU machine the max alone is scheduler
        # noise and made this check flaky.
        rank = math.ceil(0.99 * iterations)
        p99_a, p99_b, p99_h = (sorted(samples[m])[rank - 1] for m in Method)
        max_a, max_b, max_h = (max(samples[m]) for m in Method)
        print(
            f"  latency p99 us: A {p99_a:.0f}, B {p99_b:.0f}, hybrid {p99_h:.0f}; "
            f"max us: A {max_a:.0f}, B {max_b:.0f}, hybrid {max_h:.0f} "
            f"({iterations} iterations, 160x120)"
        )
        ok = p99_h < 10_000 and p99_a < 7_000 and p99_b < 6_000
        report("C8 latency p99: hybrid<10ms, A<7ms, B<6ms on 160x120", ok)


class TestZoneMachine:
    def test_c10_debounce_events_exact(self):
        cfg = parse_zone_config("Q3=critical\ndebounce=3\nclear=3")

        def run(flag_frames, total):
            state = ZoneState(cfg)
            log = []
            for i in range(total):
                flags = tuple(q is QuadrantId.Q3 and i in flag_frames for q in QuadrantId)
                _, events = zone_update(state, i, flags, any(flags))
                log.extend(events)
            return log

        log = run({10, 11, 12}, 20)
        entered = [e for e in log if e.kind is ZoneEventKind.ENTERED]
        changed = [e for e in log if e.kind is ZoneEventKind.STATE_CHANGED]
        ok = (
            len(entered) == 1
            and entered[0].frame_index == 12
            and len([e for e in changed if e.frame_index == 12]) == 1
            and changed[0].from_state.label == "Run"
            and changed[0].to_state.label == "Stop"
        )
        glitch_log = run({10, 11}, 20)
        ok = ok and glitch_log == []
        report("C10 zone debounce: one Entered + one Run->Stop; glitch silent", ok)


class TestPgmRoundTrip:
    def test_c11_thousand_random_frames(self, tmp_path, rng):
        ok = True
        path = tmp_path / "frame.pgm"
        for i in range(1000):
            width = int(rng.integers(1, 13)) * 2
            height = int(rng.integers(1, 11)) * 2
            pixels = rng.integers(0, 65536, size=(height, width), dtype=np.uint16)
            frame = ThermalFrame(width, height, pixels)
            write_pgm(frame, path)
            back = load_pgm(path)
            if not (
                back.width == width
                and back.height == height
                and np.array_equal(back.pixels, frame.pixels)
            ):
                ok = False
                break
        report("C11 PGM round-trip bit-exact for 1000 random frames", ok)
