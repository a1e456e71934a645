from collections import Counter

import pytest

from thermal_sentry.evaluate import (
    ConfusionMatrix,
    DatasetError,
    GroundTruthLabel,
    Method,
    accuracy,
    confusion,
    format_report,
    read_labels,
    report_to_dict,
    run_eval,
    write_labels,
)
from thermal_sentry.frame import QuadrantId, replay_dir
from thermal_sentry.motion import MotionConfig, MotionState, motion_step
from thermal_sentry.roi import RoiConfig, roi_analyze
from thermal_sentry.synth import BlobSpec, SceneSpec, generate


class TestAccuracy:
    def test_published_roi_matrix_rounds_to_96_5(self):
        # 1075 correct of 1114
        acc = accuracy(ConfusionMatrix(tp=1027, fp=11, fn=28, tn=48))
        assert round(acc, 1) == 96.5

    def test_published_hybrid_matrix_rounds_to_97_0(self):
        # 1081 correct of 1114
        acc = accuracy(ConfusionMatrix(tp=1040, fp=16, fn=17, tn=41))
        assert round(acc, 1) == 97.0

    def test_all_correct_is_100(self):
        assert accuracy(ConfusionMatrix(tp=10, tn=10)) == 100.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(ConfusionMatrix())

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1)

    def test_total(self):
        assert ConfusionMatrix(1, 2, 3, 4).total == 10


class TestConfusion:
    def test_one_of_each(self):
        preds = [True, True, False, False]
        labels = [
            GroundTruthLabel(i, present)
            for i, present in enumerate([True, False, True, False])
        ]
        cm = confusion(preds, labels)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)

    def test_all_correct_sums_to_n(self):
        labels = [GroundTruthLabel(i, i % 2 == 0) for i in range(9)]
        cm = confusion([lbl.human_present for lbl in labels], labels)
        assert cm.tp + cm.tn == 9
        assert cm.fp == cm.fn == 0

    def test_random_case_matches_tally_oracle(self, rng):
        preds = [bool(v) for v in rng.integers(0, 2, size=100)]
        truth = [bool(v) for v in rng.integers(0, 2, size=100)]
        labels = [GroundTruthLabel(i, t) for i, t in enumerate(truth)]
        cm = confusion(preds, labels)
        # independent oracle: bucket counting over (pred, truth) pairs
        tally = Counter(zip(preds, truth))
        assert cm.tp == tally[(True, True)]
        assert cm.fp == tally[(True, False)]
        assert cm.fn == tally[(False, True)]
        assert cm.tn == tally[(False, False)]
        assert cm.total == 100

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatasetError, match="predictions"):
            confusion([True], [])

    def test_misordered_labels_rejected(self):
        labels = [GroundTruthLabel(1, True), GroundTruthLabel(0, True)]
        with pytest.raises(DatasetError, match="order"):
            confusion([True, True], labels)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = [
            GroundTruthLabel(0, False),
            GroundTruthLabel(1, True, frozenset({QuadrantId.Q2})),
            GroundTruthLabel(2, True, frozenset({QuadrantId.Q0, QuadrantId.Q3})),
            GroundTruthLabel(3, True),
        ]
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        assert read_labels(path) == labels

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,\n")
        with pytest.raises(DatasetError, match="header"):
            read_labels(path)

    def test_unknown_quadrant_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,present,quadrants\n0,1,Q7\n")
        with pytest.raises(DatasetError, match="quadrant"):
            read_labels(path)

    def test_occupied_without_present_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,present,quadrants\n0,0,Q1\n")
        with pytest.raises(DatasetError, match="present"):
            read_labels(path)

    def test_bad_present_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,present,quadrants\n0,maybe,\n")
        with pytest.raises(DatasetError, match="present"):
            read_labels(path)

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,present,quadrants\n0,1,\n0,0,\n")
        with pytest.raises(DatasetError, match="increase"):
            read_labels(path)


@pytest.fixture(scope="module")
def static_human_dataset(tmp_path_factory):
    """Stationary hot human blob on a mild ambient field, 40 frames."""
    spec = SceneSpec(
        frames=40,
        width=32,
        height=24,
        ambient=60,
        seed=5,
        blobs=(BlobSpec(700.0, 2.5, ((0, 8.0, 6.0),)),),
    )
    out = tmp_path_factory.mktemp("static_human")
    return generate(spec, out)


class TestRunEval:
    def test_matrix_totals_equal_frame_count(self, static_human_dataset):
        ds = static_human_dataset
        report = run_eval(ds.directory, ds.labels_path)
        for cm in report.matrices.values():
            assert cm.total == report.frames_evaluated == 40

    def test_static_scene_has_no_movement_false_positives(self, tmp_path):
        spec = SceneSpec(
            frames=30,
            width=32,
            height=24,
            ambient=60,
            seed=6,
            blobs=(BlobSpec(500.0, 2.5, ((0, 9.0, 6.0),), is_human=False),),
        )
        ds = generate(spec, tmp_path / "equip")
        report = run_eval(ds.directory, ds.labels_path)
        cm = report.matrices[Method.METHOD_A]
        assert cm.fp == 0  # static heat is absorbed into the background
        assert cm.tp == 0 and cm.fn == 0  # labels are all negative

    def test_stationary_human_carried_by_roi_method(self, static_human_dataset):
        ds = static_human_dataset
        report = run_eval(ds.directory, ds.labels_path)
        cm_b = report.matrices[Method.METHOD_B]
        assert cm_b.tp == 40
        # method A misses a stationary person entirely
        assert report.matrices[Method.METHOD_A].tp == 0
        # hybrid inherits B's catches
        assert report.matrices[Method.HYBRID].tp == 40

    def test_hybrid_bounds_from_union(self, static_human_dataset):
        ds = static_human_dataset
        report = run_eval(ds.directory, ds.labels_path)
        a, b, h = (
            report.matrices[Method.METHOD_A],
            report.matrices[Method.METHOD_B],
            report.matrices[Method.HYBRID],
        )
        assert h.tp >= max(a.tp, b.tp)
        assert h.tn <= min(a.tn, b.tn)

    def test_latency_populated(self, static_human_dataset):
        ds = static_human_dataset
        report = run_eval(ds.directory, ds.labels_path)
        for stats in report.latency.values():
            assert stats.max_us >= stats.mean_us > 0
            assert stats.p99_us > 0

    def test_missing_label_named(self, static_human_dataset, tmp_path):
        ds = static_human_dataset
        labels = read_labels(ds.labels_path)[:-1]
        short = tmp_path / "short.csv"
        write_labels(labels, short)
        with pytest.raises(DatasetError, match="frame 39"):
            run_eval(ds.directory, short)

    def test_extra_label_rejected(self, static_human_dataset, tmp_path):
        ds = static_human_dataset
        labels = read_labels(ds.labels_path)
        labels.append(GroundTruthLabel(40, False))
        long = tmp_path / "long.csv"
        write_labels(labels, long)
        with pytest.raises(DatasetError, match="frame 40"):
            run_eval(ds.directory, long)

    def test_empty_dataset_rejected(self, tmp_path, static_human_dataset):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(DatasetError, match="no frames"):
            run_eval(empty, static_human_dataset.labels_path)


class TestRunEvalLoop:
    def test_matrices_recount_the_detectors_and_each_frame_is_timed(self, tmp_path):
        spec = SceneSpec(
            frames=12, width=32, height=24, ambient=60, noise_sigma=1.0, seed=5,
            blobs=(BlobSpec(400.0, 3.0, ((0, 2.0, 4.0), (11, 30.0, 20.0))),),
        )
        ds = generate(spec, tmp_path / "walk")
        motion_cfg = MotionConfig(active_pixel_delta=15, active_fraction=0.02,
                                  max_hold_frames=3)
        roi_cfg = RoiConfig(ratio=1.5)  # flags fewer frames than the default
        report = run_eval(ds.directory, ds.labels_path, motion_cfg, roi_cfg)

        frames = list(replay_dir(ds.directory))
        state = MotionState(motion_cfg)
        steps = [(roi_analyze(f, roi_cfg), motion_step(state, f)) for f in frames]
        recount = {
            Method.METHOD_A: [motion.movement for _, motion in steps],
            Method.METHOD_B: [roi.any for roi, _ in steps],
            Method.HYBRID: [roi.any or motion.movement for roi, motion in steps],
        }
        labels = read_labels(ds.labels_path)
        assert report.matrices == {m: confusion(p, labels) for m, p in recount.items()}
        assert report.frames_evaluated == len(frames) == spec.frames
        assert any(recount[Method.METHOD_A]) and any(recount[Method.METHOD_B])
        assert recount[Method.METHOD_B] != [roi_analyze(f).any for f in frames]
        default_ratio = run_eval(ds.directory, ds.labels_path, motion_cfg)
        assert report.matrices[Method.METHOD_B] != default_ratio.matrices[Method.METHOD_B]
        # motion_cfg scores like the default here; no frame has every pixel
        # active, so this config shows that run_eval passes A's config on
        all_active = run_eval(ds.directory, ds.labels_path,
                              MotionConfig(active_fraction=1.0), roi_cfg)
        assert report.matrices[Method.METHOD_A] != all_active.matrices[Method.METHOD_A]

        a, b = report.latency[Method.METHOD_A], report.latency[Method.METHOD_B]
        assert a.mean_us >= 0 and b.mean_us >= 0
        assert report.latency[Method.HYBRID].mean_us == pytest.approx(
            a.mean_us + b.mean_us, rel=1e-9)


class TestReportRendering:
    def test_format_contains_cells_and_one_decimal_accuracy(self, static_human_dataset):
        ds = static_human_dataset
        report = run_eval(ds.directory, ds.labels_path)
        text = format_report(report)
        assert "Method A (movement)" in text
        assert "Method B (region of interest)" in text
        assert "Hybrid (A or B)" in text
        assert "frames evaluated: 40" in text
        assert "accuracy: " in text

    def test_report_dict_is_json_ready(self, static_human_dataset):
        import json

        ds = static_human_dataset
        report = run_eval(ds.directory, ds.labels_path)
        payload = report_to_dict(report)
        encoded = json.dumps(payload)
        assert json.loads(encoded)["frames_evaluated"] == 40
        assert set(payload["matrices"]) == {"method_a", "method_b", "hybrid"}
