"""Dataset replay, confusion matrices, accuracy and latency statistics.

A labeled dataset is a directory of PGM frames (replayed in lexicographic
filename order, which the movement detector makes part of the dataset
contract) plus a CSV of per-frame ground truth. One replay pass scores all
three predictors: method A standalone, method B standalone, and their
hybrid OR.
"""

from __future__ import annotations

import csv
import time
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .frame import CheckedRecord, QuadrantId, replay_dir
from .motion import MotionConfig, MotionState, motion_step
from .roi import RoiConfig, roi_analyze


class DatasetError(ValueError):
    """Raised for unusable datasets or label files."""


class Method(Enum):
    METHOD_A = "method_a"
    METHOD_B = "method_b"
    HYBRID = "hybrid"


class ConfusionMatrix(CheckedRecord, namedtuple("ConfusionMatrix", "tp fp fn tn")):
    __slots__ = ()

    def __new__(cls, tp: int = 0, fp: int = 0, fn: int = 0, tn: int = 0):
        self = super().__new__(cls, tp, fp, fn, tn)
        if min(self) < 0:
            raise ValueError("confusion counts must be non-negative")
        return self

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def accuracy(cm: ConfusionMatrix) -> float:
    """Percent of correct verdicts: (TP + TN) / (TP + TN + FP + FN) * 100."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total * 100.0


class GroundTruthLabel(CheckedRecord, namedtuple(
    "GroundTruthLabel", "frame_index human_present occupied_quadrants"
)):
    """Manual per-frame truth. `occupied_quadrants` may be empty even when a
    human is present (unlocalized labels)."""

    __slots__ = ()

    def __new__(cls, frame_index: int, human_present: bool,
                occupied_quadrants: frozenset[QuadrantId] = frozenset()):
        self = super().__new__(cls, frame_index, human_present, occupied_quadrants)
        if self.occupied_quadrants and not self.human_present:
            raise ValueError("occupied quadrants require human_present")
        return self


class LatencyStats(NamedTuple):
    max_us: float
    mean_us: float
    p99_us: float

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray) -> "LatencyStats":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("no latency samples")
        return cls(float(arr.max()), float(arr.mean()), float(np.percentile(arr, 99)))


class EvalReport(NamedTuple):
    matrices: Mapping[Method, ConfusionMatrix]
    accuracies: Mapping[Method, float]
    latency: Mapping[Method, LatencyStats]
    frames_evaluated: int


def confusion(
    predictions: Sequence[bool], labels: Sequence[GroundTruthLabel]
) -> ConfusionMatrix:
    """Tally predictions against labels taken in matching order."""
    if len(predictions) != len(labels):
        raise DatasetError(
            f"{len(predictions)} predictions for {len(labels)} labels"
        )
    previous = None
    tp = fp = fn = tn = 0
    for pred, label in zip(predictions, labels):
        if previous is not None and label.frame_index <= previous:
            raise DatasetError(
                f"labels out of order at frame {label.frame_index}"
            )
        previous = label.frame_index
        if pred and label.human_present:
            tp += 1
        elif pred:
            fp += 1
        elif label.human_present:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


_PRESENT = {"1": True, "true": True, "0": False, "false": False}


def read_labels(path: str | Path) -> list[GroundTruthLabel]:
    """Read a `frame,present,quadrants` CSV (quadrants `;`-separated).

    A file holds few distinct `present` and `quadrants` fields, so each is
    parsed once, on the first line that holds it: the line a bad field's
    error names.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:  # an oversized field, not UTF-8
            raise DatasetError(f"{path}: {exc}") from None
    if not rows or [c.strip().lower() for c in rows[0]] != ["frame", "present", "quadrants"]:
        raise DatasetError(f"{path}: expected header 'frame,present,quadrants'")
    labels: list[GroundTruthLabel] = []
    presents: dict[str, bool] = {}
    quadrant_sets: dict[str, frozenset[QuadrantId]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        frame_field, present_field, quadrants_field = row
        frame_field = frame_field.strip()
        try:
            index = int(frame_field)
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: bad frame index {frame_field!r}") from None
        present = presents.get(present_field)
        if present is None:
            text = present_field.strip()
            present = _PRESENT.get(text.lower())
            if present is None:
                raise DatasetError(f"{path}:{lineno}: bad present value {text!r}")
            presents[present_field] = present
        quadrants = quadrant_sets.get(quadrants_field)
        if quadrants is None:
            occupied = set()
            for name in filter(None, (q.strip() for q in quadrants_field.split(";"))):
                try:
                    occupied.add(QuadrantId[name.upper()])
                except KeyError:
                    raise DatasetError(f"{path}:{lineno}: unknown quadrant {name!r}") from None
            quadrants = quadrant_sets[quadrants_field] = frozenset(occupied)
        if labels and index <= labels[-1].frame_index:
            raise DatasetError(f"{path}:{lineno}: frame indices must increase")
        try:
            labels.append(GroundTruthLabel(index, present, quadrants))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return labels


def write_labels(labels: Iterable[GroundTruthLabel], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "present", "quadrants"])
        for label in labels:
            quadrants = ";".join(q.name for q in sorted(label.occupied_quadrants))
            writer.writerow([label.frame_index, int(label.human_present), quadrants])


def run_eval(
    dataset_dir: str | Path,
    labels_path: str | Path,
    motion_config: MotionConfig = MotionConfig(),
    roi_config: RoiConfig = RoiConfig(),
) -> EvalReport:
    """Replay a labeled dataset once and score all three methods.

    Each frame is timed for method B, for method A and for the two back to
    back (the hybrid). The first frame is the movement detector's own
    background, so it shows no movement: a negative prediction for method
    A, and for the hybrid unless method B flags it.
    """
    labels = read_labels(labels_path)
    state = MotionState(motion_config)
    clock = time.perf_counter_ns
    a_preds, b_preds = [], []
    # three clock readings a frame: before method B, between B and A, after A
    stamps: list[int] = []
    for count, frame in enumerate(replay_dir(dataset_dir)):
        if count >= len(labels):
            raise DatasetError(f"no label for frame {count}")
        if labels[count].frame_index != count:
            raise DatasetError(
                f"label misalignment: expected frame {count}, "
                f"got {labels[count].frame_index}"
            )
        t0 = clock()
        roi = roi_analyze(frame, roi_config)
        t1 = clock()
        motion = motion_step(state, frame)
        stamps += t0, t1, clock()
        a_preds.append(motion.movement)
        b_preds.append(roi.any)
    count = len(a_preds)
    if count == 0:
        raise DatasetError(f"{dataset_dir}: dataset contains no frames")
    if count < len(labels):
        raise DatasetError(
            f"label for frame {labels[count].frame_index} has no frame"
        )

    t0, t1, t2 = np.array(stamps, dtype=np.int64).reshape(count, 3).T
    # one list and one latency array per Method, in Method order
    preds = a_preds, b_preds, [a or b for a, b in zip(a_preds, b_preds)]
    samples = (t2 - t1) / 1000.0, (t1 - t0) / 1000.0, (t2 - t0) / 1000.0
    matrices = {m: confusion(p, labels) for m, p in zip(Method, preds)}
    return EvalReport(
        matrices=matrices,
        accuracies={m: accuracy(matrices[m]) for m in Method},
        latency={m: LatencyStats.from_samples(us) for m, us in zip(Method, samples)},
        frames_evaluated=count,
    )


_TITLES = {
    Method.METHOD_A: "Method A (movement)",
    Method.METHOD_B: "Method B (region of interest)",
    Method.HYBRID: "Hybrid (A or B)",
}


def format_matrix(title: str, cm: ConfusionMatrix, acc: float) -> list[str]:
    return [
        title,
        "                         ground truth",
        "                         positive   negative",
        f"  predicted positive   {cm.tp:>10} {cm.fp:>10}",
        f"  predicted negative   {cm.fn:>10} {cm.tn:>10}",
        f"  accuracy: {acc:.1f}%  (raw {acc:.4f}%)",
    ]


def format_report(report: EvalReport) -> str:
    lines: list[str] = []
    for method in Method:
        stats = report.latency[method]
        lines += format_matrix(
            _TITLES[method], report.matrices[method], report.accuracies[method]
        )
        lines.append(
            f"  latency us: max {stats.max_us:.1f}, "
            f"mean {stats.mean_us:.1f}, p99 {stats.p99_us:.1f}"
        )
        lines.append("")
    lines.append(f"frames evaluated: {report.frames_evaluated}")
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report (raw accuracies plus one-decimal form)."""
    return {
        "frames_evaluated": report.frames_evaluated,
        "matrices": {
            m.value: {**cm._asdict(), "total": cm.total} for m, cm in report.matrices.items()
        },
        "accuracies": {m.value: report.accuracies[m] for m in report.matrices},
        "accuracies_1dp": {
            m.value: round(report.accuracies[m], 1) for m in report.matrices
        },
        "latency_us": {
            m.value: {
                "max": stats.max_us, "mean": stats.mean_us, "p99": stats.p99_us,
            }
            for m, stats in report.latency.items()
        },
    }
