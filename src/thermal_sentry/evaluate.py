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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .frame import QuadrantId, ThermalFrame, replay_dir
from .motion import MotionConfig, MotionResult, motion_init, motion_step
from .roi import RoiConfig, RoiResult, roi_analyze


class DatasetError(ValueError):
    """Raised for unusable datasets or label files."""


class Method(Enum):
    METHOD_A = "method_a"
    METHOD_B = "method_b"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def accuracy(cm: ConfusionMatrix) -> float:
    """Percent of correct verdicts: (TP + TN) / (TP + TN + FP + FN) * 100."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total * 100.0


@dataclass(frozen=True)
class GroundTruthLabel:
    """Manual per-frame truth. `occupied_quadrants` may be empty even when a
    human is present (unlocalized labels)."""

    frame_index: int
    human_present: bool
    occupied_quadrants: frozenset[QuadrantId] = frozenset()

    def __post_init__(self) -> None:
        if self.occupied_quadrants and not self.human_present:
            raise ValueError("occupied quadrants require human_present")


@dataclass(frozen=True)
class LatencyStats:
    max_us: float
    mean_us: float
    p99_us: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("no latency samples")
        return cls(
            max_us=float(arr.max()),
            mean_us=float(arr.mean()),
            p99_us=float(np.percentile(arr, 99)),
        )


@dataclass(frozen=True)
class EvalReport:
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


def read_labels(path: str | Path) -> list[GroundTruthLabel]:
    """Read a `frame,present,quadrants` CSV (quadrants `;`-separated)."""
    path = Path(path)
    with path.open(newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # such as a field over csv's size limit
            raise DatasetError(f"{path}: {exc}") from None
    if not rows or [c.strip().lower() for c in rows[0]] != ["frame", "present", "quadrants"]:
        raise DatasetError(f"{path}: expected header 'frame,present,quadrants'")
    labels: list[GroundTruthLabel] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        frame_field, present_field, quadrants_field = (c.strip() for c in row)
        try:
            index = int(frame_field)
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: bad frame index {frame_field!r}") from None
        present_norm = present_field.lower()
        if present_norm in ("1", "true"):
            present = True
        elif present_norm in ("0", "false"):
            present = False
        else:
            raise DatasetError(f"{path}:{lineno}: bad present value {present_field!r}")
        quadrants = set()
        for name in filter(None, (q.strip() for q in quadrants_field.split(";"))):
            try:
                quadrants.add(QuadrantId[name.upper()])
            except KeyError:
                raise DatasetError(f"{path}:{lineno}: unknown quadrant {name!r}") from None
        if labels and index <= labels[-1].frame_index:
            raise DatasetError(f"{path}:{lineno}: frame indices must increase")
        try:
            labels.append(GroundTruthLabel(index, present, frozenset(quadrants)))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return labels


def write_labels(labels: Iterable[GroundTruthLabel], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "present", "quadrants"])
        for label in labels:
            quadrants = ";".join(q.name for q in sorted(label.occupied_quadrants))
            writer.writerow([label.frame_index, int(label.human_present), quadrants])


def timed_steps(
    frames: Iterable[ThermalFrame],
    samples: Mapping[Method, list[float]],
    motion_config: MotionConfig | None = None,
    roi_config: RoiConfig | None = None,
) -> Iterator[tuple[RoiResult, MotionResult]]:
    """Run both detectors over a stream, yielding (roi, motion) per frame.

    Each frame appends the time of method B, of method A and of the two back
    to back (the hybrid), in microseconds, to `samples`.
    """
    state = motion_init(motion_config)
    for frame in frames:
        t0 = time.perf_counter_ns()
        roi = roi_analyze(frame, roi_config)
        t1 = time.perf_counter_ns()
        motion = motion_step(state, frame)
        t2 = time.perf_counter_ns()
        samples[Method.METHOD_B].append((t1 - t0) / 1000.0)
        samples[Method.METHOD_A].append((t2 - t1) / 1000.0)
        samples[Method.HYBRID].append((t2 - t0) / 1000.0)
        yield roi, motion


def run_eval(
    dataset_dir: str | Path,
    labels_path: str | Path,
    motion_config: MotionConfig | None = None,
    roi_config: RoiConfig | None = None,
) -> EvalReport:
    """Replay a labeled dataset once and score all three methods.

    The indeterminate first frame counts as a negative prediction for
    method A and the hybrid.
    """
    labels = read_labels(labels_path)
    preds: dict[Method, list[bool]] = {m: [] for m in Method}
    samples: dict[Method, list[float]] = {m: [] for m in Method}
    steps = timed_steps(replay_dir(dataset_dir), samples, motion_config, roi_config)
    for count, (roi, motion) in enumerate(steps):
        if count >= len(labels):
            raise DatasetError(f"no label for frame {count}")
        if labels[count].frame_index != count:
            raise DatasetError(
                f"label misalignment: expected frame {count}, "
                f"got {labels[count].frame_index}"
            )
        preds[Method.METHOD_A].append(motion.movement)
        preds[Method.METHOD_B].append(roi.any)
        preds[Method.HYBRID].append(roi.any or motion.movement)
    count = len(preds[Method.HYBRID])
    if count == 0:
        raise DatasetError(f"{dataset_dir}: dataset contains no frames")
    if count < len(labels):
        raise DatasetError(
            f"label for frame {labels[count].frame_index} has no frame"
        )

    matrices = {m: confusion(preds[m], labels) for m in Method}
    return EvalReport(
        matrices=matrices,
        accuracies={m: accuracy(matrices[m]) for m in Method},
        latency={m: LatencyStats.from_samples(samples[m]) for m in Method},
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
            m.value: {
                "tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn,
                "total": cm.total,
            }
            for m, cm in report.matrices.items()
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
