"""Region-of-interest detection over frame quadrants (method B).

Stateless per frame: a quadrant is flagged when its mean intensity is more
than `ratio` times the whole-frame mean (default: 20% above it) and also
meets an absolute floor that keeps near-black frames negative. Unlike the
movement detector this catches stationary people, but a body of heat
centered on the frame splits its mass across all four quadrants and can
fall below the ratio everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .frame import MAX_COUNT, QUADRANTS, QuadrantId, ThermalFrame


@dataclass(frozen=True)
class RoiConfig:
    """ratio: quadrant mean must exceed ratio * frame mean (strict).
    min_quadrant_mean: absolute floor on the quadrant mean, in counts."""

    ratio: float = 1.20
    min_quadrant_mean: int = 1

    def __post_init__(self) -> None:
        # NaN fails every comparison and infinity has no exact decimal
        if not math.isfinite(self.ratio) or self.ratio < 1.0:
            raise ValueError("ratio must be a finite number >= 1.0")
        if self.min_quadrant_mean < 0:
            raise ValueError("min_quadrant_mean must be >= 0")


@dataclass(frozen=True)
class RoiResult:
    frame_mean: float
    quadrant_means: Mapping[QuadrantId, float]
    flags: Mapping[QuadrantId, bool]
    any: bool


_DEFAULT_CONFIG = RoiConfig()


@lru_cache(maxsize=64, typed=True)
def _exact_ratio(ratio: float) -> tuple[int, int]:
    """Numerator and denominator of the decimal the caller wrote (1.2 is
    6/5), computed once per ratio rather than once per frame."""
    exact = Fraction(str(ratio))
    return exact.numerator, exact.denominator


def roi_analyze(frame: ThermalFrame, config: RoiConfig | None = None) -> RoiResult:
    """Flag quadrants whose mean stands out against the whole frame.

    The flag rule is evaluated in exact integer arithmetic so that "more
    than 20% above the mean" is strict at the decimal boundary: with
    quadrant pixel count n and frame sum F, mean_q > ratio * mean_frame
    reduces to 4 * sum_q > ratio * F, and the ratio is taken as the decimal
    the caller wrote (1.2 is exactly 6/5, not its binary float image), so
    with ratio = num/den the test is 4 * den * sum_q > num * F.
    """
    cfg = config or _DEFAULT_CONFIG
    num, den = _exact_ratio(cfg.ratio)
    hh, hw = frame.height // 2, frame.width // 2
    quad_count = hh * hw

    # Sum the rows of each half elementwise into one row of column sums per
    # half; row by row that is a contiguous add, far cheaper than a strided
    # int64 reduce. A column sum is at most hh * 65535, which fits uint32
    # while hh <= 65537; taller frames widen the accumulator to uint64. Each
    # row of column sums then splits into the left and right quadrants, so
    # the four sums come out in QuadrantId order.
    accumulator = np.uint32 if hh * MAX_COUNT < 2**32 else np.uint64
    columns = frame.pixels.reshape(2, hh, frame.width).sum(axis=1, dtype=accumulator)
    sums = columns.reshape(4, hw).sum(axis=1, dtype=np.int64).tolist()
    total = sum(sums)

    bar = num * total
    floor = cfg.min_quadrant_mean * quad_count
    flags = {
        qid: 4 * den * s > bar and s >= floor for qid, s in zip(QUADRANTS, sums)
    }
    return RoiResult(
        frame_mean=total / (4 * quad_count),
        quadrant_means={qid: s / quad_count for qid, s in zip(QUADRANTS, sums)},
        flags=flags,
        any=any(flags.values()),
    )
