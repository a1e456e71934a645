"""Region-of-interest detection over frame quadrants (method B).

Stateless per frame: a quadrant is flagged when its mean intensity is more
than `roi_ratio` times the whole-frame mean (default: 20% above it) and also
meets an absolute floor that keeps near-black frames negative. Unlike the
movement detector this catches stationary people, but a body of heat
centered on the frame splits its mass across all four quadrants and can
fall below the ratio everywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .frame import MAX_COUNT, CheckedRecord, ThermalFrame, check_count


class RoiConfig(CheckedRecord, namedtuple("RoiConfig", "roi_ratio roi_min_mean")):
    """roi_ratio: quadrant mean must exceed roi_ratio * frame mean (strict).
        Below 4: a quadrant mean is at most 4 times the frame mean.
    roi_min_mean: absolute floor on the quadrant mean, in counts, at most
        MAX_COUNT. A setting no frame can meet switches method B off."""

    __slots__ = ()

    def __new__(cls, roi_ratio: float = 1.20, roi_min_mean: int = 1):
        self = super().__new__(cls, roi_ratio, roi_min_mean)
        # NaN fails every comparison, and a bool ratio has no decimal text
        if isinstance(self.roi_ratio, bool) or not 1.0 <= self.roi_ratio < 4.0:
            raise ValueError("roi_ratio must be a finite number >= 1.0 and < 4.0")
        check_count("roi_min_mean", self.roi_min_mean, 0, MAX_COUNT)
        return self


class RoiResult(NamedTuple):
    """Outcome of one quadrant analysis. `quadrant_means` and `flags` hold
    one value per quadrant in QuadrantId order, so `flags[QuadrantId.Q2]`
    is quadrant Q2's flag."""

    frame_mean: float
    quadrant_means: tuple[float, float, float, float]
    flags: tuple[bool, bool, bool, bool]
    any: bool


@lru_cache(maxsize=64, typed=True)
def _exact_ratio(ratio: float) -> tuple[int, int]:
    """Numerator and denominator of the decimal the caller wrote (1.2 is
    6/5), computed once per ratio rather than once per frame."""
    exact = Fraction(str(ratio))
    return exact.numerator, exact.denominator


def roi_analyze(frame: ThermalFrame, config: RoiConfig = RoiConfig()) -> RoiResult:
    """Flag quadrants whose mean stands out against the whole frame.

    The flag rule is evaluated in exact integer arithmetic so that "more
    than 20% above the mean" is strict at the decimal boundary: with
    quadrant pixel count n and frame sum F, mean_q > ratio * mean_frame
    reduces to 4 * sum_q > ratio * F, and the ratio is taken as the decimal
    the caller wrote (1.2 is exactly 6/5, not its binary float image), so
    with ratio = num/den the test is 4 * den * sum_q > num * F.
    """
    num, den = _exact_ratio(config.roi_ratio)
    hh, hw = frame.height // 2, frame.width // 2
    quad_count = hh * hw

    # Sum the rows of each half elementwise into one row of column sums per
    # half; row by row that is a contiguous add, far cheaper than a strided
    # int64 reduce. A column sum is at most hh * 65535, which fits uint32
    # while hh <= 65537; taller frames widen the accumulator to uint64. Each
    # row of column sums then splits into the left and right quadrants, so
    # the four sums come out in QuadrantId order. np.add.reduce is what
    # ndarray.sum calls, minus numpy's Python-level wrapper in between.
    accumulator = np.uint32 if hh * MAX_COUNT < 2**32 else np.uint64
    columns = np.add.reduce(frame.pixels.reshape(2, hh, frame.width), 1, accumulator)
    s0, s1, s2, s3 = np.add.reduce(columns.reshape(4, hw), 1, np.int64).tolist()
    total = s0 + s1 + s2 + s3

    bar = num * total
    scale = 4 * den
    floor = config.roi_min_mean * quad_count
    flags = (
        scale * s0 > bar and s0 >= floor,
        scale * s1 > bar and s1 >= floor,
        scale * s2 > bar and s2 >= floor,
        scale * s3 > bar and s3 >= floor,
    )
    return RoiResult(
        total / (4 * quad_count),
        (s0 / quad_count, s1 / quad_count, s2 / quad_count, s3 / quad_count),
        flags,
        True in flags,
    )
