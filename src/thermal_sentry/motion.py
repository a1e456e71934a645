"""Movement detection by background subtraction (method A).

Each frame is differenced against a reference background pixel by pixel;
pixels whose absolute difference reaches `active_pixel_delta` are "active",
and the frame signals movement when the active count reaches the
configured fraction of all pixels. A frame without movement replaces the
background, so slow ambient changes (sunlight, daily temperature swings)
are absorbed instead of accumulating into false positives. The first frame
of a stream has nothing to be compared against and is its own background:
none of its pixels is active, so it is a quiet frame and seeds the
background. Static heat sources never move relative to the background and
are therefore ignored after the first frame.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .frame import MAX_COUNT, CheckedRecord, ThermalFrame, abs_diff


class MotionConfig(CheckedRecord, namedtuple(
    "MotionConfig", "active_pixel_delta active_fraction max_hold_frames"
)):
    """Tunables for the movement detector.

    active_pixel_delta: per-pixel |frame - background| threshold, in counts,
        at most MAX_COUNT: no difference is larger, so a higher threshold
        would switch the detector off.
    active_fraction: fraction of all pixels that must be active before the
        frame counts as movement (0.05 means "at least 5%").
    max_hold_frames: optional forced-refresh limit. After this many
        consecutive movement frames the background is replaced anyway, so a
        permanently rearranged scene cannot pin the detector positive.
    """

    __slots__ = ()

    def __new__(cls, active_pixel_delta: int = 20, active_fraction: float = 0.05,
                max_hold_frames: int | None = None):
        self = super().__new__(cls, active_pixel_delta, active_fraction, max_hold_frames)
        # NaN fails every comparison; a count is an int, and no field a bool
        delta, hold = self.active_pixel_delta, self.max_hold_frames
        if isinstance(delta, bool) or not isinstance(delta, int) or not 1 <= delta <= MAX_COUNT:
            raise ValueError(f"active_pixel_delta must be an int in 1..{MAX_COUNT}")
        if isinstance(self.active_fraction, bool) or not 0.0 < self.active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        if hold is not None and (isinstance(hold, bool) or not isinstance(hold, int) or hold < 1):
            raise ValueError("max_hold_frames must be an int >= 1 when set")
        return self


class MotionResult(NamedTuple):
    """Outcome of one detector step.

    `forced_refresh` marks background replacements triggered by
    `max_hold_frames` rather than by a quiet frame.
    """

    movement: bool
    active_count: int
    required_count: int
    background_updated: bool
    forced_refresh: bool = False


class MotionState:
    """Mutable per-stream detector state. One instance per frame stream;
    not safe for concurrent mutation."""

    __slots__ = ("config", "background", "frames_since_update")

    def __init__(self, config: MotionConfig = MotionConfig()) -> None:
        self.config = config
        self.background: ThermalFrame | None = None
        self.frames_since_update = 0


@lru_cache(maxsize=64, typed=True)
def required_active_count(fraction: float, pixel_count: int) -> int:
    """Smallest active-pixel count satisfying "at least `fraction` of all".

    The ceiling is taken over the decimal value the caller wrote, not over
    its binary float image: 0.07 * 100 must require 7 pixels, not
    ceil(7.000000000000001) = 8. Cached, because a stream asks for the same
    (fraction, pixel count) on every frame and the exact arithmetic costs
    more than the rest of the threshold test.
    """
    return math.ceil(Fraction(str(fraction)) * pixel_count)


def motion_step(state: MotionState, frame: ThermalFrame) -> MotionResult:
    """Advance the detector by one frame, mutating `state`.

    Background bookkeeping: a quiet frame always becomes the new background;
    a movement frame leaves it untouched (updating it would absorb the
    intruder) unless the optional hold limit has been exceeded.
    """
    cfg = state.config
    required = required_active_count(cfg.active_fraction, frame.width * frame.height)
    background = frame if state.background is None else state.background
    diff = abs_diff(frame, background)
    active = int(np.count_nonzero(diff >= cfg.active_pixel_delta))
    movement = active >= required

    forced = False
    if not movement:
        state.background = frame
        state.frames_since_update = 0
    else:
        state.frames_since_update += 1
        if (
            cfg.max_hold_frames is not None
            and state.frames_since_update > cfg.max_hold_frames
        ):
            state.background = frame
            state.frames_since_update = 0
            forced = True

    return MotionResult(movement, active, required, not movement or forced, forced)
