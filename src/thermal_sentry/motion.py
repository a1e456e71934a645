"""Movement detection by background subtraction (method A).

Each frame is differenced against a reference background pixel by pixel;
pixels whose absolute difference reaches `active_delta` are "active",
and the frame signals movement when the active count reaches the
configured fraction of all pixels. A frame without movement replaces the
background, so slow ambient changes (sunlight, daily temperature swings)
are absorbed instead of accumulating into false positives. The first frame
of a stream has nothing to be compared against and is its own background:
none of its pixels is active, so it is a quiet frame and seeds the
background. Static heat sources never move relative to the background and
are therefore ignored after the first frame.

A held background is compared against every frame of its hold, so from its
second comparison on, the stream keeps one frame-sized uint16 array for it,
`floor = background - r` with `r = active_delta - 1`: 38 KB at
160x120, 614 KB at 640x480, dropped when the background is replaced. A
pixel p is then inactive exactly when the wrapping uint16 difference
`p - floor` is at most `2r`, one subtraction and one comparison in place of
`abs_diff` and a threshold. That is exact when every background pixel lies
in `[r, MAX_COUNT - r]`: then no `floor` wraps below 0, and a `p` below
`floor` wraps to at least `2r + 1`. A background outside that range, which
every background is once `active_delta > 32768`, keeps `abs_diff`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .frame import MAX_COUNT, CheckedRecord, ThermalFrame, abs_diff, check_count


class MotionConfig(CheckedRecord, namedtuple(
    "MotionConfig", "active_delta active_fraction max_hold_frames"
)):
    """Tunables for the movement detector.

    active_delta: per-pixel |frame - background| threshold, in counts,
        at most MAX_COUNT: no difference is larger, so a higher threshold
        would switch the detector off.
    active_fraction: fraction of all pixels that must be active before the
        frame counts as movement (0.05 means "at least 5%").
    max_hold_frames: optional forced-refresh limit, None or an int >= 1:
        after this many consecutive movement frames the background is
        replaced anyway, so a rearranged scene cannot pin the detector positive.
    """

    __slots__ = ()

    def __new__(cls, active_delta: int = 20, active_fraction: float = 0.05,
                max_hold_frames: int | None = None):
        self = super().__new__(cls, active_delta, active_fraction, max_hold_frames)
        check_count("active_delta", self.active_delta, 1, MAX_COUNT)
        # NaN fails every comparison, and a bool fraction has no decimal text
        if isinstance(self.active_fraction, bool) or not 0.0 < self.active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        if self.max_hold_frames is not None:
            check_count("max_hold_frames", self.max_hold_frames, 1)
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
    """Mutable per-stream detector state under one `MotionConfig`, kept
    from construction on. One instance per frame stream; not safe for
    concurrent mutation."""

    __slots__ = ("_config", "background", "frames_since_update", "held")

    def __init__(self, config: MotionConfig = MotionConfig()) -> None:
        self._config = config
        self.background: ThermalFrame | None = None
        self.frames_since_update = 0
        # `_held_floor` of the held background, once it has been compared
        # a second time
        self.held: tuple[ThermalFrame, np.ndarray | None, int] | None = None

    # read-only, so a held floor always matches the config's delta
    config = property(lambda self: self._config)


def _held_floor(
    background: ThermalFrame, delta: int
) -> tuple[ThermalFrame, np.ndarray | None, int]:
    """`(background, floor, 2r)` with `r = delta - 1` and `floor` the
    background's pixels less r, or None when a pixel lies outside
    `[r, MAX_COUNT - r]`, where the wrapping comparison would not be exact
    (see the module docstring). The range is checked with the ufuncs'
    reductions, which call no Python code."""
    r = delta - 1
    pixels = background.pixels
    if (np.minimum.reduce(pixels, axis=None) >= r
            and np.maximum.reduce(pixels, axis=None) <= MAX_COUNT - r):
        return background, pixels - r, 2 * r
    return background, None, 2 * r


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
    cfg = state._config
    required = required_active_count(cfg.active_fraction, frame.width * frame.height)
    background = frame if state.background is None else state.background
    floor = None
    if state.frames_since_update:  # a held background, compared before
        held = state.held
        if held is None or held[0] is not background:
            held = state.held = _held_floor(background, cfg.active_delta)
        _, floor, span = held
    pixels = frame.pixels
    # a frame of other dimensions goes to abs_diff, which reports it
    if floor is not None and pixels.shape == floor.shape:
        active = pixels.size - int(np.count_nonzero((pixels - floor) <= span))
    else:
        diff = abs_diff(frame, background)
        active = int(np.count_nonzero(diff >= cfg.active_delta))
    movement = active >= required

    forced = False
    if movement:
        state.frames_since_update += 1
        forced = (cfg.max_hold_frames is not None
                  and state.frames_since_update > cfg.max_hold_frames)
    if not movement or forced:
        state.background = frame
        state.frames_since_update = 0
        state.held = None

    # tuple.__new__ skips namedtuple's generated __new__, a Python call
    return tuple.__new__(MotionResult, (movement, active, required, not movement or forced, forced))
