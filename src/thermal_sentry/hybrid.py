"""Per-frame fusion of the movement and region-of-interest detectors.

A frame is positive when either method reports presence; only when both are
negative is the frame negative. Both detectors run on every frame: the
movement detector's background must keep tracking the stream even on frames
the quadrant method already decided.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .frame import ThermalFrame
from .motion import MotionResult, MotionState, motion_step
from .roi import RoiConfig, RoiResult, roi_analyze


class Detection(NamedTuple):
    """Per-frame verdict plus the component evidence that produced it."""

    frame_index: int
    verdict: bool
    elapsed_us: float
    motion: MotionResult
    roi: RoiResult


def hybrid_step(
    motion_state: MotionState,
    frame: ThermalFrame,
    roi_config: RoiConfig = RoiConfig(),
) -> Detection:
    """Run both detectors on one frame and OR their verdicts.

    The first frame is the movement detector's own background, so it shows
    no movement and frame 0 is carried by the quadrant method alone.
    """
    start = time.perf_counter_ns()
    roi = roi_analyze(frame, roi_config)
    motion = motion_step(motion_state, frame)
    verdict = roi.any or motion.movement
    elapsed_us = (time.perf_counter_ns() - start) / 1000.0
    # tuple.__new__ skips namedtuple's generated __new__, a Python call
    return tuple.__new__(Detection, (frame.frame_index, verdict, elapsed_us, motion, roi))
