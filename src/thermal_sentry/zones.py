"""Quadrant zone classes and the safety state machine.

Each quadrant is classed Ignore, Warning or Critical. Debounced quadrant
occupancy drives a three-state machine ordered Run < Slow < Stop: any
occupied Critical quadrant demands Stop, otherwise any occupied Warning
quadrant demands Slow. A positive detection without quadrant localization
(movement only) holds the state at Slow for one debounce window, never
Stop, because there is no quadrant to blame.

Occupancy is debounced in both directions: a quadrant must be flagged for
`debounce_frames` consecutive frames to count as occupied, and must then be
flag-free for `clear_frames` consecutive frames to release. At the paper's
class of capture rates (a few frames per second) this suppresses
single-frame chatter without adding meaningful reaction delay.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .frame import QUADRANTS, CheckedRecord, QuadrantId
from .hybrid import Detection
from .keyvalue import read_settings


class ZoneClass(Enum):
    IGNORE = "ignore"
    WARNING = "warning"
    CRITICAL = "critical"


class SafetyState(IntEnum):
    # ordered by severity; max() picks the more restrictive state
    RUN = 0
    SLOW = 1
    STOP = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


# the state an occupied quadrant of each class demands
_DEMAND = {
    ZoneClass.IGNORE: SafetyState.RUN,
    ZoneClass.WARNING: SafetyState.SLOW,
    ZoneClass.CRITICAL: SafetyState.STOP,
}


class ZoneEventKind(Enum):
    ENTERED = "Entered"
    CLEARED = "Cleared"
    STATE_CHANGED = "StateChanged"


class ZoneEvent(NamedTuple):
    frame_index: int
    kind: ZoneEventKind
    quadrant: QuadrantId | None = None
    from_state: SafetyState | None = None
    to_state: SafetyState | None = None


class ZoneConfigError(ValueError):
    """Raised for unparseable zone configuration text."""


_ALL_IGNORE = MappingProxyType(dict.fromkeys(QUADRANTS, ZoneClass.IGNORE))


class ZoneConfig(
    CheckedRecord, namedtuple("ZoneConfig", "zone_class debounce_frames clear_frames")
):
    """`zone_class` is kept as a read-only copy: a later change to the
    caller's mapping cannot get past the checks."""

    __slots__ = ()

    def __new__(cls, zone_class: Mapping[QuadrantId, ZoneClass] = _ALL_IGNORE,
                debounce_frames: int = 3, clear_frames: int = 3):
        zone_class = MappingProxyType(dict(zone_class))
        self = super().__new__(cls, zone_class, debounce_frames, clear_frames)
        if set(self.zone_class) != set(QuadrantId):
            raise ValueError("zone_class must map every quadrant")
        # a plain "critical" string would never demand Stop
        if not all(isinstance(c, ZoneClass) for c in self.zone_class.values()):
            raise ValueError("zone_class values must be ZoneClass members")
        # NaN fails every comparison, so these checks reject it
        if not 1 <= self.debounce_frames < math.inf:
            raise ValueError("debounce_frames must be a finite number >= 1")
        if not 1 <= self.clear_frames < math.inf:
            raise ValueError("clear_frames must be a finite number >= 1")
        return self


class ZoneState:
    """Mutable per-stream occupancy and state-machine memory."""

    __slots__ = ("state", "flag_streak", "clear_streak", "occupied", "unlocalized_hold")

    def __init__(self) -> None:
        self.state = SafetyState.RUN
        self.flag_streak = dict.fromkeys(QUADRANTS, 0)
        self.clear_streak = dict.fromkeys(QUADRANTS, 0)
        self.occupied: set[QuadrantId] = set()
        self.unlocalized_hold = 0


def zone_update(
    state: ZoneState, detection: Detection, config: ZoneConfig
) -> tuple[SafetyState, list[ZoneEvent]]:
    """Advance occupancy and the safety state by one frame, mutating `state`.

    Returns the state in force after this frame plus the events emitted for
    it (quadrant transitions first, then the state change, if any).
    """
    roi = detection.roi
    index = detection.frame_index
    events: list[ZoneEvent] = []

    for q in QUADRANTS:
        if roi.flags[q]:
            state.flag_streak[q] += 1
            state.clear_streak[q] = 0
            if q not in state.occupied and state.flag_streak[q] >= config.debounce_frames:
                state.occupied.add(q)
                events.append(ZoneEvent(index, ZoneEventKind.ENTERED, quadrant=q))
        else:
            state.clear_streak[q] += 1
            state.flag_streak[q] = 0
            if q in state.occupied and state.clear_streak[q] >= config.clear_frames:
                state.occupied.discard(q)
                events.append(ZoneEvent(index, ZoneEventKind.CLEARED, quadrant=q))

    if detection.verdict and not roi.any:
        # movement with no quadrant to localize: hold at least Slow for one
        # debounce window starting at this frame
        state.unlocalized_hold = config.debounce_frames

    classes = config.zone_class
    target = max((_DEMAND[classes[q]] for q in state.occupied), default=SafetyState.RUN)
    if state.unlocalized_hold > 0:
        target = max(target, SafetyState.SLOW)
        state.unlocalized_hold -= 1

    if target is not state.state:
        events.append(
            ZoneEvent(
                index,
                ZoneEventKind.STATE_CHANGED,
                from_state=state.state,
                to_state=target,
            )
        )
        state.state = target
    return target, events


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"{count} is not positive")
    return count


def _zone_class(text: str) -> ZoneClass:
    try:
        return ZoneClass(text.lower())
    except ValueError:
        raise ValueError(f"unknown zone class {text!r}") from None


# zone-file keys and how to convert their values
_ZONE_KEYS = {q.name.lower(): _zone_class for q in QuadrantId}
_ZONE_KEYS.update(debounce=_count, clear=_count)


def parse_zone_config(text: str) -> ZoneConfig:
    """Parse zone configuration text: one `Qn=ignore|warning|critical` per
    line, optional `debounce=<int>` and `clear=<int>` lines, in the
    settings-file syntax of `read_settings`. Quadrants not mentioned
    default to Ignore."""
    settings = read_settings(text, _ZONE_KEYS, error=ZoneConfigError)
    default = ZoneConfig()
    return ZoneConfig(
        {q: settings.get(q.name.lower(), ZoneClass.IGNORE) for q in QuadrantId},
        settings.get("debounce", default.debounce_frames),
        settings.get("clear", default.clear_frames),
    )
