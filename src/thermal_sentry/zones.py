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

from collections import namedtuple
from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .frame import QUADRANTS, CheckedRecord, QuadrantId
from .hybrid import Detection
from .keyvalue import checked, read_settings


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
        # frame counts: 2.5 would act as 3 frames and True as 1
        debounce, clear = self.debounce_frames, self.clear_frames
        if isinstance(debounce, bool) or not isinstance(debounce, int) or debounce < 1:
            raise ValueError("debounce_frames must be an int >= 1")
        if isinstance(clear, bool) or not isinstance(clear, int) or clear < 1:
            raise ValueError("clear_frames must be an int >= 1")
        return self


class ZoneState:
    """Mutable per-stream occupancy and state-machine memory; `pending[q]`
    counts the frames in a row whose flag disagrees with q's occupancy."""

    __slots__ = ("state", "pending", "occupied", "unlocalized_hold", "demand", "demand_classes")

    def __init__(self) -> None:
        self.state = SafetyState.RUN
        self.pending = [0, 0, 0, 0]
        self.occupied: set[QuadrantId] = set()
        self.unlocalized_hold = 0
        # the state the occupied quadrants demand under the `zone_class`
        # mapping `demand_classes`; it changes only when occupancy does
        self.demand = SafetyState.RUN
        self.demand_classes: Mapping[QuadrantId, ZoneClass] | None = None


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
    pending, occupied = state.pending, state.occupied

    for q, flagged in zip(QUADRANTS, roi.flags):
        if flagged == (q in occupied):
            pending[q] = 0
            continue
        pending[q] += 1
        if pending[q] >= (config.debounce_frames if flagged else config.clear_frames):
            pending[q] = 0
            if flagged:
                occupied.add(q)
                events.append(ZoneEvent(index, ZoneEventKind.ENTERED, quadrant=q))
            else:
                occupied.discard(q)
                events.append(ZoneEvent(index, ZoneEventKind.CLEARED, quadrant=q))

    if detection.verdict and not roi.any:
        # movement with no quadrant to localize: hold at least Slow for one
        # debounce window starting at this frame
        state.unlocalized_hold = config.debounce_frames

    # `events` holds only quadrant transitions so far; without one the demand
    # stands unless the classes changed (each ZoneConfig owns a read-only
    # copy, so the same object holds the same classes)
    classes = config.zone_class
    if events or classes is not state.demand_classes:
        state.demand = max((_DEMAND[classes[q]] for q in occupied), default=SafetyState.RUN)
        state.demand_classes = classes
    target = state.demand
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


def _zone_class(text: str) -> ZoneClass:
    try:
        return ZoneClass(text.lower())
    except ValueError:
        raise ValueError(f"unknown zone class {text!r}") from None


_COUNT_FIELDS = {"debounce": "debounce_frames", "clear": "clear_frames"}
# zone-file keys and how to convert their values
_ZONE_KEYS = {q.name.lower(): _zone_class for q in QuadrantId}
_ZONE_KEYS.update({key: checked(int, ZoneConfig, field) for key, field in _COUNT_FIELDS.items()})


def parse_zone_config(text: str) -> ZoneConfig:
    """Parse zone configuration text: one `Qn=ignore|warning|critical` per
    line, optional `debounce=<int>` and `clear=<int>` lines, in the
    settings-file syntax of `read_settings`. Quadrants not mentioned
    default to Ignore."""
    settings = read_settings(text, _ZONE_KEYS, error=ZoneConfigError)
    classes = {q: settings.pop(q.name.lower(), ZoneClass.IGNORE) for q in QuadrantId}
    return ZoneConfig(classes, **{_COUNT_FIELDS[key]: value for key, value in settings.items()})
