"""Quadrant zone classes and the safety state machine.

Each quadrant is classed Ignore, Warning or Critical. Debounced quadrant
occupancy drives a three-state machine ordered Run < Slow < Stop: any
occupied Critical quadrant demands Stop, otherwise any occupied Warning
quadrant demands Slow. A positive detection without quadrant localization
(movement only) holds the state at Slow for one debounce window, never
Stop, because there is no quadrant to blame.

Occupancy is debounced in both directions: a quadrant must be flagged for
`debounce` consecutive frames to count as occupied, and must then be
flag-free for `clear` consecutive frames to release. At the paper's class
of capture rates (a few frames per second) this suppresses single-frame
chatter without adding meaningful reaction delay.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Mapping

from .frame import QUADRANTS, CheckedRecord, QuadrantId, check_count
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


class ZoneEvent(CheckedRecord, namedtuple(
    "ZoneEvent", "frame_index kind quadrant from_state to_state"
)):
    """A transition at the frame numbered `frame_index`, an int >= 0."""

    __slots__ = ()

    def __new__(cls, frame_index: int, kind: ZoneEventKind, quadrant: QuadrantId | None = None,
                from_state: SafetyState | None = None, to_state: SafetyState | None = None):
        check_count("frame_index", frame_index, 0)
        return super().__new__(cls, frame_index, kind, quadrant, from_state, to_state)


class ZoneConfigError(ValueError):
    """Raised for unparseable zone configuration text."""


_ALL_IGNORE = MappingProxyType(dict.fromkeys(QUADRANTS, ZoneClass.IGNORE))


class ZoneConfig(CheckedRecord, namedtuple("ZoneConfig", "zone_class debounce clear")):
    """`zone_class` is kept as a read-only copy: a later change to the
    caller's mapping cannot get past the checks."""

    __slots__ = ()

    def __new__(cls, zone_class: Mapping[QuadrantId, ZoneClass] = _ALL_IGNORE,
                debounce: int = 3, clear: int = 3):
        zone_class = MappingProxyType(dict(zone_class))
        self = super().__new__(cls, zone_class, debounce, clear)
        if set(self.zone_class) != set(QuadrantId):
            raise ValueError("zone_class must map every quadrant")
        # a plain "critical" string would never demand Stop
        if not all(isinstance(c, ZoneClass) for c in self.zone_class.values()):
            raise ValueError("zone_class values must be ZoneClass members")
        # frame counts: 2.5 would act as 3 frames and True as 1
        check_count("debounce", self.debounce, 1)
        check_count("clear", self.clear, 1)
        return self


class ZoneState:
    """Mutable per-stream occupancy and state-machine memory under one
    `ZoneConfig`, kept from construction on; `pending[q]` counts the frames
    in a row whose flag disagrees with q's occupancy."""

    __slots__ = ("_config", "_quadrant_demand", "state", "pending", "occupied", "unlocalized_hold",
                 "demand")

    def __init__(self, config: ZoneConfig = ZoneConfig()) -> None:
        self._config = config
        # the state each quadrant demands while occupied, in quadrant order
        self._quadrant_demand = tuple(_DEMAND[config.zone_class[q]] for q in QUADRANTS)
        self.state = SafetyState.RUN
        self.pending = [0, 0, 0, 0]
        self.occupied: set[QuadrantId] = set()
        self.unlocalized_hold = 0
        self.demand = SafetyState.RUN  # what `occupied` demands; moves only with it

    # read-only, so the demand tuple always matches the config
    config = property(lambda self: self._config)
    quadrant_demand = property(lambda self: self._quadrant_demand)


def zone_update(state: ZoneState, frame_index: int, flags: tuple[bool, ...],
                verdict: bool) -> tuple[SafetyState, list[ZoneEvent]]:
    """Advance occupancy and the safety state by one frame, mutating `state`.

    `flags` are the frame's quadrant flags in quadrant order and `verdict`
    its presence verdict; a positive verdict with no flag set is movement
    that no quadrant localizes. Returns the state in force after this frame
    plus the events emitted for it (quadrant transitions first, then the
    state change, if any).
    """
    config = state._config
    events: list[ZoneEvent] = []
    pending, occupied = state.pending, state.occupied

    for q, flagged in zip(QUADRANTS, flags, strict=True):  # 3 or 5 flags raise
        if flagged == (q in occupied):
            pending[q] = 0
            continue
        pending[q] += 1
        if pending[q] >= (config.debounce if flagged else config.clear):
            pending[q] = 0
            if flagged:
                occupied.add(q)
                events.append(ZoneEvent(frame_index, ZoneEventKind.ENTERED, quadrant=q))
            else:
                occupied.discard(q)
                events.append(ZoneEvent(frame_index, ZoneEventKind.CLEARED, quadrant=q))

    if verdict and not any(flags):
        # movement with no quadrant to localize: hold at least Slow for one
        # debounce window starting at this frame
        state.unlocalized_hold = config.debounce

    # `events` holds only quadrant transitions so far: none, no new demand
    if events:
        demand = state._quadrant_demand
        state.demand = max((demand[q] for q in occupied), default=SafetyState.RUN)
    target = state.demand
    if state.unlocalized_hold > 0:
        target = max(target, SafetyState.SLOW)
        state.unlocalized_hold -= 1

    if target is not state.state:
        events.append(ZoneEvent(frame_index, ZoneEventKind.STATE_CHANGED,
                                from_state=state.state, to_state=target))
        state.state = target
    return target, events


def _zone_class(text: str) -> ZoneClass:
    try:
        return ZoneClass(text.lower())
    except ValueError:
        raise ValueError(f"unknown zone class {text!r}") from None


# zone-file keys and how to convert their values
_ZONE_KEYS = {q.name.lower(): _zone_class for q in QuadrantId}
_ZONE_KEYS.update({key: checked(int, ZoneConfig, key) for key in ("debounce", "clear")})


def parse_zone_config(text: str) -> ZoneConfig:
    """Parse zone configuration text: one `Qn=ignore|warning|critical` per
    line, optional `debounce=<int>` and `clear=<int>` lines, in the
    settings-file syntax of `read_settings`. Quadrants not mentioned
    default to Ignore."""
    settings = read_settings(text, _ZONE_KEYS, error=ZoneConfigError)
    classes = {q: settings.pop(q.name.lower(), ZoneClass.IGNORE) for q in QuadrantId}
    return ZoneConfig(classes, **settings)
