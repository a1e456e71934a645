"""Differential tests: the per-frame hot path against the first release's
implementation of it, kept here as the reference.

The reference computes the same exact arithmetic the slow way: thresholds
re-derived from `Fraction(str(...))` on every call, four quadrant slice
sums, an int32-widened absolute difference, the byte-at-a-time PGM
header tokenizer and a P5 payload cast straight from the file bytes at
whatever offset the header leaves. Every result must be identical,
boundaries included.

The per-stream shortcuts of `detect` are checked the same way: the PGM
header parsed once per stream against a fresh parse per file, files read
with raw `os` calls against `open().read()`, the directory listing against
`pathlib` globbing, and the record and zone-event formatters against
`json.dumps`. The zone machine is checked frame by frame against a copy of
its dict-based version, for any rewrite of its per-frame Python.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermal_sentry import frame as frame_module
from thermal_sentry.cli import event_line, record_line
from thermal_sentry.frame import (
    QUADRANTS,
    PgmError,
    QuadrantId,
    ThermalFrame,
    _parse_header,
    load_pgm,
    replay_dir,
)
from thermal_sentry.hybrid import Detection
from thermal_sentry.motion import MotionConfig, MotionResult, MotionState, motion_step
from thermal_sentry.roi import RoiConfig, RoiResult, roi_analyze
from thermal_sentry.zones import (
    SafetyState,
    ZoneClass,
    ZoneConfig,
    ZoneEvent,
    ZoneEventKind,
    ZoneState,
    zone_update,
)

# ---------------------------------------------------------------- reference


def reference_roi_analyze(frame, config=None):
    cfg = config or RoiConfig()
    hw, hh = frame.width // 2, frame.height // 2
    # (x, y, width, height) of each quadrant, top-left first, row-major
    rects = {
        QuadrantId.Q0: (0, 0, hw, hh),
        QuadrantId.Q1: (hw, 0, hw, hh),
        QuadrantId.Q2: (0, hh, hw, hh),
        QuadrantId.Q3: (hw, hh, hw, hh),
    }
    quad_count = hw * hh

    sums = {}
    for qid, (x, y, width, height) in rects.items():
        view = frame.pixels[y : y + height, x : x + width]
        sums[qid] = int(view.sum(dtype=np.int64))
    total = sum(sums.values())

    ratio = Fraction(str(cfg.ratio))
    floor = cfg.min_quadrant_mean * quad_count
    flags = {
        qid: (4 * s > ratio * total) and (s >= floor) for qid, s in sums.items()
    }
    return RoiResult(
        frame_mean=total / (4 * quad_count),
        quadrant_means=tuple(sums[qid] / quad_count for qid in QuadrantId),
        flags=tuple(flags[qid] for qid in QuadrantId),
        any=any(flags.values()),
    )


def reference_required_active_count(fraction, pixel_count):
    if not isinstance(fraction, Fraction):
        fraction = Fraction(str(fraction))
    return math.ceil(fraction * pixel_count)


@dataclass
class ReferenceMotionState:
    config: MotionConfig
    background: ThermalFrame | None = None
    frames_since_update: int = 0


def reference_motion_step(state, frame):
    cfg = state.config
    required = reference_required_active_count(
        cfg.active_fraction, frame.width * frame.height
    )
    if state.background is None:
        state.background = frame
        state.frames_since_update = 0
        return MotionResult(
            movement=False,
            active_count=0,
            required_count=required,
            background_updated=True,
        )
    diff = np.abs(
        frame.pixels.astype(np.int32) - state.background.pixels.astype(np.int32)
    )
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
    return MotionResult(
        movement=movement,
        active_count=active,
        required_count=required,
        background_updated=not movement or forced,
        forced_refresh=forced,
    )


def reference_header_tokens(data):
    """First four whitespace-separated header tokens, skipping # comments,
    and the byte offset just past the last one."""
    tokens = []
    i, n = 0, len(data)
    while len(tokens) < 4:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        if i >= n:
            raise ValueError("truncated header")
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j] != ord("#"):
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def reference_p5_payload(data, offset, maxval):
    """P5 samples cast straight from the file bytes, 16-bit ones from
    whatever (often odd) offset the header leaves."""
    dtype = ">u2" if maxval > 255 else np.uint8
    return np.frombuffer(data, dtype=dtype, offset=offset).astype(np.uint16)


@dataclass
class ReferenceZoneState:
    """Mutable per-stream occupancy and state-machine memory."""

    state: SafetyState = SafetyState.RUN
    flag_streak: dict[QuadrantId, int] = field(
        default_factory=lambda: {q: 0 for q in QuadrantId}
    )
    clear_streak: dict[QuadrantId, int] = field(
        default_factory=lambda: {q: 0 for q in QuadrantId}
    )
    occupied: set[QuadrantId] = field(default_factory=set)
    unlocalized_hold: int = 0


def reference_zone_update(state, detection, config):
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

    target = SafetyState.RUN
    if any(config.zone_class[q] is ZoneClass.CRITICAL for q in state.occupied):
        target = SafetyState.STOP
    elif any(config.zone_class[q] is ZoneClass.WARNING for q in state.occupied):
        target = SafetyState.SLOW
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


# ---------------------------------------------------------------- helpers

even = st.integers(1, 8).map(lambda n: 2 * n)
# decimals as a person writes them (0.05, 1.2) and arbitrary floats
fractions = st.one_of(
    st.integers(1, 1000).map(lambda k: k / 1000),
    st.floats(min_value=1e-9, max_value=1.0, exclude_min=True),
)
# every ratio RoiConfig accepts: at 4 or more no quadrant could flag
ratios = st.one_of(
    st.integers(100, 399).map(lambda k: k / 100),
    st.floats(min_value=1.0, max_value=4.0, exclude_max=True),
)


def quadrants_to_frame(blocks, frame_index=0):
    """Frame from four (h, w) quadrant blocks in QuadrantId order."""
    top = np.hstack([blocks[0], blocks[1]])
    bottom = np.hstack([blocks[2], blocks[3]])
    pixels = np.vstack([top, bottom]).astype(np.uint16)
    return ThermalFrame(pixels.shape[1], pixels.shape[0], pixels, frame_index)


def block_with_sum(shape, total, rng):
    """Random uint16 block of the given shape whose pixels sum to `total`."""
    n = shape[0] * shape[1]
    assert 0 <= total <= n * 65535
    values = np.full(n, total // n, dtype=np.int64)
    values[: total % n] += 1
    # move counts between random pixel pairs; the sum is unchanged
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        step = int(rng.integers(0, 1 + min(values[i], 65535 - values[j])))
        values[i] -= step
        values[j] += step
    rng.shuffle(values)
    return values.reshape(shape)


@st.composite
def frame_streams(draw):
    """A short stream of same-sized frames: a random start, then each frame a
    random perturbation of the last, so diffs land on both sides of any
    threshold."""
    width, height = draw(even), draw(even)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    length = draw(st.integers(1, 8))
    spread = draw(st.sampled_from([3, 40, 65535]))
    high = draw(st.sampled_from([2, 100, 65536]))
    base = rng.integers(0, high, size=(height, width), dtype=np.int64)
    # one quadrant warmer than the rest, so that flags are raised too
    qy, qx = rng.integers(0, 2, size=2)
    base[qy * height // 2 :, qx * width // 2 :][: height // 2, : width // 2] += (
        rng.integers(0, high)
    )
    frames = []
    for t in range(length):
        step = rng.integers(-spread, spread + 1, size=(height, width))
        mask = rng.random((height, width)) < rng.random()
        base = np.clip(base + step * mask, 0, 65535)
        frames.append(ThermalFrame(width, height, base.astype(np.uint16), t))
    return frames


# ---------------------------------------------------------------- ROI


class TestRoiAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        frames=frame_streams(),
        ratio=ratios,
        floor=st.integers(0, 65535),
    )
    def test_random_frames_and_configs(self, frames, ratio, floor):
        cfg = RoiConfig(ratio=ratio, min_quadrant_mean=floor)
        for frame in frames:
            assert roi_analyze(frame, cfg) == reference_roi_analyze(frame, cfg)
            assert roi_analyze(frame) == reference_roi_analyze(frame)

    @settings(max_examples=120, deadline=None)
    @given(
        hh=st.integers(1, 12),
        hw=st.integers(1, 12),
        k=st.integers(1, 10**6),
        shares=st.tuples(*[st.integers(0, 100)] * 3),
        nudge=st.sampled_from([-1, 0, 1]),
        hot=st.sampled_from(list(QuadrantId)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ratio_equality_boundary(self, hh, hw, k, shares, nudge, hot, seed):
        # With sum_q = 3k + nudge and the other three summing to 7k, F is
        # 10k + nudge and 4 * sum_q > 1.2 * F reduces to nudge > 0: nudge 0
        # is exact equality, which the strict rule must not flag.
        n = hh * hw
        k = 1 + k % (n * 65535 // 7)  # every quadrant sum fits in n pixels
        weight = sum(shares) or 1
        others = [7 * k * s // weight for s in shares]
        others[0] += 7 * k - sum(others)
        sums = others[:hot] + [3 * k + nudge] + others[hot:]
        rng = np.random.default_rng(seed)
        frame = quadrants_to_frame([block_with_sum((hh, hw), s, rng) for s in sums])
        got = roi_analyze(frame)
        assert got == reference_roi_analyze(frame)
        if nudge == 0:
            assert 4 * sums[hot] == Fraction("1.2") * sum(sums)
        assert got.flags[hot] is (nudge > 0 and sums[hot] >= n)


# ---------------------------------------------------------------- motion


class TestMotionAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        frames=frame_streams(),
        delta=st.integers(1, 65535),
        fraction=fractions,
        hold=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_random_streams_and_configs(self, frames, delta, fraction, hold):
        cfg = MotionConfig(
            active_pixel_delta=delta, active_fraction=fraction, max_hold_frames=hold
        )
        state, ref = MotionState(cfg), ReferenceMotionState(cfg)
        for frame in frames:
            assert motion_step(state, frame) == reference_motion_step(ref, frame)
            assert state.background is ref.background
            assert state.frames_since_update == ref.frames_since_update

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.sampled_from([958, 959, 960, 961]),
        base=st.integers(2100, 63000),
        delta=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_960_vs_959_active_pixels_at_160x120(self, count, base, delta, seed):
        # exactly `count` pixels differ from the background by delta to
        # delta + 2, up or down; every other pixel by less than delta
        rng = np.random.default_rng(seed)
        background = np.full(120 * 160, base, dtype=np.int64)
        frame = background + rng.integers(0, delta, size=background.size)
        hit = rng.permutation(background.size)[:count]
        sign = rng.choice([-1, 1], size=count)
        frame[hit] = base + sign * (delta + rng.integers(0, 3, size=count))
        stream = [
            ThermalFrame(160, 120, background.reshape(120, 160), 0),
            ThermalFrame(160, 120, frame.reshape(120, 160), 1),
        ]
        cfg = MotionConfig(active_pixel_delta=delta)
        state, ref = MotionState(cfg), ReferenceMotionState(cfg)
        for f in stream:
            got = motion_step(state, f)
            assert got == reference_motion_step(ref, f)
        assert got.required_count == 960
        assert got.active_count == count
        assert got.movement is (count >= 960)


# ---------------------------------------------------------------- zone machine


class TestZoneUpdateAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        # runs of one flag tuple and movement bit, so that streaks reach the
        # debounce and clear counts
        runs=st.lists(
            st.tuples(st.tuples(*[st.booleans()] * 4), st.booleans(), st.integers(1, 5)),
            min_size=1,
            max_size=20,
        ),
        debounce=st.integers(1, 4),
        clear=st.integers(1, 4),
        classes=st.tuples(*[st.sampled_from(list(ZoneClass))] * 4),
        # the stream switches to a second config at this frame, with its
        # quadrants still occupied: the state must follow the config in force
        later_classes=st.tuples(*[st.sampled_from(list(ZoneClass))] * 4),
        switch_at=st.integers(0, 60),
    )
    def test_state_and_events_frame_by_frame(
        self, runs, debounce, clear, classes, later_classes, switch_at
    ):
        configs = [ZoneConfig(dict(zip(QuadrantId, c)), debounce, clear)
                   for c in (classes, later_classes)]
        state, reference = ZoneState(), ReferenceZoneState()
        stream = [(flags, movement) for flags, movement, n in runs for _ in range(n)]
        for index, (flags, movement) in enumerate(stream):
            config = configs[index >= switch_at]
            roi = RoiResult(0.0, (0.0, 0.0, 0.0, 0.0), flags, any(flags))
            motion = MotionResult(movement, 0, 1, not movement)
            detection = Detection(index, roi.any or movement, 1.0, motion, roi)
            got, events = zone_update(state, detection, config)
            expected, expected_events = reference_zone_update(reference, detection, config)
            assert got is expected
            assert events == expected_events
            assert state.state is reference.state
            # one count per quadrant: the reference's streak that can toggle it
            for q in QuadrantId:
                if q in reference.occupied:
                    assert state.pending[q] == reference.clear_streak[q]
                else:
                    assert state.pending[q] == reference.flag_streak[q]
            assert state.occupied == reference.occupied
            assert state.unlocalized_hold == reference.unlocalized_hold


# ---------------------------------------------------------------- PGM header

whitespace = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
comments = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
separators = st.lists(st.one_of(whitespace, comments), min_size=1, max_size=4).map(
    b"".join
)
# leading zeros included: "007" is a valid token for 7
digit_tokens = st.tuples(st.integers(0, 2), st.integers(0, 10**7)).map(
    lambda z: b"0" * z[0] + str(z[1]).encode()
)


class TestHeaderAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        magic=st.sampled_from([b"P2", b"P5"]),
        seps=st.tuples(separators, separators, separators),
        numbers=st.tuples(digit_tokens, digit_tokens, digit_tokens),
        tail=st.one_of(
            st.just(b""),
            st.tuples(st.one_of(whitespace, st.just(b"#")), st.binary(max_size=16)).map(
                b"".join
            ),
        ),
    )
    def test_digit_only_headers_give_the_same_tokens(self, magic, seps, numbers, tail):
        data = magic + b"".join(s + n for s, n in zip(seps, numbers)) + tail
        tokens, pos = reference_header_tokens(data)
        expected = (tokens[0], *(int(t) for t in tokens[1:]), pos)
        assert _parse_header("h.pgm", data) == expected


# ---------------------------------------------------------------- P5 payload


@st.composite
def p5_files(draw):
    """A P5 file behind a header padded with whitespace and comments, its
    payload starting at an odd or an even offset, and the pixels it holds."""
    width, height = draw(even), draw(even)
    maxval = draw(
        st.one_of(
            st.sampled_from([1, 255, 256, 65534, 65535]), st.integers(1, 65535)
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    pixels = np.random.default_rng(seed).integers(
        0, maxval + 1, size=(height, width), dtype=np.uint16
    )
    seps = draw(st.tuples(separators, separators, separators))
    header = b"P5" + b"".join(
        sep + str(n).encode() for sep, n in zip(seps, (width, height, maxval))
    )
    header += draw(whitespace)  # the single byte that ends the header
    if len(header) % 2 != draw(st.integers(0, 1)):
        header = b"P5 " + header[2:]  # one more byte of padding
    payload = pixels.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    return header, payload, maxval, pixels


class TestP5PayloadAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(p5=p5_files())
    def test_padded_headers_decode_to_the_same_pixels(self, tmp_path_factory, p5):
        header, payload, maxval, pixels = p5
        path = tmp_path_factory.mktemp("p5") / "frame.pgm"
        path.write_bytes(header + payload)
        frame = load_pgm(path)
        expected = reference_p5_payload(header + payload, len(header), maxval)
        assert frame.pixels.dtype == np.uint16
        assert np.array_equal(frame.pixels.ravel(), expected)
        assert np.array_equal(frame.pixels, pixels)
        if maxval > 255:
            direct = np.frombuffer(payload, ">u2").astype(np.uint16)
            assert np.array_equal(frame.pixels.ravel(), direct)

    @settings(max_examples=60, deadline=None)
    @given(p5=p5_files(), at=st.integers(0, 2**16))
    def test_every_check_still_applies(self, tmp_path_factory, p5, at):
        header, payload, maxval, _ = p5
        path = tmp_path_factory.mktemp("p5") / "frame.pgm"
        itemsize = 2 if maxval > 255 else 1
        # one sample above maxval, where the sample size can hold one
        if maxval not in (255, 65535):
            samples = bytearray(payload)
            i = at % (len(payload) // itemsize) * itemsize
            samples[i : i + itemsize] = (maxval + 1).to_bytes(itemsize, "big")
            path.write_bytes(header + bytes(samples))
            with pytest.raises(PgmError, match="exceeds maxval"):
                load_pgm(path)
        # one payload byte short, and one too many
        for data in (header + payload[:-1], header + payload + b"\0"):
            path.write_bytes(data)
            with pytest.raises(PgmError, match="payload bytes"):
                load_pgm(path)
        # no whitespace between maxval and the payload
        path.write_bytes(header[:-1] + b"7" + payload)
        with pytest.raises(PgmError):
            load_pgm(path)


# ---------------------------------------------------------------- ROI accumulator


def frame_of(height, width, fill):
    """Frame whose pixels are 65535 where `fill(rows, cols)` holds, else 0."""
    rows, cols = np.indices((height, width))
    pixels = np.where(fill(rows, cols, height, width), 65535, 0).astype(np.uint16)
    return ThermalFrame(width, height, pixels)


FILLS = {
    "all": lambda r, c, h, w: np.ones_like(r, dtype=bool),
    "top-half": lambda r, c, h, w: r < h // 2,
    "Q3": lambda r, c, h, w: (r >= h // 2) & (c >= w // 2),
    "left-column": lambda r, c, h, w: c == 0,
}


class TestRoiAccumulatorAgainstReference:
    @pytest.mark.parametrize("fill", FILLS)
    def test_saturated_640x480(self, fill):
        frame = frame_of(480, 640, FILLS[fill])
        assert roi_analyze(frame) == reference_roi_analyze(frame)

    # a 2-wide frame with half-height hh has column sums of hh * 65535:
    # 65537 is the tallest that fits uint32 (exactly 2**32 - 1), 65538 the
    # first that needs uint64
    @pytest.mark.parametrize("hh", [65537, 65538])
    @pytest.mark.parametrize("fill", FILLS)
    def test_column_sums_at_the_uint32_limit(self, hh, fill):
        if hh == 65537:
            assert hh * 65535 == 2**32 - 1
        frame = frame_of(2 * hh, 2, FILLS[fill])
        got = roi_analyze(frame)
        assert got == reference_roi_analyze(frame)
        if fill == "all":
            assert got.quadrant_means == (65535.0, 65535.0, 65535.0, 65535.0)


# ---------------------------------------------------------------- header memo


def load_outcome(path):
    """What loading a file gives: its dimensions and pixels, or the error."""
    try:
        frame = load_pgm(path)
    except PgmError as exc:
        return str(exc)
    return frame.width, frame.height, frame.pixels.tobytes()


# Few choices per header piece, so that files in a sequence often share
# leading bytes: one header before another payload, a maxval that is a
# prefix of another ("6553" of "65535"), a header cut short.
header_starts = st.tuples(
    st.sampled_from([b"P2", b"P5"]),
    st.sampled_from([b" ", b"\n", b"#c\n"]),
    st.sampled_from([b"2", b"4", b"3"]),
    st.sampled_from([b" ", b"\t", b" #x\n "]),
    st.sampled_from([b"2", b"4"]),
    st.sampled_from([b"\n", b"  "]),
).map(b"".join)
maxval_tokens = st.sampled_from(
    [b"0", b"1", b"15", b"255", b"2550", b"256", b"6553", b"65535", b"65536", b"007"]
)
after_maxval = st.sampled_from([b"\n", b" ", b"\r", b"#", b"#c\n", b"7", b""])


@st.composite
def pgm_sequences(draw):
    """A stream of P2/P5 files drawn from up to three header starts, with
    payloads that fit their header, or break one of its checks, or stop
    short."""
    starts = draw(st.lists(header_starts, min_size=1, max_size=3))
    files = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.sampled_from(starts))
        maxval_token = draw(maxval_tokens)
        header = start + maxval_token + draw(after_maxval)
        magic, maxval = start[:2], int(maxval_token)
        count = 2 * 4  # the payload fits a 2x4 or 4x2 header, not others
        # now and then one sample above maxval
        samples = draw(st.lists(st.integers(0, min(maxval + 1, 65535)),
                                min_size=count, max_size=count))
        if magic == b"P5":
            itemsize = 2 if maxval > 255 else 1
            payload = b"".join(
                min(s, 256**itemsize - 1).to_bytes(itemsize, "big") for s in samples
            )
        else:
            payload = b" ".join(b"%d" % s for s in samples) + b"\n"
        data = header + payload
        cut = draw(st.integers(0, 5))
        if cut == 0:  # the file ends right after maxval
            data = start + maxval_token
        elif cut == 1:
            data = data[: draw(st.integers(0, len(data)))]
        files.append(data)
    return files


class TestHeaderMemoAgainstFreshParse:
    @settings(max_examples=200, deadline=None)
    @given(files=pgm_sequences())
    # a file that ends right after maxval, then a valid file it is a prefix of
    @example(files=[b"P5\n2 2\n6553", b"P5\n2 2\n65535\n" + bytes(8)])
    @example(files=[b"P2 2 2 255\n1 2 3 4\n", b"P2 2 2 2550\n1 2 3 4\n"])
    def test_a_stream_loads_as_files_parsed_one_by_one(self, tmp_path_factory, files):
        directory = tmp_path_factory.mktemp("memo")
        paths = []
        for i, data in enumerate(files):
            paths.append(directory / f"{i}.pgm")
            paths[-1].write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frame_module, "_last_header", None)
            in_order = [load_outcome(path) for path in paths]
            fresh = []
            for path in paths:
                patch.setattr(frame_module, "_last_header", None)
                fresh.append(load_outcome(path))
        assert in_order == fresh


# ---------------------------------------------------------------- read path


def reference_read(path):
    """How `load_pgm` read a file before it used raw `os` calls."""
    with open(path, "rb") as fh:
        return fh.read()


def read_outcome(path):
    """What loading a file gives, down to the exception's type and message."""
    try:
        frame = load_pgm(path)
    except Exception as exc:
        return type(exc), str(exc)
    return frame.width, frame.height, frame.pixels.tobytes()


def pgm_bytes(magic, width, height, maxval, seed):
    samples = np.random.default_rng(seed).integers(0, maxval + 1, width * height)
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    if magic == b"P5":
        return header + samples.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    return header + b" ".join(b"%d" % s for s in samples.tolist()) + b"\n"


# How a file's length differs from a whole one of its header. P2 allows
# trailing whitespace, so there a longer file still decodes.
LENGTH_CHANGES = {
    "whole": lambda data: data,
    "one byte short": lambda data: data[:-1],
    "one byte long": lambda data: data + b"\n",
    "chunks long": lambda data: data + b" " * (2 * frame_module._READ_CHUNK + 3),
    "empty": lambda data: b"",
}


@st.composite
def read_streams(draw):
    """A stream of 8- and 16-bit P5 and P2 files whose headers change now and
    then, each as long as the last one or shorter or longer, by one byte and
    by more than a read chunk (a 256x160 16-bit P5 file after a small one)."""
    files = []
    for _ in range(draw(st.integers(1, 6))):
        magic = draw(st.sampled_from([b"P5", b"P2"]))
        maxval = draw(st.sampled_from([255, 65535]))
        width, height = draw(st.sampled_from([(4, 2), (2, 4), (6, 4), (256, 160)]))
        data = pgm_bytes(magic, width, height, maxval, draw(st.integers(0, 2**16)))
        files.append(LENGTH_CHANGES[draw(st.sampled_from(sorted(LENGTH_CHANGES)))](data))
    return files


def outcomes_through_one_memo(paths, read):
    """Each path's outcome, loaded in order through one header memo, and read
    with `read` in place of `_read_file` unless it is None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frame_module, "_last_header", None)
        if read is not None:
            patch.setattr(frame_module, "_read_file", read)
        return [read_outcome(path) for path in paths]


small = pgm_bytes(b"P5", 4, 2, 65535, 1)


class TestReadPathAgainstOpenRead:
    @settings(max_examples=60, deadline=None)
    @given(files=read_streams())
    @example(files=[small, small, small[:-1], small, small + b"\0", small])
    @example(files=[small, pgm_bytes(b"P5", 256, 160, 65535, 2), small])
    @example(files=[pgm_bytes(b"P2", 4, 2, 255, 3),
                    pgm_bytes(b"P2", 4, 2, 255, 3) + b" " * (3 * 2**16), small])
    @example(files=[pgm_bytes(b"P5", 6, 4, 255, 4), b"", pgm_bytes(b"P2", 6, 4, 65535, 5)])
    def test_a_stream_decodes_as_open_read_decodes_it(self, tmp_path_factory, files):
        directory = tmp_path_factory.mktemp("read")
        paths = [directory / f"{i}.pgm" for i in range(len(files))]
        for path, data in zip(paths, files):
            path.write_bytes(data)
        expected = outcomes_through_one_memo(paths, reference_read)
        assert outcomes_through_one_memo(paths, None) == expected

    @pytest.mark.parametrize("memo", [False, True], ids=["first file", "after a file"])
    @pytest.mark.parametrize("spelling", [str, Path], ids=["str", "Path"])
    def test_missing_file_and_directory_give_open_errors(self, tmp_path, memo, spelling):
        (tmp_path / "frame.pgm").write_bytes(small)
        (tmp_path / "dir.pgm").mkdir()
        first = [spelling(tmp_path / "frame.pgm")] if memo else []
        for argument in (tmp_path / "absent.pgm", tmp_path / "dir.pgm"):
            paths = first + [spelling(argument)]
            got = outcomes_through_one_memo(paths, None)
            assert got == outcomes_through_one_memo(paths, reference_read)
            assert issubclass(got[-1][0], OSError)
        assert got[-1] == (IsADirectoryError,
                           f"[Errno 21] Is a directory: '{tmp_path / 'dir.pgm'}'")


# ---------------------------------------------------------------- listing


def reference_glob_listing(path):
    """The files `replay_dir` read when it listed with pathlib."""
    directory = Path(path)
    return [str(p) for p in sorted(directory.glob("*.pgm"), key=lambda file: file.name)]


def listed_by_replay_dir(path):
    """The files `replay_dir` opens, in order, without decoding them."""
    opened = []

    def fake_load(file, *, frame_index=0):
        opened.append(str(file))
        return ThermalFrame(2, 2, np.zeros((2, 2), np.uint16), frame_index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frame_module, "load_pgm", fake_load)
        for _ in replay_dir(path):
            pass
    return opened


def touch(directory, name):
    """Create the empty file `name`, given as bytes: a non-ASCII name stays
    the same file in every locale, where a str name cannot be encoded under
    LC_ALL=C."""
    os.close(os.open(os.fsencode(directory) + b"/" + name, os.O_CREAT | os.O_WRONLY))


class TestListingAgainstGlob:
    NAMES = [
        "frame_000002.pgm", "frame_000010.pgm", "frame_000001.pgm", ".hidden.pgm",
        ".pgm", "UPPER.PGM", "mixed.Pgm", "größe.pgm", "日本.pgm", "Ω.pgm",
        "a b.pgm", "[x].pgm", "frame.pgm.bak", "notes.txt", "pgm", "-1.pgm",
    ]

    @pytest.fixture
    def directory(self, tmp_path):
        root = tmp_path / "frames"
        root.mkdir()
        for name in self.NAMES:
            touch(root, name.encode("utf-8"))
        (root / "d.pgm").mkdir()  # a directory whose name matches
        (root / "sub").mkdir()
        (root / "sub" / "nested.pgm").write_bytes(b"")
        (root / "broken.pgm").symlink_to(root / "absent")
        touch(root, b"\xff.pgm")  # a name that is not valid UTF-8
        return root

    def test_same_files_in_the_same_order(self, directory):
        expected = reference_glob_listing(directory)
        assert len(expected) >= 1
        assert listed_by_replay_dir(directory) == expected

    def test_every_spelling_of_the_directory(self, monkeypatch, directory):
        monkeypatch.chdir(directory.parent)
        for spelling in (directory, str(directory), f"{directory}/", f"{directory}//",
                         "frames", "./frames/", "frames/../frames"):
            expected = reference_glob_listing(spelling)
            assert listed_by_replay_dir(spelling) == expected, spelling

    @settings(max_examples=100, deadline=None)
    @given(names=st.sets(st.text(alphabet="pgmPGM.a_[]é", min_size=1, max_size=6),
                         max_size=12))
    def test_random_names(self, tmp_path_factory, names):
        root = tmp_path_factory.mktemp("names")
        for name in names - {".", ".."}:
            touch(root, name.encode("utf-8"))
        expected = reference_glob_listing(root)
        assert listed_by_replay_dir(root) == expected


# ---------------------------------------------------------------- records


def reference_record_line(frame, verdict, movement, active_count, means, flags,
                          state, elapsed_us):
    """The record as `detect` built it and `json.dumps` wrote it."""
    return json.dumps({
        "frame": frame,
        "verdict": verdict,
        "movement": movement,
        "active_count": active_count,
        "quadrant_means": {q.name: round(means[q], 3) for q in QUADRANTS},
        "flags": {q.name: flags[q] for q in QUADRANTS},
        "state": state,
        "elapsed_us": round(elapsed_us, 3),
    }) + "\n"


# floats whose rounding or repr is easy to get wrong; the formatter writes
# fixed-point text inside +-1e12 and falls back to round() + repr outside,
# where a 3-decimal value can need more digits than repr gives it
# (-9127324436400.11 is -9127324436400.109 in fixed point)
BOUND = 1e12
record_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, 5e-324, 1e16, 1.5e16, 1e22, 0.1 + 0.2, 2.675,
                     1.0005, 0.0005, 0.0015, 123.4565, 9.9995, 65535.0, 4.5e-4,
                     BOUND, -BOUND, math.nextafter(BOUND, 0), math.nextafter(BOUND, math.inf),
                     math.nextafter(-BOUND, 0), math.nextafter(-BOUND, -math.inf),
                     999999999999.9995, -999999999999.9995, 2.0**42, 2.0**43,
                     -9127324436400.11, -2.675, -0.0005, -0.0015, -1.0005, -123.4565]),
    st.integers(-10**7, 10**7).map(lambda k: k / 1000 + 0.0005),
    st.integers(0, 65535 * 10**4).map(lambda k: k / 10**4),
    st.floats(min_value=-2 * BOUND, max_value=2 * BOUND),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
)


# the state names the NDJSON records carry, spelled out rather than taken
# from SafetyState.label, the code under test
STATE_NAMES = {
    SafetyState.RUN: "Run", SafetyState.SLOW: "Slow", SafetyState.STOP: "Stop", None: None,
}


class TestRecordLineAgainstJson:
    @settings(max_examples=400, deadline=None)
    @given(
        frame=st.one_of(st.just(0), st.integers(0, 10**6), st.integers(0, 2**70)),
        verdict=st.booleans(),
        movement=st.booleans(),
        active_count=st.integers(0, 2**40),
        means=st.tuples(*[record_floats] * 4),
        flags=st.tuples(*[st.booleans()] * 4),
        state=st.sampled_from(list(SafetyState)),
        elapsed_us=record_floats,
    )
    def test_byte_equal_to_json_dumps(self, frame, verdict, movement, active_count, means,
                                      flags, state, elapsed_us):
        motion = MotionResult(movement, active_count, 1, not movement)
        roi = RoiResult(0.0, means, flags, any(flags))
        detection = Detection(frame, verdict, elapsed_us, motion, roi)
        assert record_line(detection, state) == reference_record_line(
            frame, verdict, movement, active_count, means, flags, STATE_NAMES[state],
            elapsed_us)


def reference_event_line(event):
    """The zone event as `detect` built it and `json.dumps` wrote it."""
    return json.dumps({
        "frame": event.frame_index,
        "event": event.kind.value,
        "quadrant": event.quadrant.name if event.quadrant is not None else None,
        "from_state": STATE_NAMES[event.from_state],
        "to_state": STATE_NAMES[event.to_state],
    }) + "\n"


class TestEventLineAgainstJson:
    def test_byte_equal_to_json_dumps(self):
        # Q0 and Run are falsy; None must still be null, not dropped
        quadrants = [*QuadrantId, None]
        states = [*SafetyState, None]
        cases = itertools.product([0, 1, 2**70], ZoneEventKind, quadrants, states, states)
        for frame_index, kind, quadrant, before, after in cases:
            event = ZoneEvent(frame_index, kind, quadrant, before, after)
            assert event_line(event) == reference_event_line(event), event
