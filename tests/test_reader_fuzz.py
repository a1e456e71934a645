"""Fuzz tests of the four text readers: config, zone, scene and labels files.

Each reader must either return a value or raise its documented error, whose
message the command line prints with exit code 2; any other exception would
escape as a traceback. Lines mix the reader's own keys and values with
arbitrary text, so that generated files get past the first check.

Keys are drawn from a few names, so a file often sets one key twice. A
reader that returns a value must then have seen no key twice (`blob=` in a
scene excepted): a later line that silently overrides an earlier one is an
error nobody sees.
"""

import csv
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermal_sentry.cli import _CONFIG_KEYS, _parse_file, parse_config
from thermal_sentry.evaluate import DatasetError, GroundTruthLabel, read_labels
from thermal_sentry.frame import QuadrantId
from thermal_sentry.synth import SceneError, SceneSpec, parse_scene
from thermal_sentry.zones import ZoneConfig, ZoneConfigError, parse_zone_config

junk = st.text(max_size=12)
numbers = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "007", "1.5", "1e3", "1e999", "-0",
                     "nan", "inf", "-inf", "+4", "1_0", "0x10", " 3 ", "", "٣"]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    junk,
)


def lines_of(*line_strategies):
    """Text of zero or more lines, each from one of the strategies, joined
    by the separators a file may use."""
    line = st.one_of(*line_strategies, junk)
    return st.tuples(
        st.lists(line, max_size=8), st.sampled_from(["\n", "\r\n", "\r"])
    ).map(lambda parts: parts[1].join(parts[0]))


def repeats_a_key(text, repeatable=()):
    """Whether two key=value lines of `text` set one key, spelled alike once
    a `#` comment is cut, the key stripped and lower-cased and `-` made `_`."""
    keys = []
    for line in text.splitlines():
        key, sep, _ = line.split("#", 1)[0].partition("=")
        key = key.strip().lower().replace("-", "_")
        if sep and key not in repeatable:
            keys.append(key)
    return len(keys) != len(set(keys))


def key_values(keys, values):
    return st.tuples(st.sampled_from(keys), st.sampled_from(["=", " = ", ":", ""]),
                     values).map("".join)


class TestConfigReader:
    @settings(max_examples=200, deadline=None)
    @given(text=lines_of(
        key_values(sorted(_CONFIG_KEYS) + ["roi-ratio", "mode", "MODE", "bogus"], numbers),
    ))
    @example(text="active_delta=5\nactive-delta=50")
    def test_returns_settings_or_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("config") / "sentry.conf"
        path.write_text(text, encoding="utf-8")
        try:
            settings_ = _parse_file(str(path), parse_config)
        except ValueError as exc:
            assert type(exc) is ValueError
            assert str(exc).startswith(f"{path}: line ")
            return
        assert set(settings_) <= set(_CONFIG_KEYS)
        assert not repeats_a_key(path.read_text(encoding="utf-8"))


class TestZoneReader:
    @settings(max_examples=200, deadline=None)
    @given(text=lines_of(
        key_values(["q0", "Q1", "q2", "q3", "q4", "debounce", "Debounce", "clear"],
                   st.one_of(numbers, st.sampled_from(
                       ["ignore", "warning", "CRITICAL", "stop"]))),
    ))
    @example(text="Q3=critical\nq3=ignore")
    @example(text="Debounce=2\ndebounce=3")
    def test_returns_config_or_zone_config_error(self, text):
        try:
            config = parse_zone_config(text)
        except ZoneConfigError as exc:
            assert str(exc).startswith("line ")
            return
        assert isinstance(config, ZoneConfig)
        assert not repeats_a_key(text)


waypoints = st.tuples(numbers, numbers, numbers).map(":".join)
blob_lines = st.tuples(
    numbers, numbers, st.sampled_from(["human", "object", "Human", "ghost"]),
    st.lists(st.one_of(waypoints, junk), max_size=3),
).map(lambda b: "blob=" + ",".join([b[0], b[1], b[2], *b[3]]))


def scene_numbers(spec: SceneSpec):
    yield spec.ambient, spec.drift_per_frame, spec.noise_sigma
    for blob in spec.blobs:
        yield blob.amplitude, blob.sigma
        for _, x, y in blob.path:
            yield x, y


class TestSceneReader:
    @settings(max_examples=300, deadline=None)
    @given(text=lines_of(
        key_values(["width", "height", "frames", "ambient", "drift",
                    "noise_sigma", "noise-sigma", "seed", "wobble"], numbers),
        blob_lines,
        st.just("frames=4"),
    ))
    @example(text="frames=4\nambient=nan")
    @example(text="frames=4\nblob=900,2,human,0:1e999:4")
    @example(text="frames=10\nframes=20")
    @example(text="frames=4\nnoise-sigma=1\nnoise_sigma=2")
    @example(text="frames=0")
    @example(text="frames=4\nwidth=3")
    def test_returns_finite_scene_or_scene_error(self, text):
        try:
            spec = parse_scene(text)
        except SceneError as exc:
            # only a file without frames= has no line to name
            assert str(exc).startswith("line ") or str(exc) == "scene file must set frames"
            return
        assert all(math.isfinite(v) for group in scene_numbers(spec) for v in group)
        assert not repeats_a_key(text, repeatable=("blob",))


label_rows = st.tuples(
    st.one_of(st.integers(-2, 20).map(str), numbers),
    st.sampled_from(["0", "1", "true", "False", "yes", ""]),
    st.lists(st.sampled_from(["Q0", "q1", "Q2", "Q3", "Q4", "", " "]), max_size=3)
    .map(";".join),
).map(",".join)


class TestLabelsReader:
    @settings(max_examples=200, deadline=None)
    @given(
        header=st.sampled_from(["frame,present,quadrants", "Frame, Present ,QUADRANTS",
                                "frame,present", ""]),
        body=lines_of(label_rows, st.just('0,1,"Q0'), st.just('0,"1\n",')),
    )
    @example(header="frame,present,quadrants", body="0,1," + "Q0;" * 50_000)
    def test_returns_labels_or_dataset_error(self, tmp_path_factory, header, body):
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        path.write_text(header + "\n" + body, encoding="utf-8")
        try:
            labels = read_labels(path)
        except DatasetError as exc:
            assert str(exc).startswith(f"{path}")
            return
        assert all(isinstance(label, GroundTruthLabel) for label in labels)
        indices = [label.frame_index for label in labels]
        assert indices == sorted(set(indices))

    # Files for the oracle: most rows carry their own row number as the frame
    # index, so a file gets past its first rows and repeats fields, bad ones
    # too, on later lines. Padded spellings reach the same value by another
    # field text, and "\x1f7" is a frame index only once stripped.
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.one_of(st.none(), st.none(), st.none(), st.just("\x1f7"), numbers),
        st.sampled_from(["0", "1", "true", "False", " TRUE ", "1 ", "yes", ""]),
        st.lists(st.sampled_from(["Q0", "q1", " Q2", "Q3 ", "Q4", "", " "]), max_size=3)
        .map(";".join),
    ), max_size=12))
    def test_matches_a_per_row_parse(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        path.write_text("frame,present,quadrants\n" + "\n".join(
            ",".join((str(n) if frame is None else frame, present, quadrants))
            for n, (frame, present, quadrants) in enumerate(rows)
        ), encoding="utf-8")
        try:
            expected = per_row_labels(path)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as caught:
                read_labels(path)
            assert str(caught.value) == str(exc)
            return
        assert read_labels(path) == expected

    def test_a_repeated_bad_field_names_its_first_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("frame,present,quadrants\n0,1,Q7\n1,0,\n2,1,Q7\n")
        with pytest.raises(DatasetError) as caught:
            read_labels(path)
        assert str(caught.value) == f"{path}:2: unknown quadrant 'Q7'"

    def test_a_quadrant_field_seen_before_is_checked_against_its_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("frame,present,quadrants\n0,1,Q0\n1,0,Q0\n")
        with pytest.raises(DatasetError) as caught:
            read_labels(path)
        assert str(caught.value) == f"{path}:3: occupied quadrants require human_present"


def per_row_labels(path):
    """The labels reader as a plain parse of each row, with nothing kept
    from one row to the next: the oracle for `read_labels`."""
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # a NUL before Python 3.11
            raise DatasetError(f"{path}: {exc}") from None
    labels = []
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
        if present_field.lower() in ("1", "true"):
            present = True
        elif present_field.lower() in ("0", "false"):
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
