"""Fuzz tests of the four text readers: config, zone, scene and labels files.

Each reader must either return a value or raise its documented error, whose
message the command line prints with exit code 2; any other exception would
escape as a traceback. Lines mix the reader's own keys and values with
arbitrary text, so that generated files get past the first check.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermal_sentry.cli import _CONFIG_KEYS, _load_config_file
from thermal_sentry.evaluate import DatasetError, GroundTruthLabel, read_labels
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


def key_values(keys, values):
    return st.tuples(st.sampled_from(keys), st.sampled_from(["=", " = ", ":", ""]),
                     values).map("".join)


class TestConfigReader:
    @settings(max_examples=200, deadline=None)
    @given(text=lines_of(
        key_values(sorted(_CONFIG_KEYS) + ["roi-ratio", "MODE", "bogus"],
                   st.one_of(numbers, st.sampled_from(["parallel", "sequential"]))),
    ))
    def test_returns_settings_or_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("config") / "sentry.conf"
        path.write_text(text)
        try:
            settings_ = _load_config_file(str(path))
        except ValueError as exc:
            assert type(exc) is ValueError
            assert str(exc).startswith(f"{path}:")
            return
        assert set(settings_) <= set(_CONFIG_KEYS)


class TestZoneReader:
    @settings(max_examples=200, deadline=None)
    @given(text=lines_of(
        key_values(["q0", "Q1", "q2", "q3", "q4", "debounce", "clear"],
                   st.one_of(numbers, st.sampled_from(
                       ["ignore", "warning", "CRITICAL", "stop"]))),
    ))
    def test_returns_config_or_zone_config_error(self, text):
        try:
            config = parse_zone_config(text)
        except ZoneConfigError:
            return
        assert isinstance(config, ZoneConfig)


waypoints = st.tuples(numbers, numbers, numbers).map(":".join)
blob_lines = st.tuples(
    numbers, numbers, st.sampled_from(["human", "object", "Human", "ghost"]),
    st.lists(st.one_of(waypoints, junk), max_size=3),
).map(lambda b: "blob=" + ",".join([b[0], b[1], b[2], *b[3]]))


def scene_numbers(spec: SceneSpec):
    yield spec.fps, spec.ambient, spec.drift_per_frame, spec.noise_sigma
    for blob in spec.blobs:
        yield blob.amplitude, blob.sigma
        for _, x, y in blob.path:
            yield x, y


class TestSceneReader:
    @settings(max_examples=300, deadline=None)
    @given(text=lines_of(
        key_values(["width", "height", "frames", "fps", "ambient", "drift",
                    "noise_sigma", "seed", "wobble"], numbers),
        blob_lines,
        st.just("frames=4"),
    ))
    @example(text="frames=4\nambient=nan")
    @example(text="frames=4\nblob=900,2,human,0:1e999:4")
    def test_returns_finite_scene_or_scene_error(self, text):
        try:
            spec = parse_scene(text)
        except SceneError:
            return
        assert all(math.isfinite(v) for group in scene_numbers(spec) for v in group)


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
        path.write_text(header + "\n" + body)
        try:
            labels = read_labels(path)
        except DatasetError as exc:
            assert str(exc).startswith(f"{path}")
            return
        assert all(isinstance(label, GroundTruthLabel) for label in labels)
        indices = [label.frame_index for label in labels]
        assert indices == sorted(set(indices))

