import argparse
import importlib
import json
import os
import pkgutil
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import thermal_sentry
from thermal_sentry import cli, synth, zones
from thermal_sentry.cli import main
from thermal_sentry.frame import write_pgm
from thermal_sentry.motion import MotionConfig
from thermal_sentry.roi import RoiConfig
from thermal_sentry.synth import SceneSpec
from thermal_sentry.zones import ZoneConfig
from conftest import make_frame

DETECTION_KEYS = {
    "frame", "verdict", "movement", "active_count",
    "quadrant_means", "flags", "state", "elapsed_us",
}
EVENT_KEYS = {"frame", "event", "quadrant", "from_state", "to_state"}

STATIC_SCENE = """
width=32
height=24
frames=10
ambient=200
seed=1
# warm but under the 20%-over-mean bar, and static, so neither method fires
blob=300,2,object,0:24:6
"""

CROSSING_SCENE = """
width=32
height=24
frames=20
ambient=60
seed=2
# enters Q3 at frame 5 and stays
blob=900,2,human,0:40:18,5:24:18
"""

HOT_QUADRANT_SCENE = """
width=32
height=24
frames=6
ambient=50
seed=3
blob=900,2,human,0:8:6
"""

# a global drift trips the movement detector on every frame after the first
# without flagging a quadrant; a human in Q0 on frames 6-9 flags it
DRIFT_AND_VISIT_SCENE = """
width=32
height=24
frames=14
ambient=100
drift=30
seed=4
blob=900,3,human,0:-60:6,5:-60:6,6:8:6,9:8:6,10:-60:6
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_dataset(tmp_path, scene_text, name="scene"):
    scene = tmp_path / f"{name}.scene"
    scene.write_text(scene_text)
    out_dir = tmp_path / name
    assert main(["synth", "--scene", str(scene), "--out-dir", str(out_dir)]) == 0
    return out_dir


class OutFlagTests:
    """`--out FILE` tests, inherited by the class of each command that takes
    the flag (`command`): `detect` and `eval` write through one writer."""

    command: str

    def argv(self, frames, labels):
        """A run of the command on a dataset, less the `--out` flag."""
        if self.command == "detect":
            return ["detect", "--input-dir", str(frames)]
        return ["eval", "--input-dir", str(frames), "--labels", str(labels)]

    def content(self, text):
        """What the command writes to `--out`, less its timings."""
        if self.command == "detect":
            return [{k: v for k, v in json.loads(line).items() if k != "elapsed_us"}
                    for line in text.splitlines()]
        return {k: v for k, v in json.loads(text).items() if k != "latency_us"}

    def expected(self, capsys, data):
        """The content a successful `--out` run on `data` writes, taken
        without the writer: detect's stdout, eval's report as a dict."""
        if self.command == "detect":
            code, out, _ = run_cli(capsys, "detect", "--input-dir", str(data))
            assert code == 0
            return self.content(out)
        from thermal_sentry.evaluate import report_to_dict, run_eval

        return self.content(json.dumps(report_to_dict(run_eval(data, data / "labels.csv"))))

    @pytest.mark.parametrize("failure", ["missing input dir", "dimension change"])
    def test_failed_run_leaves_the_out_file_as_it_was(self, tmp_path, capsys, failure):
        import numpy as np
        from thermal_sentry.frame import ThermalFrame, write_pgm

        frames = tmp_path / "frames"
        labels = tmp_path / "labels.csv"
        labels.write_text("frame,present,quadrants\n0,0,\n1,0,\n")
        if failure == "dimension change":  # fails after detect writes a record
            frames.mkdir()
            write_pgm(ThermalFrame(4, 4, np.zeros((4, 4), np.uint16)), frames / "a.pgm")
            write_pgm(ThermalFrame(6, 4, np.zeros((4, 6), np.uint16)), frames / "b.pgm")
        out_file = tmp_path / "run.out"
        out_file.write_bytes(b"earlier run\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        code, _, _ = run_cli(capsys, *self.argv(frames, labels), "--out", str(out_file))
        assert code == 2
        assert out_file.read_bytes() == b"earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_stale_temp_file_does_not_make_the_run_write_in_place(self, tmp_path, capsys):
        import numpy as np
        from thermal_sentry.frame import ThermalFrame

        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        expected = self.expected(capsys, data)
        bad = tmp_path / "bad"  # fails after detect writes a record
        bad.mkdir()
        write_pgm(ThermalFrame(4, 4, np.zeros((4, 4), np.uint16)), bad / "a.pgm")
        write_pgm(ThermalFrame(6, 4, np.zeros((4, 6), np.uint16)), bad / "b.pgm")
        out_file = tmp_path / "run.out"
        out_file.write_bytes(b"earlier run\n")
        # the temporary name this process tries first, as a killed run of a
        # process that had the same pid leaves it
        stale = tmp_path / f".run.out.{os.getpid()}.tmp"
        stale.write_bytes(b"stale\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        code, _, _ = run_cli(capsys, *self.argv(bad, data / "labels.csv"), "--out", str(out_file))
        assert code == 2
        assert out_file.read_bytes() == b"earlier run\n"
        inode = out_file.stat().st_ino
        code, _, _ = run_cli(capsys, *self.argv(data, data / "labels.csv"),
                             "--out", str(out_file))
        assert code == 0
        assert self.content(out_file.read_text()) == expected
        assert out_file.stat().st_ino != inode  # replaced, not written in place
        assert stale.read_bytes() == b"stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_successful_run_replaces_the_out_file(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        expected = self.expected(capsys, data)
        argv = self.argv(data, data / "labels.csv")
        out_file = tmp_path / "run.out"
        out_file.write_text("earlier run, longer than nothing\n" * 200)
        out_file.chmod(0o604)
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 0
        assert self.content(out_file.read_text()) == expected
        # an existing file keeps its mode, a new one gets 0o666 less the umask
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o604
        new_file = tmp_path / "new.out"
        old_umask = os.umask(0o027)
        try:
            code, _, _ = run_cli(capsys, *argv, "--out", str(new_file))
        finally:
            os.umask(old_umask)
        assert code == 0
        assert self.content(new_file.read_text()) == expected
        assert stat.S_IMODE(new_file.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "new.out", "run.out", "scene", "scene.scene"
        ]

    def test_fifo_and_symlink_out_are_written_in_place(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        expected = self.expected(capsys, data)
        argv = self.argv(data, data / "labels.csv")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a reader is open, so writing does not block; the output fits the
        # pipe's buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(capsys, *argv, "--out", str(fifo))
            written = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert code == 0
        assert self.content(written) == expected
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

        target = tmp_path / "target.out"
        target.write_text("earlier run\n")
        link = tmp_path / "link.out"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, *argv, "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert self.content(target.read_text()) == expected

    def test_failed_chmod_leaves_no_temp_file_or_descriptor(self, tmp_path, capsys,
                                                           monkeypatch):
        data = make_dataset(tmp_path, STATIC_SCENE)
        out_file = tmp_path / "run.out"
        out_file.write_bytes(b"earlier run\n")
        before = sorted(p.name for p in tmp_path.iterdir())

        def fchmod(fd, mode):
            raise PermissionError("fchmod refused")

        monkeypatch.setattr(os, "fchmod", fchmod)
        fds = set(os.listdir("/proc/self/fd"))
        code, _, err = run_cli(capsys, *self.argv(data, data / "labels.csv"),
                               "--out", str(out_file))
        assert code == 2 and "fchmod refused" in err
        assert set(os.listdir("/proc/self/fd")) == fds
        assert out_file.read_bytes() == b"earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_out_is_written_in_place_when_no_temp_file_can_be_made(
            self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        expected = self.expected(capsys, data)
        out_file = tmp_path / "run.out"
        out_file.write_bytes(b"earlier run\n")
        inode = out_file.stat().st_ino
        real_open = os.open

        def no_temp(path, *args, **kwargs):
            if str(path).endswith(".tmp"):
                raise PermissionError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_temp)
        code, _, _ = run_cli(capsys, *self.argv(data, data / "labels.csv"),
                             "--out", str(out_file))
        assert code == 0
        assert out_file.stat().st_ino == inode
        assert self.content(out_file.read_text()) == expected


class TestDetect(OutFlagTests):
    command = "detect"

    def test_static_scene_all_negative(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", "--input-dir", str(data))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 10
        for record in records:
            assert set(record) == DETECTION_KEYS
            assert record["verdict"] is False
            assert record["state"] == "Run"
            assert record["elapsed_us"] > 0

    def test_zone_crossing_emits_state_change(self, tmp_path, capsys):
        data = make_dataset(tmp_path, CROSSING_SCENE)
        zones = tmp_path / "zones.cfg"
        zones.write_text("Q3=critical\ndebounce=3\n")
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "detect", "--input-dir", str(data), "--zones", str(zones)
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        events = [r for r in lines if "event" in r]
        assert all(set(e) == EVENT_KEYS for e in events)
        changes = [e for e in events if e["event"] == "StateChanged"]
        assert changes and changes[0]["from_state"] == "Run"
        assert changes[0]["to_state"] == "Stop"
        detections = [r for r in lines if "verdict" in r]
        assert detections[-1]["state"] == "Stop"

    def test_hot_q2_in_a_warning_zone_slows(self, tmp_path, capsys):
        # the reference scene never occupies Q2 or reaches Slow, so four
        # frames with the bottom-left quadrant hot are written by hand
        hot_q2 = make_frame([[50, 50, 50, 50], [50, 50, 50, 50],
                             [900, 900, 50, 50], [900, 900, 50, 50]])
        paths = [str(tmp_path / f"f{i}.pgm") for i in range(4)]
        for path in paths:
            write_pgm(hot_q2, path)
        zones = tmp_path / "zones.cfg"
        zones.write_text("Q2=warning\ndebounce=2\n")
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", "--zones", str(zones), *paths)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert {"frame": 1, "event": "Entered", "quadrant": "Q2",
                "from_state": None, "to_state": None} in lines
        assert {"frame": 1, "event": "StateChanged", "quadrant": None,
                "from_state": "Run", "to_state": "Slow"} in lines
        states = [r["state"] for r in lines if "verdict" in r]
        assert states == ["Run", "Slow", "Slow", "Slow"]

    def test_repeated_zone_key_is_data_error(self, tmp_path, capsys):
        # the second line would leave Q3 ignored: no Stop, exit 0
        data = make_dataset(tmp_path, CROSSING_SCENE)
        zones = tmp_path / "zones.cfg"
        zones.write_text("Q3=critical\ndebounce=3\nq3=ignore\n")
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "detect", "--input-dir", str(data), "--zones", str(zones)
        )
        assert code == 2
        assert out == ""
        assert "line 3: q3 repeats line 1" in err

    def test_zone_file_error_names_the_file(self, tmp_path, capsys):
        zones = tmp_path / "zones.cfg"
        zones.write_text("Q3=critical\nq3=ignore\n")
        code, out, err = run_cli(
            capsys, "detect", "--input-dir", str(tmp_path), "--zones", str(zones)
        )
        assert code == 2 and out == ""
        assert f"thermal-sentry: {zones}: line 2: q3 repeats line 1" in err

    def test_q0_events_and_return_to_run_serialize(self, tmp_path, capsys):
        # Q0 and SafetyState.RUN are falsy IntEnums; make sure the NDJSON
        # layer still names them
        scene = """
width=32
height=24
frames=24
ambient=60
seed=4
# visits Q0 for a while, then walks far off-frame
blob=900,2,human,0:8:6,10:8:6,16:-40:6
"""
        data = make_dataset(tmp_path, scene, name="visit")
        zones = tmp_path / "z.cfg"
        zones.write_text("Q0=critical\ndebounce=2\nclear=2\n")
        capsys.readouterr()
        # without a hold limit the departed blob stays burned into the held
        # background and movement never clears
        code, out, _ = run_cli(
            capsys, "detect", "--input-dir", str(data), "--zones", str(zones),
            "--max-hold-frames", "4",
        )
        assert code == 0
        events = [json.loads(l) for l in out.splitlines() if "event" in json.loads(l)]
        entered = [e for e in events if e["event"] == "Entered"]
        assert entered and entered[0]["quadrant"] == "Q0"
        changes = [e for e in events if e["event"] == "StateChanged"]
        assert changes[0]["from_state"] == "Run" and changes[0]["to_state"] == "Stop"
        assert changes[-1]["to_state"] == "Run"

    def test_empty_input_dir_clean_exit(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, _ = run_cli(capsys, "detect", "--input-dir", str(empty))
        assert code == 0
        assert out == ""

    def test_positional_frames_input(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        frames = sorted(str(p) for p in data.glob("*.pgm"))[:3]
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", *frames)
        assert code == 0
        assert [json.loads(l)["frame"] for l in out.splitlines()] == [0, 1, 2]

    def test_requires_exactly_one_input_source(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "detect")
        assert code == 1 and "input" in err
        data = make_dataset(tmp_path, STATIC_SCENE)
        some = next(iter(sorted(data.glob("*.pgm"))))
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "detect", "--input-dir", str(data), str(some)
        )
        assert code == 1

    def test_out_file(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        out_file = tmp_path / "events.ndjson"
        code, _, _ = run_cli(
            capsys, "detect", "--input-dir", str(data), "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 10
        assert all(json.loads(line) for line in lines)

    def test_movement_fields_are_set_on_every_record(self, tmp_path, capsys):
        # both detectors run on every frame, so a frame the quadrant method
        # flagged still reports what the movement method saw
        data = make_dataset(tmp_path, DRIFT_AND_VISIT_SCENE)
        zones = tmp_path / "zones.cfg"
        zones.write_text("Q0=critical\ndebounce=2\n")
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", "--input-dir", str(data),
                               "--zones", str(zones))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        detections = [r for r in records if "verdict" in r]
        assert len(detections) == 14 and len(records) > 14
        flagged = movement_only = 0
        for record in detections:
            assert type(record["movement"]) is bool
            assert type(record["active_count"]) is int
            if any(record["flags"].values()):
                flagged += 1
            else:
                movement_only += record["movement"]
        assert flagged == 4 and movement_only == 9

    def test_mode_is_not_a_detect_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--mode", "parallel", "--input-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_unreadable_input_is_data_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.pgm"
        bogus.write_bytes(b"not a pgm")
        code, _, err = run_cli(capsys, "detect", str(bogus))
        assert code == 2
        assert "pgm" in err.lower()

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_missing_input_dir_is_data_error(self, tmp_path, capsys, command):
        missing = tmp_path / "absent"
        argv = [command, "--input-dir", str(missing)]
        if command == "eval":
            labels = tmp_path / "labels.csv"
            labels.write_text("frame,present,quadrants\n0,0,\n")
            argv += ["--labels", str(labels)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "no such directory" in err

    def test_zero_max_hold_frames_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--max-hold-frames", "0", "--input-dir", "x"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--active-delta", "0"),
            ("--active-fraction", "0"),
            ("--active-fraction", "1.5"),
            ("--roi-ratio", "0.5"),
            ("--roi-min-mean", "-1"),
            ("--roi-ratio", "inf"),
            ("--roi-ratio", "nan"),
            ("--roi-ratio", "4.0"),
            ("--active-delta", "65536"),
            ("--roi-min-mean", "65536"),
        ],
    )
    def test_out_of_range_detector_flag_is_usage_error(
        self, tmp_path, capsys, flag, value
    ):
        # exit 1 even on an empty directory, which would otherwise exit 0
        with pytest.raises(SystemExit) as exc:
            main(["detect", flag, value, "--input-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err

    def test_frame_files_give_the_same_records_as_the_directory(
        self, tmp_path, capsys
    ):
        data = make_dataset(tmp_path, CROSSING_SCENE)
        frames = sorted(str(p) for p in data.glob("*.pgm"))
        capsys.readouterr()
        code, by_dir, _ = run_cli(capsys, "detect", "--input-dir", str(data))
        assert code == 0
        code, by_files, _ = run_cli(capsys, "detect", *frames)
        assert code == 0

        def strip_elapsed(out):
            records = [json.loads(line) for line in out.splitlines()]
            for record in records:
                record.pop("elapsed_us", None)
            return records

        assert len(by_dir.splitlines()) > len(frames)  # zone events included
        assert strip_elapsed(by_files) == strip_elapsed(by_dir)

    def test_mid_stream_dimension_change_aborts(self, tmp_path, capsys):
        import numpy as np
        from thermal_sentry.frame import ThermalFrame, write_pgm

        write_pgm(ThermalFrame(4, 4, np.zeros((4, 4), np.uint16)), tmp_path / "a.pgm")
        write_pgm(ThermalFrame(6, 4, np.zeros((4, 6), np.uint16)), tmp_path / "b.pgm")
        code, _, err = run_cli(capsys, "detect", "--input-dir", str(tmp_path))
        assert code == 2
        assert "dimension change" in err

    def test_mid_stream_dimension_change_in_frame_files_aborts(self, tmp_path, capsys):
        import numpy as np
        from thermal_sentry.frame import ThermalFrame, write_pgm

        write_pgm(ThermalFrame(2, 2, np.zeros((2, 2), np.uint16)), tmp_path / "a.pgm")
        write_pgm(ThermalFrame(4, 2, np.zeros((2, 4), np.uint16)), tmp_path / "b.pgm")
        code, _, err = run_cli(
            capsys, "detect", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
        )
        assert code == 2
        assert "b.pgm: dimension change mid-stream" in err


class TestEval(OutFlagTests):
    command = "eval"

    def test_end_to_end_report(self, tmp_path, capsys):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        report_file = tmp_path / "report.json"
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "eval",
            "--input-dir", str(data),
            "--labels", str(data / "labels.csv"),
            "--out", str(report_file),
        )
        assert code == 0
        assert "Method A (movement)" in out
        assert "frames evaluated: 6" in out
        payload = json.loads(report_file.read_text())
        assert payload["frames_evaluated"] == 6

    def test_unwritable_out_fails_before_the_report_is_printed(self, tmp_path, capsys):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        capsys.readouterr()
        out_file = tmp_path / "no-such-dir" / "r.json"
        code, out, err = run_cli(capsys, "eval", "--input-dir", str(data),
                                 "--labels", str(data / "labels.csv"), "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert str(out_file) in err

    def test_cells_mode_prints_96_5(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--cells", "1027,11,28,48")
        assert code == 0
        assert "accuracy: 96.5%" in out

    def test_cells_mode_malformed(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--cells", "1,2,3")
        assert code == 1 and "TP,FP,FN,TN" in err

    @pytest.mark.parametrize(
        "cells, message",
        [("-1,2,3,4", "tp must be an int >= 0"),
         ("0,0,0,0", "empty confusion matrix")],
    )
    def test_cells_mode_out_of_range_is_usage_error(self, capsys, cells, message):
        code, out, err = run_cli(capsys, "eval", f"--cells={cells}")
        assert code == 1
        assert out == "" and message in err

    def test_missing_label_is_data_error(self, tmp_path, capsys):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        labels = data / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(lines[:-1]) + "\n")  # drop last frame's label
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "eval", "--input-dir", str(data), "--labels", str(labels)
        )
        assert code == 2
        assert err == f"thermal-sentry: {labels}: no label for frame 5\n"

    def test_requires_dataset_or_cells(self, capsys):
        code, _, err = run_cli(capsys, "eval")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--input-dir", "--labels", "--out"])
    def test_dataset_flag_with_cells_is_usage_error(self, tmp_path, capsys, flag):
        target = tmp_path / "given"
        code, out, err = run_cli(capsys, "eval", "--cells", "1,2,3,4", flag, str(target))
        assert code == 1
        assert out == "" and flag in err
        assert not target.exists()

    def test_mode_is_not_an_eval_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--mode", "parallel", "--cells", "1,2,3,4"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --mode" in capsys.readouterr().err


class TestSynth:
    def test_readme_quotes_the_scene_errors(self, tmp_path, capsys, monkeypatch):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        quoted = re.findall(r"`(\S+\.scene: line \d+: bad value for [^`]+)`",
                            " ".join(readme.split()))
        # a scene file for each quote: a blob of sigma 0 on line 5, and no frame
        scenes = {"s.scene": "frames=2\nwidth=4\nheight=4\n# the blob\nblob=100,0,human,0:1:1\n",
                  "a.scene": "frames=0\n"}
        assert [message.split(":", 1)[0] for message in quoted] == list(scenes)
        monkeypatch.chdir(tmp_path)
        for (name, text), message in zip(scenes.items(), quoted):
            Path(name).write_text(text, encoding="utf-8")
            assert run_cli(capsys, "synth", "--scene", name, "--out-dir", "out") == (
                2, "", f"thermal-sentry: {message}\n")

    def test_summary_and_files(self, tmp_path, capsys):
        scene = tmp_path / "s.scene"
        scene.write_text(CROSSING_SCENE)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(out_dir)
        )
        assert code == 0
        assert "wrote 20 frames" in out
        assert (out_dir / "labels.csv").exists()
        assert len(list(out_dir.glob("*.pgm"))) == 20
        # label tallies printed
        assert "positive" in out

    def test_bad_scene_file_is_data_error(self, tmp_path, capsys):
        scene = tmp_path / "bad.scene"
        scene.write_text("nonsense")
        code, _, err = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(tmp_path / "x")
        )
        assert code == 2

    def test_non_finite_scene_number_is_data_error(self, tmp_path, capsys):
        scene = tmp_path / "nan.scene"
        scene.write_text("frames=2\nwidth=4\nheight=4\nambient=nan\n")
        out_dir = tmp_path / "x"
        code, _, err = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(out_dir)
        )
        assert code == 2
        assert "ambient must be finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_unrenderable_blob_sigma_is_data_error(self, tmp_path, capsys, sigma):
        # 2*sigma**2 underflows to 0 (a NaN centre pixel) or sigma**2 overflows
        scene = tmp_path / "sigma.scene"
        scene.write_text(f"frames=2\nwidth=4\nheight=4\nambient=10\nblob=100,{sigma},human,0:1:1\n")
        out_dir = tmp_path / "x"
        code, out, err = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(out_dir)
        )
        assert code == 2 and out == ""
        assert "out of the renderable range" in err
        assert not out_dir.exists()

    def test_scene_file_error_names_the_file(self, tmp_path, capsys):
        scene = tmp_path / "bad.scene"
        scene.write_text("frames=2\nnonsense\n")
        code, out, err = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(tmp_path / "x")
        )
        assert code == 2 and out == ""
        assert f"thermal-sentry: {scene}: line 2: expected key=value" in err

    @pytest.mark.parametrize("blob, message", [
        ("nan,2,human,0:1:1", "blob amplitude must be finite"),
        ("inf,2,human,0:1:1", "blob amplitude must be finite"),
        ("0,2,human,0:1:1", "blob amplitude must be positive"),
        ("-5,2,human,0:1:1", "blob amplitude must be positive"),
        ("100,nan,human,0:1:1", "blob sigma must be finite"),
        ("100,inf,human,0:1:1", "blob sigma must be finite"),
        ("100,0,human,0:1:1", "blob sigma must be positive"),
        ("100,-2,human,0:1:1", "blob sigma must be positive"),
        ("100,1e-200,human,0:1:1", "blob sigma 1e-200 is out of the renderable range"),
        ("100,1e+200,human,0:1:1", "blob sigma 1e+200 is out of the renderable range"),
        ("100,2,human,0:1:nan", "waypoint x and y must be finite"),
        ("100,2,human,5:1:1,5:2:2", "waypoint frame indices must strictly increase"),
        ("100,2,human,5:1:1,3:2:2", "waypoint frame indices must strictly increase"),
    ])
    def test_rejected_blob_names_its_line(self, tmp_path, capsys, blob, message):
        scene = tmp_path / "blob.scene"
        scene.write_text(f"frames=2\nwidth=4\nheight=4\n# the blob\nblob={blob}\n")
        out_dir = tmp_path / "x"
        code, out, err = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(out_dir)
        )
        assert code == 2 and out == ""
        assert f"thermal-sentry: {scene}: line 5: bad value for blob: {message}" in err
        assert not out_dir.exists()

    def test_frames_the_scene_does_not_write_are_refused(self, tmp_path, capsys):
        # a 2-frame scene over a 3-frame dataset would leave frame 2 to replay
        out_dir = make_dataset(tmp_path, STATIC_SCENE.replace("frames=10", "frames=3"))
        labels = (out_dir / "labels.csv").read_bytes()
        capsys.readouterr()
        scene = tmp_path / "short.scene"
        scene.write_text(STATIC_SCENE.replace("frames=10", "frames=2"))
        code, out, err = run_cli(
            capsys, "synth", "--scene", str(scene), "--out-dir", str(out_dir)
        )
        assert code == 2 and out == ""
        assert str(out_dir / "frame_000002.pgm") in err
        assert (out_dir / "labels.csv").read_bytes() == labels

    def test_same_scene_regenerates_in_place(self, tmp_path, capsys):
        out_dir = make_dataset(tmp_path, STATIC_SCENE)
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert make_dataset(tmp_path, STATIC_SCENE) == out_dir
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "detect" in out and "eval" in out and "synth" in out
        assert "bench" not in out

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--active-delta", "soup", "--input-dir", "x"])
        assert exc.value.code == 1

    def test_empty_zones_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--zones", "", "--input-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "argument --zones: empty file name" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("detect", "--out"), ("detect", "--input-dir"), ("eval", "--out"),
        ("eval", "--input-dir"), ("eval", "--labels"), ("synth", "--out-dir"),
        ("synth", "--scene"),
    ])
    def test_empty_path_flag_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                            command, flag):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        scene = tmp_path / "s.scene"
        scene.write_text(HOT_QUADRANT_SCENE)
        # detect is given a frame file, so that an empty --input-dir is not
        # mistaken for an absent one next to it
        argv = {
            "detect": ["detect", str(data / "frame_000000.pgm")],
            "eval": ["eval", "--input-dir", str(data), "--labels", str(data / "labels.csv")],
            "synth": ["synth", "--scene", str(scene), "--out-dir", str(tmp_path / "new")],
        }[command] + [flag, ""]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: empty file name" in err
        assert list(cwd.iterdir()) == [] and not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["detect", "eval", "synth"])
    def test_abbreviated_flag_is_usage_error(self, capsys, command):
        # every long option of the subcommand, one character short, is
        # refused rather than read as the option it abbreviates
        argv = {
            "detect": ["detect", "--input-dir", "ds"],
            "eval": ["eval", "--cells", "1,2,3,4"],
            "synth": ["synth", "--scene", "s.scene", "--out-dir", "ds"],
        }[command]
        [subcommands] = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        options = [option for action in subcommands.choices[command]._actions
                   for option in action.option_strings if option.startswith("--")]
        assert len(options) > 1
        for option in options:
            prefix = option[:-1]
            assert prefix not in options
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([*argv, prefix, "1"])
            assert exc.value.code == 1, option
            assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, extras", [
        (["detect", "--input", "/tmp", "--max-hold", "5"], "--input --max-hold 5"),
        (["eval", "--bogus", "1"], "--bogus 1"),
        (["synth", "--scene", "s.scene", "--out-dir", "ds", "--zz"], "--zz"),
    ], ids=["detect", "eval", "synth"])
    def test_unrecognized_flag_is_reported_by_its_subcommand(self, capsys, argv, extras):
        # the usage line shown lists the subcommand's flags, not the root's
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: thermal-sentry {argv[0]} [-h]")
        assert err.endswith(
            f"thermal-sentry {argv[0]}: error: unrecognized arguments: {extras}\n")

    @pytest.mark.parametrize("kind",["config", "zones", "scene", "labels"])
    def test_non_utf8_file_is_data_error_naming_it(self, tmp_path, capsys, kind):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"\xff\n")
        argv = {
            "config": ["--config", str(bad), "detect", "--input-dir", str(data)],
            "zones": ["detect", "--input-dir", str(data), "--zones", str(bad)],
            "scene": ["synth", "--scene", str(bad), "--out-dir", str(tmp_path / "new")],
            "labels": ["eval", "--input-dir", str(data), "--labels", str(bad)],
        }[kind]
        capsys.readouterr()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"thermal-sentry: {bad}:")

    def test_every_data_error_is_a_value_error(self):
        # main() turns OSError and ValueError into exit 2; an error class
        # outside them would escape as a traceback
        modules = [importlib.import_module(f"thermal_sentry.{info.name}")
                   for info in pkgutil.iter_modules(thermal_sentry.__path__)]
        errors = {
            obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == module.__name__
        }
        assert {error.__name__ for error in errors} == {
            "PgmError", "ZoneConfigError", "DatasetError", "SceneError", "BadValueError"}
        assert all(issubclass(error, ValueError) for error in errors)


# runs detect through main() in a fresh interpreter and prints the modules
# the run added to those numpy and argparse load
_IMPORT_PROBE = """
import sys
import argparse, numpy
before = set(sys.modules)
from thermal_sentry.cli import main
code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


class TestImports:
    def test_detect_loads_neither_evaluate_nor_synth(self, tmp_path):
        data = make_dataset(tmp_path, CROSSING_SCENE)
        zones_file = tmp_path / "zones.cfg"
        zones_file.write_text("Q3=critical\ndebounce=3\n")
        src = os.path.dirname(os.path.dirname(thermal_sentry.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, "detect", "--input-dir", str(data),
             "--zones", str(zones_file)],
            env=env, capture_output=True, text=True, check=True,
        )
        code, *added = run.stderr.split()
        assert code == "0"
        assert '"event": "StateChanged"' in run.stdout  # the zone-event line ran
        assert "thermal_sentry.zones" in added
        unused = {"thermal_sentry.evaluate", "thermal_sentry.synth", "csv", "json",
                  "dataclasses"}
        assert not unused & set(added)

    def test_no_module_loads_dataclasses(self):
        # numpy does not load dataclasses, so a load would come from the
        # package, and each dataclass compiles its methods at every start
        probe = (
            "import sys, importlib, pkgutil, numpy, thermal_sentry\n"
            "for info in pkgutil.iter_modules(thermal_sentry.__path__):\n"
            "    importlib.import_module('thermal_sentry.' + info.name)\n"
            "print('thermal_sentry.synth' in sys.modules, 'dataclasses' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(thermal_sentry.__file__))
        run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["True", "False"]

    def test_eval_and_synth_call_the_module_attributes(self, tmp_path, capsys, monkeypatch):
        # the benchmark traces cli.run_eval and cli.generate by replacing
        # them, so the commands must look them up when they run
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "run_eval", spy("run_eval", cli.run_eval))
        monkeypatch.setattr(cli, "generate", spy("generate", cli.generate))
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        code, out, _ = run_cli(
            capsys, "eval", "--input-dir", str(data), "--labels", str(data / "labels.csv"))
        assert code == 0 and "frames evaluated: 6" in out
        assert calls == ["generate", "run_eval"]


def run_module(env, *args):
    """`python ARGS` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(thermal_sentry.__file__))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True)


class TestTextEncoding:
    # text files are UTF-8 whatever the locale; this locale's own encoding
    # is ASCII
    ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}

    def test_non_ascii_comments_are_read_in_an_ascii_locale(self, tmp_path):
        scene = tmp_path / "crossing.scene"
        scene.write_text("# Szene für den Test" + CROSSING_SCENE, encoding="utf-8")
        zones_file = tmp_path / "zones.cfg"
        zones_file.write_text("# Zone für den Roboter\nQ3=critical\n", encoding="utf-8")
        config = tmp_path / "sentry.conf"
        config.write_text("# Schwelle für Bewegung\nactive_delta=10\n", encoding="utf-8")
        data = tmp_path / "crossing"
        run = run_module(self.ASCII_LOCALE, "-m", "thermal_sentry.cli", "synth",
                         "--scene", str(scene), "--out-dir", str(data))
        assert (run.returncode, run.stderr) == (0, "")
        run = run_module(self.ASCII_LOCALE, "-m", "thermal_sentry.cli", "--config", str(config),
                         "detect", "--input-dir", str(data), "--zones", str(zones_file))
        assert (run.returncode, run.stderr) == (0, "")
        assert '"event": "StateChanged"' in run.stdout  # the zone file was applied

    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" export and some editors start a file with one
        texts = {"crossing.scene": CROSSING_SCENE, "zones.cfg": "Q3=critical\n",
                 "sentry.conf": "active_delta=10\n"}
        outputs = []
        for bom in ("", "\ufeff"):
            run = tmp_path / ("bom" if bom else "plain")
            run.mkdir()
            for name, text in texts.items():
                (run / name).write_text(bom + text, encoding="utf-8")
            data, config = run / "crossing", str(run / "sentry.conf")
            assert run_cli(capsys, "synth", "--scene", str(run / "crossing.scene"),
                           "--out-dir", str(data))[0] == 0
            labels = data / "labels.csv"
            labels.write_text(bom + labels.read_text(encoding="utf-8"), encoding="utf-8")
            code, detected, err = run_cli(capsys, "--config", config, "detect", "--input-dir",
                                          str(data), "--zones", str(run / "zones.cfg"))
            assert (code, err) == (0, "")
            records = [{k: v for k, v in json.loads(line).items() if k != "elapsed_us"}
                       for line in detected.splitlines()]
            code, report, err = run_cli(capsys, "--config", config, "eval", "--input-dir",
                                        str(data), "--labels", str(labels))
            assert (code, err) == (0, "")
            report_lines = [line for line in report.splitlines() if "latency" not in line]
            outputs.append((records, report_lines))
        assert outputs[1] == outputs[0]
        assert any(record.get("event") == "StateChanged" for record in outputs[0][0])

    def test_no_command_opens_a_text_file_in_the_locale_encoding(self, tmp_path):
        strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                  "-m", "thermal_sentry.cli")
        scene = tmp_path / "crossing.scene"
        scene.write_text(CROSSING_SCENE, encoding="utf-8")
        data = tmp_path / "crossing"
        runs = [
            run_module({}, *strict, "synth", "--scene", str(scene), "--out-dir", str(data)),
            run_module({}, *strict, "detect", "--input-dir", str(data),
                       "--out", str(tmp_path / "detections.ndjson")),
            run_module({}, *strict, "eval", "--input-dir", str(data),
                       "--labels", str(data / "labels.csv"), "--out", str(tmp_path / "r.json")),
        ]
        assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 3
        assert (tmp_path / "detections.ndjson").read_text(encoding="utf-8").count('"verdict"') == 20


class TestConfigFile:
    def test_config_file_sets_defaults(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        config = tmp_path / "sentry.cfg"
        # a floor no quadrant of the scene reaches, so nothing flags
        config.write_text("roi_min_mean=60000\n")
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(data)
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert not any(any(r["flags"].values()) for r in records)

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        config = tmp_path / "sentry.cfg"
        config.write_text("roi_min_mean=60000\n")
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "--config", str(config),
            "detect", "--input-dir", str(data), "--roi-min-mean", "1",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert any(any(r["flags"].values()) for r in records)

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        config = tmp_path / "sentry.cfg"
        config.write_text("roi_min_mean=60000\n")
        monkeypatch.setenv("THERMAL_SENTRY_CONFIG", str(config))
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", "--input-dir", str(data))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert not any(any(r["flags"].values()) for r in records)

    @pytest.mark.parametrize("line", [
        "roi_ratio=inf", "roi_ratio=0.5", "active_delta=0",
        "roi_ratio=4.0", "active_delta=65536", "roi_min_mean=65536",
    ])
    def test_out_of_range_config_value_is_data_error(self, tmp_path, capsys, line):
        config = tmp_path / "sentry.cfg"
        config.write_text(line + "\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, err = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(empty)
        )
        assert code == 2
        assert out == ""
        assert "must be" in err

    def test_out_of_range_config_value_overridden_by_a_flag(self, tmp_path, capsys):
        # checked when the file is read, not only when a detector is built
        config = tmp_path / "sentry.cfg"
        config.write_text("# ratio\nroi_ratio=50.0\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, err = run_cli(
            capsys, "--config", str(config),
            "detect", "--input-dir", str(empty), "--roi-ratio", "1.2",
        )
        assert code == 2
        assert out == ""
        assert f"{config}: line 2: bad value for roi_ratio: roi_ratio must be" in err

    def test_out_of_range_config_value_without_a_detector(self, tmp_path, capsys):
        # eval --cells builds no detector config, and still reads the file
        config = tmp_path / "sentry.cfg"
        config.write_text("active_delta=0\n")
        code, out, err = run_cli(
            capsys, "--config", str(config), "eval", "--cells", "1,2,3,4"
        )
        assert code == 2
        assert out == ""
        assert f"{config}: line 1: bad value for active_delta: active_delta must be" in err

    @pytest.mark.parametrize("key, value", [
        ("active_delta", "65535"), ("roi_min_mean", "65535"),
        ("roi_ratio", "3.9999999999999996"),
    ])
    def test_largest_accepted_detector_setting(self, tmp_path, capsys, key, value):
        # one step further is rejected, as a flag and as a config value
        config = tmp_path / "sentry.cfg"
        config.write_text(f"{key}={value}\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        flag = "--" + key.replace("_", "-")
        code, _, _ = run_cli(capsys, "detect", flag, value, "--input-dir", str(empty))
        assert code == 0
        code, _, _ = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(empty)
        )
        assert code == 0

    def test_bad_config_key_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        code, _, err = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(tmp_path)
        )
        assert code == 2

    def test_bad_config_named_with_equals_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        code, _, err = run_cli(
            capsys, f"--config={config}", "detect", "--input-dir", str(tmp_path)
        )
        assert code == 2
        assert "volume" in err

    def test_config_line_without_equals_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "sentry.cfg"
        config.write_text("# ratio\nroi_ratio\n")
        code, _, err = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(tmp_path)
        )
        assert code == 2
        assert f"{config}: line 2: expected key=value, got 'roi_ratio'" in err

    @pytest.mark.parametrize("text, message", [
        ("active_delta=5\nactive_delta=50\n", ": line 2: active_delta repeats line 1"),
        ("roi-ratio=1.5\n# same key\nroi_ratio=1.5\n", ": line 3: roi_ratio repeats line 1"),
    ])
    def test_repeated_config_key_is_data_error(self, tmp_path, capsys, text, message):
        config = tmp_path / "sentry.cfg"
        config.write_text(text)
        code, out, err = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert f"{config}{message}" in err

    def test_empty_zones_in_config_is_data_error(self, tmp_path, capsys):
        # no zone file would mean every quadrant ignored: never Slow or Stop
        config = tmp_path / "sentry.cfg"
        config.write_text("zones=\n")
        code, _, err = run_cli(
            capsys, "--config", str(config), "detect", "--input-dir", str(tmp_path)
        )
        assert code == 2
        assert f"{config}: line 1: bad value for zones: empty file name" in err

    def test_abbreviated_config_flag_is_usage_error(self, tmp_path, capsys):
        # the file is read before parsing, so only the full flag is accepted
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        with pytest.raises(SystemExit) as exc:
            main([f"--conf={config}", "detect", "--input-dir", str(tmp_path)])
        assert exc.value.code == 1

    def test_bad_mode_in_config_is_data_error_for_every_command(self, tmp_path, capsys):
        # mode is not a config key, whatever its value
        config = tmp_path / "sentry.cfg"
        config.write_text("mode=parallel\n")
        scene = tmp_path / "s.scene"
        scene.write_text(STATIC_SCENE)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "--config", str(config),
            "synth", "--scene", str(scene), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert out == "" and f"{config}: line 1: unknown key 'mode'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text", ["volume=11\n", "roi_ratio=1.3\n"])
    def test_config_after_the_subcommand_is_usage_error(self, tmp_path, capsys, text):
        # --config is a root option; what the file holds does not matter
        config = tmp_path / "sentry.cfg"
        config.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--config", str(config), "--input-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_help_is_printed_whatever_the_config_holds(self, tmp_path, capsys):
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config), "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert "--config FILE" in out and err == ""

    def test_config_flag_taken_as_a_flag_value_is_usage_error(self, tmp_path, capsys):
        # --out lacks its file; the --config=FILE after it is not read
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--input-dir", str(tmp_path), "--out", f"--config={config}"])
        assert exc.value.code == 1
        assert "argument --out: expected one argument" in capsys.readouterr().err

    def test_no_subcommand_with_a_config_prints_help(self, tmp_path, capsys):
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        code, out, _ = run_cli(capsys, "--config", str(config))
        assert code == 1 and "COMMAND" in out

    def test_last_config_flag_wins(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("volume=11\n")
        good = tmp_path / "good.cfg"
        good.write_text("roi_min_mean=60000\n")
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, f"--config={bad}", "--config", str(good), "detect", "--input-dir", str(data)
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert not any(any(r["flags"].values()) for r in records)
        code, _, err = run_cli(
            capsys, "--config", str(good), f"--config={bad}", "detect", "--input-dir", str(data)
        )
        assert code == 2 and f"{bad}: line 1: unknown key 'volume'" in err

    def test_empty_config_name_leaves_the_env_var_unread(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        monkeypatch.setenv("THERMAL_SENTRY_CONFIG", str(config))
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(capsys, "--config=", "detect", "--input-dir", str(empty)) == (0, "", "")
        assert run_cli(capsys, "detect", "--input-dir", str(empty))[0] == 2


class TestDefaults:
    @pytest.mark.parametrize("argv", [["detect"], ["eval", "--cells", "1,2,3,4"]])
    def test_detector_defaults_are_the_config_classes(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._detector_configs(args) == (MotionConfig(), RoiConfig())

    def test_help_prints_the_config_class_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["detect", "--help"])
        options = " ".join(capsys.readouterr().out.split()).split("detector options:")[1]
        motion, roi = MotionConfig(), RoiConfig()
        for flag, default in [
            ("--active-delta COUNTS", motion.active_delta),
            ("--active-fraction FRAC", motion.active_fraction),
            ("--roi-ratio RATIO", roi.roi_ratio),
            ("--roi-min-mean COUNTS", roi.roi_min_mean),
        ]:
            assert f"(default {default})" in options.split(flag, 1)[1].split(" --", 1)[0]


# the keys users write for a setting, by the records they set: config-file
# keys but `zones`, which names a file; zone keys but Q0-Q3, which fill
# `zone_class`; scene keys but `blob`, whose lines fill `blobs`
SETTING_KEYS = {
    "config": (cli._CONFIG_KEYS.keys() - {"zones"}, (MotionConfig, RoiConfig)),
    "zone": (zones._ZONE_KEYS.keys() - {"q0", "q1", "q2", "q3"}, (ZoneConfig,)),
    "scene": (synth._SCENE_KEYS.keys() - {"blob"}, (SceneSpec,)),
}
# every name a setting goes by: its key and the field of its record
SETTING_NAMES = {
    name for keys, records in SETTING_KEYS.values()
    for name in (*keys, *(field for record in records for field in record._fields))
}


class TestOneNamePerSetting:
    """A setting has the one name users write, as a flag, a config key, a
    zone key or a scene key: the field it sets and its errors use it too."""

    @pytest.mark.parametrize("keys, records", SETTING_KEYS.values(), ids=SETTING_KEYS)
    def test_each_key_is_the_field_it_sets(self, keys, records):
        fields = {field for record in records for field in record._fields}
        assert set(keys) == fields - {"zone_class", "blobs"}

    @pytest.mark.parametrize("where, key, value", [
        ("flag", "active_delta", "0"),
        ("flag", "roi_min_mean", "65536"),
        ("config", "roi_ratio", "4.0"),
        ("config", "roi_min_mean", "65536"),
        ("zone", "debounce", "0"),
        ("zone", "clear", "0"),
        ("scene", "drift", "inf"),
    ])
    def test_an_error_names_its_setting_by_the_key_alone(
        self, tmp_path, capsys, where, key, value
    ):
        path = tmp_path / "settings"
        path.write_text(f"{key}={value}\n")
        argv = {
            "flag": ["detect", "--" + key.replace("_", "-"), value],
            "config": ["--config", str(path), "eval", "--cells", "1,2,3,4"],
            "zone": ["detect", "--zones", str(path), "--input-dir", str(tmp_path)],
            "scene": ["synth", "--scene", str(path), "--out-dir", str(tmp_path / "out")],
        }[where]
        try:
            code = main(argv)
        except SystemExit as exc:  # a flag's value is a usage error
            code = exc.code
        assert code == (1 if where == "flag" else 2)
        error = capsys.readouterr().err.splitlines()[-1].replace(str(path), "FILE")
        # a flag is its key written with dashes
        error = re.sub(r"--([a-z-]+)", lambda flag: flag[1].replace("-", "_"), error)
        names = {word for word in re.findall(r"\w+", error) if word in SETTING_NAMES or "_" in word}
        assert names == {key}, error


# every config-file key: a flag value, a config-file value, and the setting
# as the detector configs and zone file name that detect builds show it
SETTINGS = [
    ("active_delta", "7", "9", lambda motion, roi, zones: motion.active_delta),
    ("active_fraction", "0.1", "0.2", lambda motion, roi, zones: motion.active_fraction),
    ("max_hold_frames", "30", "40", lambda motion, roi, zones: motion.max_hold_frames),
    ("roi_ratio", "1.5", "1.6", lambda motion, roi, zones: roi.roi_ratio),
    ("roi_min_mean", "5", "6", lambda motion, roi, zones: roi.roi_min_mean),
    ("zones", "flag.zones", "file.zones", lambda motion, roi, zones: zones),
]


class TestPrecedence:
    @pytest.mark.parametrize("given", ["flag", "file", "both", "neither"])
    @pytest.mark.parametrize("key, flag_value, file_value, setting", SETTINGS,
                             ids=[key for key, *_ in SETTINGS])
    def test_flag_beats_file_beats_class_default(
        self, tmp_path, monkeypatch, key, flag_value, file_value, setting, given
    ):
        seen = []
        monkeypatch.setattr(cli, "cmd_detect", lambda args: seen.append(
            (*cli._detector_configs(args), args.zones)) or 0)
        config = tmp_path / "sentry.cfg"
        config.write_text(f"{key}={file_value}\n" if given in ("file", "both") else "")
        argv = ["--config", str(config), "detect"]
        if given in ("flag", "both"):
            argv += ["--" + key.replace("_", "-"), flag_value]
        assert main(argv) == 0
        [(motion, roi, zones)] = seen
        text = {"flag": flag_value, "both": flag_value, "file": file_value}.get(given)
        expected = (setting(MotionConfig(), RoiConfig(), None) if text is None
                    else cli._CONFIG_KEYS[key](text))
        assert setting(motion, roi, zones) == expected


class TestPerFrameCalls:
    """The detect loop's per-frame work stays in C: no frame, with or
    without zone events, calls a Python function of the enum module (an
    Enum property or hash) or of numpy's `_methods` (the wrapper behind
    `ndarray.sum`). Counted calls, not timings, so the check holds on a
    loaded machine. The scene holds Method A's background, so the frames
    checked are mostly compared through its floor."""

    def test_no_frame_calls_an_enum_or_numpy_wrapper(self):
        import enum

        try:
            from numpy._core import _methods
        except ImportError:  # numpy < 2
            from numpy.core import _methods
        from thermal_sentry.motion import MotionState
        from thermal_sentry.synth import BlobSpec, SceneSpec, render_frame
        from thermal_sentry.zones import SafetyState, ZoneState, parse_zone_config

        # a person walks into Q3, which is critical, and stays there
        spec = SceneSpec(frames=120, width=32, height=24, ambient=60, noise_sigma=1.5, seed=7,
                         blobs=(BlobSpec(900.0, 3.0, ((0, -10.0, 18.0), (30, 24.0, 18.0))),))
        frames = [render_frame(spec, t) for t in range(spec.frames)]
        zone_state = ZoneState(parse_zone_config("Q0=warning\nQ3=critical"))
        motion_state = MotionState()
        watched = {enum.__file__, _methods.__file__}
        calls: list[tuple[str, str]] = []  # (file, function) of each Python call

        def profile(frame, event, arg):
            if event == "call":
                calls.append((frame.f_code.co_filename, frame.f_code.co_name))

        # each frame's calls, its zone events and its state
        per_frame = []
        for frame in frames:
            calls.clear()
            sys.setprofile(profile)
            try:
                detection = cli.hybrid_step(motion_state, frame)
                safety, events = cli.zone_update(zone_state, detection.frame_index,
                                                 detection.roi.flags, detection.verdict)
                cli.record_line(detection, safety)
                for event in events:
                    cli.event_line(event)
            finally:
                sys.setprofile(None)
            per_frame.append((list(calls), events, safety))

        # the hook saw the calls, the person drove the state to Stop, and
        # the event frames, which are checked too, wrote their lines
        assert all(any(name == "hybrid_step" for _, name in seen) for seen, _, _ in per_frame)
        assert SafetyState.STOP in {safety for _, _, safety in per_frame}
        assert any(any(name == "event_line" for _, name in seen) for seen, _, _ in per_frame)
        # the person holds Method A's background, which builds its floor
        # once, and most frames are compared through it, without abs_diff
        called = [[name for _, name in seen] for seen, _, _ in per_frame]
        assert sum(names.count("_held_floor") for names in called) == 1
        assert sum("abs_diff" not in names for names in called) > len(frames) // 2
        offending = {index: [f"{name} ({file})" for file, name in seen if file in watched]
                     for index, (seen, _, _) in enumerate(per_frame)}
        offending = {index: names for index, names in offending.items() if names}
        assert offending == {}, (
            f"{len(offending)} of {len(frames)} frames: {offending}")
