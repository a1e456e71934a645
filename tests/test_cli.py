import json
import os
import stat

import pytest

from thermal_sentry.cli import main

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


class TestDetect:
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

    @pytest.mark.parametrize("failure", ["missing input dir", "dimension change"])
    def test_failed_run_leaves_the_out_file_as_it_was(self, tmp_path, capsys, failure):
        import numpy as np
        from thermal_sentry import ThermalFrame, write_pgm

        frames = tmp_path / "frames"
        if failure == "dimension change":  # fails after a record is written
            frames.mkdir()
            write_pgm(ThermalFrame(4, 4, np.zeros((4, 4), np.uint16)), frames / "a.pgm")
            write_pgm(ThermalFrame(6, 4, np.zeros((4, 6), np.uint16)), frames / "b.pgm")
        out_file = tmp_path / "run.ndjson"
        out_file.write_bytes(b"earlier run\n")
        code, _, _ = run_cli(
            capsys, "detect", "--input-dir", str(frames), "--out", str(out_file)
        )
        assert code == 2
        assert out_file.read_bytes() == b"earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["run.ndjson"] + (["frames"] if frames.exists() else [])
        )

    def test_successful_run_replaces_the_out_file(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        code, expected, _ = run_cli(capsys, "detect", "--input-dir", str(data))
        assert code == 0
        out_file = tmp_path / "run.ndjson"
        out_file.write_text("earlier run, longer than nothing\n" * 200)
        out_file.chmod(0o604)
        code, _, _ = run_cli(
            capsys, "detect", "--input-dir", str(data), "--out", str(out_file)
        )
        assert code == 0

        def strip_elapsed(text):
            return [{k: v for k, v in json.loads(line).items() if k != "elapsed_us"}
                    for line in text.splitlines()]

        assert strip_elapsed(out_file.read_text()) == strip_elapsed(expected)
        # an existing file keeps its mode, a new one gets 0o666 less the umask
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o604
        new_file = tmp_path / "new.ndjson"
        old_umask = os.umask(0o027)
        try:
            code, _, _ = run_cli(
                capsys, "detect", "--input-dir", str(data), "--out", str(new_file)
            )
        finally:
            os.umask(old_umask)
        assert code == 0
        assert stat.S_IMODE(new_file.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "new.ndjson", "run.ndjson", "scene", "scene.scene"
        ]

    def test_fifo_and_symlink_out_are_written_in_place(self, tmp_path, capsys):
        data = make_dataset(tmp_path, STATIC_SCENE)
        capsys.readouterr()
        code, expected, _ = run_cli(capsys, "detect", "--input-dir", str(data))
        assert code == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a reader is open, so writing does not block; the records fit the
        # pipe's buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(
                capsys, "detect", "--input-dir", str(data), "--out", str(fifo)
            )
            written = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert code == 0
        assert len(written.splitlines()) == len(expected.splitlines())
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

        target = tmp_path / "target.ndjson"
        target.write_text("earlier run\n")
        link = tmp_path / "link.ndjson"
        link.symlink_to(target)
        code, _, _ = run_cli(
            capsys, "detect", "--input-dir", str(data), "--out", str(link)
        )
        assert code == 0
        assert link.is_symlink()
        assert len(target.read_text().splitlines()) == len(expected.splitlines())

    def test_sequential_mode_withholds_movement_fields(self, tmp_path, capsys):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "detect", "--input-dir", str(data), "--mode", "sequential"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if "verdict" in json.loads(line)]
        flagged = [r for r in records if any(r["flags"].values())]
        assert flagged
        for record in flagged:
            assert record["movement"] is None
            assert record["active_count"] is None
            assert record["verdict"] is True

    def test_sequential_mode_differs_from_parallel_only_in_withheld_movement(
        self, tmp_path, capsys
    ):
        data = make_dataset(tmp_path, DRIFT_AND_VISIT_SCENE)
        zones = tmp_path / "zones.cfg"
        zones.write_text("Q0=critical\ndebounce=2\n")
        capsys.readouterr()
        runs = {}
        for mode in ("parallel", "sequential"):
            code, out, _ = run_cli(capsys, "detect", "--input-dir", str(data),
                                   "--zones", str(zones), "--mode", mode)
            assert code == 0
            runs[mode] = [json.loads(line) for line in out.splitlines()]
        assert len(runs["parallel"]) == len(runs["sequential"])

        movement_fields = ("movement", "active_count")
        flagged = movement_only = 0
        for par, seq in zip(runs["parallel"], runs["sequential"]):
            if "verdict" not in par:  # zone event
                assert seq == par
                continue
            ignored = (*movement_fields, "elapsed_us")
            assert ({k: v for k, v in seq.items() if k not in ignored}
                    == {k: v for k, v in par.items() if k not in ignored})
            if any(par["flags"].values()):
                flagged += 1
                assert [seq[k] for k in movement_fields] == [None, None]
            else:
                movement_only += par["movement"]
                assert [seq[k] for k in movement_fields] == [
                    par[k] for k in movement_fields
                ]
        assert flagged == 4 and movement_only == 9

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
        from thermal_sentry import ThermalFrame, write_pgm

        write_pgm(ThermalFrame(4, 4, np.zeros((4, 4), np.uint16)), tmp_path / "a.pgm")
        write_pgm(ThermalFrame(6, 4, np.zeros((4, 6), np.uint16)), tmp_path / "b.pgm")
        code, _, err = run_cli(capsys, "detect", "--input-dir", str(tmp_path))
        assert code == 2
        assert "dimension change" in err

    def test_mid_stream_dimension_change_in_frame_files_aborts(self, tmp_path, capsys):
        import numpy as np
        from thermal_sentry import ThermalFrame, write_pgm

        write_pgm(ThermalFrame(2, 2, np.zeros((2, 2), np.uint16)), tmp_path / "a.pgm")
        write_pgm(ThermalFrame(4, 2, np.zeros((2, 4), np.uint16)), tmp_path / "b.pgm")
        code, _, err = run_cli(
            capsys, "detect", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
        )
        assert code == 2
        assert "b.pgm: dimension change mid-stream" in err


class TestEval:
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

    def test_cells_mode_prints_96_5(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--cells", "1027,11,28,48")
        assert code == 0
        assert "accuracy: 96.5%" in out

    def test_cells_mode_malformed(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--cells", "1,2,3")
        assert code == 1 and "TP,FP,FN,TN" in err

    @pytest.mark.parametrize(
        "cells, message",
        [("-1,2,3,4", "confusion counts must be non-negative"),
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
        assert "frame 5" in err

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
            main(["eval", "--mode", "sequential", "--cells", "1,2,3,4"])
        assert exc.value.code == 1


class TestSynth:
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


class TestConfigFile:
    def test_config_file_sets_defaults(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        config = tmp_path / "sentry.cfg"
        # ratio high enough that nothing ever flags
        config.write_text("roi_ratio=50.0\n")
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
        config.write_text("roi_ratio=50.0\n")
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "--config", str(config),
            "detect", "--input-dir", str(data), "--roi-ratio", "1.2",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert any(any(r["flags"].values()) for r in records)

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, HOT_QUADRANT_SCENE)
        config = tmp_path / "sentry.cfg"
        config.write_text("roi_ratio=50.0\n")
        monkeypatch.setenv("THERMAL_SENTRY_CONFIG", str(config))
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "detect", "--input-dir", str(data))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert not any(any(r["flags"].values()) for r in records)

    @pytest.mark.parametrize("line", ["roi_ratio=inf", "roi_ratio=0.5", "active_delta=0"])
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

    def test_abbreviated_config_flag_is_usage_error(self, tmp_path, capsys):
        # the file is read before parsing, so only the full flag is accepted
        config = tmp_path / "sentry.cfg"
        config.write_text("volume=11\n")
        with pytest.raises(SystemExit) as exc:
            main([f"--conf={config}", "detect", "--input-dir", str(tmp_path)])
        assert exc.value.code == 1

    def test_bad_mode_in_config_is_data_error_for_every_command(self, tmp_path, capsys):
        config = tmp_path / "sentry.cfg"
        config.write_text("mode=foo\n")
        scene = tmp_path / "s.scene"
        scene.write_text(STATIC_SCENE)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "--config", str(config),
            "synth", "--scene", str(scene), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert out == "" and "mode" in err
        assert not out_dir.exists()
