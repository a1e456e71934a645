import os
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sentry import frame as frame_module
from thermal_sentry.frame import (
    PgmError,
    QuadrantId,
    ThermalFrame,
    abs_diff,
    load_pgm,
    replay_dir,
    write_pgm,
)
from thermal_sentry.roi import roi_analyze
from conftest import make_frame, uniform_frame

even_dims = st.tuples(
    st.integers(1, 10).map(lambda n: 2 * n),
    st.integers(1, 8).map(lambda n: 2 * n),
)


@st.composite
def frames(draw):
    width, height = draw(even_dims)
    data = draw(
        st.lists(
            st.integers(0, 65535),
            min_size=width * height,
            max_size=width * height,
        )
    )
    return ThermalFrame(width, height, np.array(data, dtype=np.uint16))


class TestThermalFrame:
    def test_rejects_odd_dimensions(self):
        with pytest.raises(ValueError):
            ThermalFrame(3, 4, np.zeros(12, dtype=np.uint16))
        with pytest.raises(ValueError):
            ThermalFrame(4, 3, np.zeros(12, dtype=np.uint16))

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            ThermalFrame(0, 0, np.zeros(0, dtype=np.uint16))

    def test_rejects_pixel_count_mismatch(self):
        with pytest.raises(ValueError):
            ThermalFrame(4, 4, np.zeros(15, dtype=np.uint16))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            ThermalFrame(2, 2, [0, 1, 2, 70000])
        with pytest.raises(ValueError):
            ThermalFrame(2, 2, [0, 1, 2, -1])

    def test_rejects_transposed_grid(self):
        with pytest.raises(ValueError):
            ThermalFrame(4, 2, np.zeros((4, 2), dtype=np.uint16))

    def test_pixels_are_read_only(self):
        frame = uniform_frame(4, 4, 7)
        with pytest.raises(ValueError):
            frame.pixels[0, 0] = 1

    # every source goes through the one conversion to native uint16
    @pytest.mark.parametrize("dtype", [np.uint16, ">u2", np.uint8, np.int64, list])
    def test_caller_array_is_copied(self, dtype):
        values = [[0, 7], [200, 255]]
        if dtype is list:
            source = values[0] + values[1]
            first = 0
        else:
            source = np.array(values, dtype=dtype)
            first = (0, 0)
        frame = ThermalFrame(2, 2, source)
        assert frame.pixels.dtype == np.uint16 and frame.pixels.dtype.isnative
        assert not frame.pixels.flags.writeable
        assert frame.pixels.tolist() == values
        source[first] = 9
        assert frame.pixels.tolist() == values

    def test_decoded_and_diff_frames_are_read_only_uint16_grids(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(make_frame([[1, 2, 3, 4], [5, 6, 7, 8]]), path)
        loaded = load_pgm(path)
        assert loaded.pixels.dtype == np.uint16
        assert loaded.pixels.shape == (loaded.height, loaded.width) == (2, 4)
        with pytest.raises(ValueError):
            loaded.pixels[0, 0] = 1
        diff = abs_diff(loaded, make_frame([[0, 0, 9, 9], [0, 0, 0, 0]]))
        assert diff.dtype == np.uint16
        assert diff.shape == (2, 4)


class TestPgm:
    def test_ascii_uniform_round_trip(self, tmp_path):
        # 4x4 PGM, all pixels 100
        path = tmp_path / "u.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + b" ".join([b"100"] * 16))
        frame = load_pgm(path)
        assert frame.width == 4 and frame.height == 4
        assert np.all(frame.pixels == 100)

    def test_declared_160x120_with_19199_values(self, tmp_path):
        path = tmp_path / "short.pgm"
        payload = b" ".join([b"5"] * 19199)
        path.write_bytes(b"P2\n160 120\n255\n" + payload)
        with pytest.raises(PgmError, match="19200"):
            load_pgm(path)

    def test_8bit_value_255_not_rescaled(self, tmp_path):
        # independent writer: raw 8-bit P5 bytes assembled by hand
        path = tmp_path / "b8.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, 128, 7]))
        frame = load_pgm(path)
        assert frame.pixels.tolist() == [[255, 0], [128, 7]]
        # and the 16-bit re-write preserves the raw values
        out = tmp_path / "b16.pgm"
        write_pgm(frame, out)
        assert load_pgm(out).pixels.tolist() == [[255, 0], [128, 7]]

    def test_write_uses_maxval_65535_and_big_endian(self, tmp_path):
        frame = make_frame([[40000, 1], [2, 3]])
        path = tmp_path / "w.pgm"
        write_pgm(frame, path)
        data = path.read_bytes()
        header, payload = data[: data.index(b"65535\n") + 6], data[data.index(b"65535\n") + 6 :]
        assert header == b"P5\n2 2\n65535\n"
        # independent decode: struct big-endian shorts
        assert struct.unpack(">4H", payload) == (40000, 1, 2, 3)

    def test_binary_16bit_round_trip(self, tmp_path):
        frame = make_frame([[0, 65535], [1234, 40000]])
        path = tmp_path / "rt.pgm"
        write_pgm(frame, path)
        back = load_pgm(path)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_16bit_payload_reaches_the_frame_aligned(self, tmp_path, monkeypatch):
        # numpy's byte-swapping cast is several times slower from an
        # unaligned buffer; this 13-byte header puts the payload at an odd
        # offset of the file
        header = b"P5\n2 2\n65535\n"
        seen = []

        def spy(width, height, pixels, frame_index):
            seen.append((pixels.dtype.str, pixels.flags.aligned))
            return ThermalFrame(width, height, pixels, frame_index)

        monkeypatch.setattr(frame_module, "ThermalFrame", spy)
        path = tmp_path / "odd.pgm"
        path.write_bytes(header + struct.pack(">4H", 40000, 1, 258, 65535))
        assert load_pgm(path).pixels.tolist() == [[40000, 1], [258, 65535]]
        assert seen == [(">u2", True)]

    @settings(max_examples=40, deadline=None)
    @given(frame=frames())
    def test_round_trip_property(self, frame, tmp_path_factory):
        path = tmp_path_factory.mktemp("pgm") / "f.pgm"
        write_pgm(frame, path)
        back = load_pgm(path)
        assert (back.width, back.height) == (frame.width, frame.height)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# camera dump\n2 2 # dims\n255\n1 2 3 4")
        assert load_pgm(path).pixels.tolist() == [[1, 2], [3, 4]]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(PgmError, match="P2/P5"):
            load_pgm(path)

    def test_rejects_maxval_over_65535(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n2 2\n70000\n1 2 3 4")
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(path)

    def test_rejects_odd_dimensions(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P2\n3 2\n255\n1 2 3 4 5 6")
        with pytest.raises(PgmError, match="even"):
            load_pgm(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2")
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(path)

    def test_rejects_sample_above_maxval(self, tmp_path):
        path = tmp_path / "s.pgm"
        path.write_bytes(b"P2\n2 2\n100\n1 2 3 200")
        with pytest.raises(PgmError, match="exceeds maxval"):
            load_pgm(path)

    def test_rejects_truncated_binary_payload(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(7))
        with pytest.raises(PgmError, match="payload"):
            load_pgm(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count open descriptors")
    def test_every_outcome_closes_the_file(self, tmp_path, monkeypatch):
        good = tmp_path / "good.pgm"
        good.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        (tmp_path / "dir.pgm").mkdir()
        cases = {
            "absent.pgm": None,
            "dir.pgm": None,
            "truncated.pgm": b"P5\n2 2\n65535\n" + bytes(7),
            "header.pgm": b"P5\n2 x\n65535\n" + bytes(8),
            "maxval.pgm": b"P2\n2 2\n100\n1 2 3 200\n",
        }
        for name, data in cases.items():
            if data is not None:
                (tmp_path / name).write_bytes(data)
        before = len(os.listdir("/proc/self/fd"))
        # with no header kept, and with one
        for keep_header in (False, True):
            for name in cases:
                if keep_header:
                    load_pgm(good)
                else:
                    monkeypatch.setattr(frame_module, "_last_header", None)
                with pytest.raises((OSError, PgmError)):
                    load_pgm(tmp_path / name)
        assert len(os.listdir("/proc/self/fd")) == before

    # Netpbm numbers are ASCII decimal digits, and the magic is a whole token
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2\n2 2\n+255\n1 2 3 4", "malformed header"),
            (b"P2\n2 2\n255\n1_2 2 3 4", "non-numeric sample"),
            (b"P22\n2 2\n255\n1 2 3 4", "P2/P5"),
        ],
        ids=["plus-sign-maxval", "underscore-sample", "magic-P22"],
    )
    def test_rejects_non_digit_numbers_and_long_magic(self, tmp_path, data, message):
        path = tmp_path / "n.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmError, match=message):
            load_pgm(path)

    @settings(max_examples=300, deadline=None)
    @given(
        magic=st.sampled_from([b"P2", b"P5"]),
        body=st.one_of(
            st.binary(max_size=64),
            # header-like bytes reach the payload checks more often
            st.lists(
                st.sampled_from(
                    [b" ", b"\n", b"#", b"+", b"-", b"_", b"x", b"\xff", b"0", b"2",
                     b"4", b"255", b"65535", b"70000", b"\x00\x01"]
                ),
                max_size=24,
            ).map(b"".join),
        ),
    )
    def test_arbitrary_bytes_give_a_frame_or_pgm_error(
        self, magic, body, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("fuzz") / "f.pgm"
        path.write_bytes(magic + body)
        try:
            frame = load_pgm(path)
        except PgmError:
            return
        assert frame.width >= 2 and frame.height >= 2
        assert frame.width % 2 == 0 and frame.height % 2 == 0
        assert frame.pixels.dtype == np.uint16
        assert frame.pixels.shape == (frame.height, frame.width)
        assert not frame.pixels.flags.writeable


class TestReadFile:
    """`load_pgm` reads a regular file in one `os.read`, and reads anything
    else, a pipe or a file longer than fstat says, on to its end."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The byte counts `os.read` is asked for."""
        asked = []
        read = os.read

        def counted(fd, n):
            asked.append(n)
            return read(fd, n)

        monkeypatch.setattr(os, "read", counted)
        return asked

    @pytest.fixture
    def written(self, tmp_path):
        """A 160x120 frame written as a regular file, and its bytes."""
        rng = np.random.default_rng(3)
        frame = ThermalFrame(160, 120, rng.integers(0, 65536, (120, 160), dtype=np.uint16))
        path = tmp_path / "frame.pgm"
        write_pgm(frame, path)
        return frame, path

    def test_a_regular_file_takes_one_read(self, reads, written):
        frame, path = written
        assert np.array_equal(load_pgm(path).pixels, frame.pixels)
        assert reads == [path.stat().st_size + 1]

    def test_a_file_longer_than_fstat_says_is_read_whole(self, monkeypatch, reads, written):
        # as if the file grew by 100 bytes between fstat and read
        frame, path = written
        fstat = os.fstat

        def stale(fd):
            info = fstat(fd)
            return os.stat_result(info[:6] + (info.st_size - 100,) + info[7:10])

        monkeypatch.setattr(os, "fstat", stale)
        assert np.array_equal(load_pgm(path).pixels, frame.pixels)
        assert len(reads) > 2

    def test_a_fifo_written_in_pieces_reads_whole(self, tmp_path, reads, written):
        # fstat gives a FIFO size 0 and each read returns what the writer
        # has written so far, so only an empty read ends it
        _, path = written
        data = path.read_bytes()
        fifo = tmp_path / "fifo.pgm"
        os.mkfifo(fifo)

        def writer():
            with open(fifo, "wb", buffering=0) as out:
                for piece in (data[:5], data[5:20000], data[20000:]):
                    out.write(piece)
                    time.sleep(0.05)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            loaded = load_pgm(fifo)
        finally:
            thread.join(timeout=10)
        assert np.array_equal(loaded.pixels, load_pgm(path).pixels)


class TestAbsDiff:
    def test_identical_frames_give_zero(self):
        frame = make_frame([[10, 20], [30, 40]])
        assert np.all(abs_diff(frame, frame) == 0)

    def test_hand_values(self):
        a = make_frame([[10, 20], [7, 7]])
        b = make_frame([[20, 5], [7, 7]])
        assert abs_diff(a, b).tolist() == [[10, 15], [0, 0]]

    def test_matches_scalar_oracle_on_random_pair(self, rng):
        a = ThermalFrame(160, 120, rng.integers(0, 65536, size=(120, 160), dtype=np.uint16))
        b = ThermalFrame(160, 120, rng.integers(0, 65536, size=(120, 160), dtype=np.uint16))
        got = abs_diff(a, b)
        for y in range(0, 120, 7):
            for x in range(0, 160, 7):
                expect = abs(int(a.pixels[y, x]) - int(b.pixels[y, x]))
                assert int(got[y, x]) == expect

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            abs_diff(uniform_frame(4, 4, 0), uniform_frame(4, 2, 0))

    @settings(max_examples=25, deadline=None)
    @given(frames(), st.randoms())
    def test_symmetry(self, a, random):
        values = [random.randint(0, 65535) for _ in range(a.width * a.height)]
        b = ThermalFrame(a.width, a.height, np.array(values, dtype=np.uint16))
        assert np.array_equal(abs_diff(a, b), abs_diff(b, a))


class TestFrameMean:
    """The exact frame mean, as the quadrant detector computes it."""

    def test_uniform(self):
        assert roi_analyze(uniform_frame(8, 6, 100)).frame_mean == 100.0

    def test_quadrant_weighted_hand_value(self):
        # (200*4 + 100*12) / 16
        frame = make_frame(
            [[200, 200, 100, 100]] * 2 + [[100, 100, 100, 100]] * 2
        )
        assert roi_analyze(frame).frame_mean == 125.0

    def test_all_zero(self):
        assert roi_analyze(uniform_frame(4, 4, 0)).frame_mean == 0.0

    def test_no_overflow_at_full_scale(self):
        for width, height in [(160, 120), (640, 480)]:
            frame = uniform_frame(width, height, 65535)
            assert roi_analyze(frame).frame_mean == 65535.0

    @settings(max_examples=25, deadline=None)
    @given(frames())
    def test_equals_mean_of_quadrant_means(self, frame):
        hh, hw = frame.height // 2, frame.width // 2
        p = frame.pixels
        quadrant_means = [
            block.mean(dtype=np.float64)
            for block in (p[:hh, :hw], p[:hh, hw:], p[hh:, :hw], p[hh:, hw:])
        ]
        result = roi_analyze(frame)
        assert result.frame_mean == pytest.approx(np.mean(quadrant_means), abs=1e-9)
        assert result.frame_mean == pytest.approx(p.mean(dtype=np.float64), abs=1e-9)


def quadrant_coded_frame(width, height):
    """Every pixel holds its quadrant's number plus one, split at the
    midlines: Q0 top-left, Q1 top-right, Q2 bottom-left, Q3 bottom-right."""
    hw, hh = width // 2, height // 2
    pixels = np.empty((height, width), dtype=np.uint16)
    pixels[:hh, :hw], pixels[:hh, hw:] = 1, 2
    pixels[hh:, :hw], pixels[hh:, hw:] = 3, 4
    return ThermalFrame(width, height, pixels)


class TestSplitQuadrants:
    """The 2x2 split and `QuadrantId` order of the quadrant detector."""

    def test_160x120_gives_80x60(self):
        # a split off the midlines would mix two codes into a fractional mean
        means = roi_analyze(quadrant_coded_frame(160, 120)).quadrant_means
        assert [means[q] for q in QuadrantId] == [1.0, 2.0, 3.0, 4.0]

    def test_4x4_gives_2x2(self):
        means = roi_analyze(quadrant_coded_frame(4, 4)).quadrant_means
        assert [means[q] for q in QuadrantId] == [1.0, 2.0, 3.0, 4.0]

    @settings(max_examples=25, deadline=None)
    @given(even_dims, st.data())
    def test_tiling_covers_each_pixel_once(self, dims, data):
        # one hot pixel counts in its own quadrant's sum, and in no other
        width, height = dims
        x = data.draw(st.integers(0, width - 1))
        y = data.draw(st.integers(0, height - 1))
        pixels = np.zeros((height, width), dtype=np.uint16)
        pixels[y, x] = 1000
        means = roi_analyze(ThermalFrame(width, height, pixels)).quadrant_means
        quad_count = (width // 2) * (height // 2)
        owner = QuadrantId(2 * (y >= height // 2) + (x >= width // 2))
        assert means == tuple(1000 / quad_count if q is owner else 0.0 for q in QuadrantId)


class TestReplayDir:
    def test_lexicographic_order_and_indices(self, tmp_path):
        for name, value in [("b.pgm", 2), ("a.pgm", 1), ("c.pgm", 3)]:
            write_pgm(uniform_frame(4, 4, value), tmp_path / name)
        frames_seen = list(replay_dir(tmp_path))
        assert [f.pixels[0, 0] for f in frames_seen] == [1, 2, 3]
        assert [f.frame_index for f in frames_seen] == [0, 1, 2]

    def test_dimension_change_rejected(self, tmp_path):
        write_pgm(uniform_frame(4, 4, 0), tmp_path / "0.pgm")
        write_pgm(uniform_frame(6, 4, 0), tmp_path / "1.pgm")
        with pytest.raises(PgmError, match="dimension change"):
            list(replay_dir(tmp_path))

    def test_empty_dir_yields_nothing(self, tmp_path):
        assert list(replay_dir(tmp_path)) == []

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(NotADirectoryError, match="no such directory"):
            list(replay_dir(tmp_path / "absent"))
