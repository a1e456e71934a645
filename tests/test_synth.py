import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thermal_sentry.evaluate import Method, run_eval
from thermal_sentry.frame import QuadrantId
from thermal_sentry.motion import MotionState, motion_step
from thermal_sentry.synth import (
    BlobSpec,
    SceneError,
    SceneSpec,
    blob_center,
    frame_label,
    generate,
    parse_scene,
    render_frame,
    standard_normals,
)

# The plain formulas render_frame and standard_normals compute, over the
# whole frame at once. The render, a band of rows at a time, must give the
# same bytes.
_MASK64, _GOLDEN = 2**64 - 1, 0x9E3779B97F4A7C15


def formula_mix64(z):
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def formula_normals(seed, frame_index, count):
    start = (seed + (frame_index + 1) * _GOLDEN) & _MASK64
    frame_seed = formula_mix64(np.array([start], dtype=np.uint64))[0]
    pairs = (count + 1) // 2
    ks = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    z = formula_mix64(frame_seed + ks * np.uint64(_GOLDEN))
    u = ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * math.pi * u[1::2]
    normals = np.empty(2 * pairs)
    normals[0::2] = radius * np.cos(theta)
    normals[1::2] = radius * np.sin(theta)
    return normals[:count]


def formula_pixels(spec, frame_index):
    xs = np.arange(spec.width, dtype=np.float64)
    ys = np.arange(spec.height, dtype=np.float64)[:, None]
    field = np.full(
        (spec.height, spec.width),
        spec.ambient + frame_index * spec.drift_per_frame,
        dtype=np.float64,
    )
    for blob in spec.blobs:
        cx, cy = blob_center(blob, frame_index)
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        field += blob.amplitude * np.exp(-d2 / (2.0 * blob.sigma**2))
    if spec.noise_sigma > 0:
        noise = formula_normals(spec.seed, frame_index, field.size)
        field += spec.noise_sigma * noise.reshape(field.shape)
    return np.clip(np.rint(field), 0, 65535).astype(np.uint16)


# 640x480 with the reference scene's people scaled x4, both in view
VGA_SCENE = SceneSpec(
    frames=100, width=640, height=480, ambient=60.0, drift_per_frame=0.01,
    noise_sigma=1.5, seed=7,
    blobs=(
        BlobSpec(900.0, 32.0, ((0, -100.0, 240.0), (99, 500.0, 300.0))),
        BlobSpec(700.0, 28.0, ((0, 600.0, 60.0), (99, 200.0, 420.0))),
        BlobSpec(250.0, 20.0, ((0, 520.0, 80.0),), is_human=False),
    ),
)


class TestSpecs:
    def test_blob_validation(self):
        with pytest.raises(SceneError):
            BlobSpec(0.0, 1.0, ((0, 1.0, 1.0),))
        with pytest.raises(SceneError):
            BlobSpec(10.0, 0.0, ((0, 1.0, 1.0),))
        with pytest.raises(SceneError):
            BlobSpec(10.0, 1.0, ())
        with pytest.raises(SceneError, match="increase"):
            BlobSpec(10.0, 1.0, ((5, 0.0, 0.0), (5, 1.0, 1.0)))

    def test_scene_validation(self):
        with pytest.raises(SceneError):
            SceneSpec(frames=0)
        with pytest.raises(SceneError):
            SceneSpec(frames=1, width=7)
        with pytest.raises(SceneError):
            SceneSpec(frames=1, noise_sigma=-1)


class TestBlobCenter:
    def test_single_waypoint_is_static(self):
        blob = BlobSpec(10.0, 1.0, ((5, 30.0, 40.0),))
        for t in (0, 5, 100):
            assert blob_center(blob, t) == (30.0, 40.0)

    def test_linear_interpolation(self):
        blob = BlobSpec(10.0, 1.0, ((10, 0.0, 0.0), (20, 10.0, 30.0)))
        assert blob_center(blob, 15) == (5.0, 15.0)
        assert blob_center(blob, 10) == (0.0, 0.0)
        assert blob_center(blob, 20) == (10.0, 30.0)

    def test_clamped_outside_waypoint_span(self):
        blob = BlobSpec(10.0, 1.0, ((10, 1.0, 2.0), (20, 3.0, 4.0)))
        assert blob_center(blob, 0) == (1.0, 2.0)
        assert blob_center(blob, 99) == (3.0, 4.0)

    def test_multi_segment(self):
        blob = BlobSpec(10.0, 1.0, ((0, 0.0, 0.0), (10, 10.0, 0.0), (30, 10.0, 20.0)))
        assert blob_center(blob, 20) == (10.0, 10.0)


class TestRenderFrame:
    def test_no_blobs_uniform_ambient(self):
        spec = SceneSpec(frames=3, width=8, height=6, ambient=500)
        for t in range(3):
            frame = render_frame(spec, t)
            assert np.all(frame.pixels == 500)
            assert frame.frame_index == t

    def test_drift_applies_per_frame(self):
        spec = SceneSpec(frames=5, width=8, height=6, ambient=100, drift_per_frame=5)
        assert np.all(render_frame(spec, 4).pixels == 120)

    def test_clamped_to_uint16(self):
        hot = SceneSpec(
            frames=1, width=8, height=6, ambient=65000,
            blobs=(BlobSpec(5000.0, 3.0, ((0, 4.0, 3.0),)),),
        )
        assert render_frame(hot, 0).pixels.max() == 65535
        cold = SceneSpec(frames=3, width=8, height=6, ambient=2, drift_per_frame=-5)
        assert render_frame(cold, 2).pixels.min() == 0

    def test_gaussian_peak_at_center(self):
        spec = SceneSpec(
            frames=1, width=16, height=12, ambient=0,
            blobs=(BlobSpec(1000.0, 2.0, ((0, 8.0, 6.0),)),),
        )
        pixels = render_frame(spec, 0).pixels
        assert pixels[6, 8] == 1000
        # hand value one sigma away along x: 1000 * exp(-4/8)
        assert pixels[6, 10] == round(1000 * np.exp(-0.5))


class TestNoise:
    def test_deterministic_per_seed_and_frame(self):
        a = standard_normals(42, 3, 1000)
        b = standard_normals(42, 3, 1000)
        assert np.array_equal(a, b)

    def test_distinct_frames_decorrelated(self):
        a = standard_normals(42, 3, 1000)
        b = standard_normals(42, 4, 1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_roughly_standard_normal(self):
        samples = standard_normals(7, 0, 200_000)
        assert abs(samples.mean()) < 0.01
        assert abs(samples.std() - 1.0) < 0.01

    def test_odd_count(self):
        assert standard_normals(1, 0, 7).shape == (7,)

    @pytest.mark.parametrize(
        "seed, frame_index",
        [
            (0, 0),
            (0, 1),  # 2*G passes 2**64
            (2**64 - 1, 0),  # seed + G passes 2**64
            (2**64 - 1, 5),
            (12345, 7),
        ],
    )
    def test_first_draws_match_the_spec(self, seed, frame_index):
        # the noise spec in synth.py's docstring, in Python ints and math
        mask, golden = 2**64 - 1, 0x9E3779B97F4A7C15

        def mix64(z):
            z ^= z >> 30
            z = (z * 0xBF58476D1CE4E5B9) & mask
            z ^= z >> 27
            z = (z * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        f = mix64((seed + (frame_index + 1) * golden) & mask)
        u = [((mix64((f + (k + 1) * golden) & mask) >> 11) + 1) * 2.0**-53
             for k in range(6)]
        expected = []
        for u1, u2 in zip(u[0::2], u[1::2]):
            radius = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            expected += [radius * math.cos(theta), radius * math.sin(theta)]
        got = standard_normals(seed, frame_index, 5)
        assert got.tolist() == pytest.approx(expected[:5], rel=1e-12, abs=1e-12)


class TestInPlaceMatchesFormula:
    """The render, which writes each band of rows in place into the frame's
    uint16 array, gives the bytes of the plain formulas."""

    @pytest.mark.parametrize("frame_index", [0, 40, 99])
    def test_vga_frame_with_noise_and_blobs(self, frame_index):
        got = render_frame(VGA_SCENE, frame_index).pixels
        assert np.array_equal(got, formula_pixels(VGA_SCENE, frame_index))

    @pytest.mark.parametrize("count", [1, 3, 7, 1001, 19_201])
    def test_odd_count(self, count):
        got = standard_normals(7, 3, count)
        assert got.shape == (count,)
        assert np.array_equal(got, formula_normals(7, 3, count))

    @pytest.mark.parametrize(
        "width, height",
        [
            (640, 50),  # 12-row bands and a last band of 2 rows
            (8194, 2),  # a row wider than a band: one row a band
            (2, 2),
        ],
    )
    def test_band_edges(self, width, height):
        spec = SceneSpec(
            frames=2, width=width, height=height, ambient=60.0, noise_sigma=1.5,
            seed=7, blobs=(BlobSpec(900.0, 3.0, ((0, width - 1.0, height / 2),)),),
        )
        assert np.array_equal(render_frame(spec, 1).pixels, formula_pixels(spec, 1))

    @pytest.mark.parametrize(
        "first, count", [(2, 7), (7680, 7680), (8194, 8195), (1_000_000, 1)]
    )
    def test_draws_from_an_even_first(self, first, count):
        got = standard_normals(7, 3, count, first=first)
        assert np.array_equal(got, formula_normals(7, 3, first + count)[first:])

    @pytest.mark.parametrize("first", [1, -2])
    def test_first_must_start_a_pair(self, first):
        with pytest.raises(ValueError, match="first must be even"):
            standard_normals(7, 3, 4, first=first)

    @pytest.mark.parametrize(
        "seed, frame_index",
        [
            (0, 1),  # 2*G passes 2**64
            (2**64 - 1, 0),  # seed + G passes 2**64
            (2**64 - 1, 5),
            (2**64 - _GOLDEN, 3),
        ],
    )
    def test_seed_that_wraps(self, seed, frame_index):
        assert np.array_equal(
            standard_normals(seed, frame_index, 4096),
            formula_normals(seed, frame_index, 4096),
        )
        spec = SceneSpec(
            frames=6, width=32, height=24, ambient=100.0, noise_sigma=3.0, seed=seed,
            blobs=(BlobSpec(400.0, 3.0, ((0, 4.0, 4.0), (5, 28.0, 20.0))),),
        )
        got = render_frame(spec, frame_index).pixels
        assert np.array_equal(got, formula_pixels(spec, frame_index))

    def test_transient_memory_of_a_vga_frame(self):
        # the plain formulas over the whole frame peak at about 7.5 fields
        # (17.6 MiB); in bands of rows the two uint16 frames (the render's
        # and the ThermalFrame's copy) and one band's arrays stay near 0.6
        spec = SceneSpec(
            frames=1, width=640, height=480, ambient=60.0, noise_sigma=1.5, seed=7,
            blobs=(BlobSpec(900.0, 32.0, ((0, 320.0, 240.0),)),),
        )
        field_bytes = spec.width * spec.height * np.dtype(np.float64).itemsize
        render_frame(spec, 0)  # first-call allocations are not the frame's
        tracemalloc.start()
        try:
            render_frame(spec, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * field_bytes


class TestLabels:
    def test_no_blobs_all_negative(self):
        spec = SceneSpec(frames=4, width=8, height=6)
        for t in range(4):
            label = frame_label(spec, t)
            assert not label.human_present
            assert not label.occupied_quadrants

    def test_equipment_blob_not_labeled(self):
        spec = SceneSpec(
            frames=2, width=8, height=6,
            blobs=(BlobSpec(500.0, 1.0, ((0, 2.0, 2.0),), is_human=False),),
        )
        assert not frame_label(spec, 0).human_present

    def test_walking_blob_crosses_quadrants(self):
        # Q0 -> Q3 diagonal over 40 frames on a 160x120 frame; the center
        # is at (20,15)+t*(3,2.25), so it crosses x=80 at t=20 and y=60 at t=20
        spec = SceneSpec(
            frames=41, width=160, height=120,
            blobs=(BlobSpec(800.0, 7.0, ((0, 20.0, 15.0), (40, 140.0, 105.0)),),),
        )
        for t in range(41):
            cx = 20 + 3.0 * t
            cy = 15 + 2.25 * t
            expected = QuadrantId(
                (0 if cx < 80 else 1) + (0 if cy < 60 else 2)
            )
            label = frame_label(spec, t)
            assert label.human_present
            assert label.occupied_quadrants == {expected}
        assert frame_label(spec, 19).occupied_quadrants == {QuadrantId.Q0}
        assert frame_label(spec, 20).occupied_quadrants == {QuadrantId.Q3}

    def test_offscreen_center_not_present(self):
        spec = SceneSpec(
            frames=10, width=16, height=12,
            blobs=(BlobSpec(800.0, 2.0, ((0, -5.0, 6.0), (9, 10.0, 6.0)),),),
        )
        # center x = -5 + 5t/3; inside from x >= 0 at t = 3
        assert not frame_label(spec, 0).human_present
        assert not frame_label(spec, 2).human_present
        assert frame_label(spec, 3).human_present

    def test_two_humans_two_quadrants(self):
        spec = SceneSpec(
            frames=1, width=16, height=12,
            blobs=(
                BlobSpec(500.0, 1.5, ((0, 3.0, 3.0),)),
                BlobSpec(500.0, 1.5, ((0, 12.0, 9.0),)),
            ),
        )
        assert frame_label(spec, 0).occupied_quadrants == {
            QuadrantId.Q0,
            QuadrantId.Q3,
        }

    def test_label_soundness_random_paths(self, rng):
        # independent geometric recomputation across random specs
        for _ in range(20):
            waypoints = sorted(rng.choice(50, size=3, replace=False))
            path = tuple(
                (int(t), float(rng.uniform(-20, 40)), float(rng.uniform(-20, 30)))
                for t in waypoints
            )
            spec = SceneSpec(
                frames=50, width=20, height=16,
                blobs=(BlobSpec(300.0, 2.0, path),),
            )
            for t in range(0, 50, 7):
                cx, cy = blob_center(spec.blobs[0], t)
                label = frame_label(spec, t)
                inside = 0 <= cx < 20 and 0 <= cy < 16
                assert label.human_present == inside
                if inside:
                    q = QuadrantId((0 if cx < 10 else 1) + (0 if cy < 8 else 2))
                    assert label.occupied_quadrants == {q}


class TestGenerate:
    def test_datasets_are_bit_identical(self, tmp_path):
        spec = SceneSpec(
            frames=6, width=16, height=12, ambient=80, noise_sigma=2.0, seed=11,
            blobs=(BlobSpec(400.0, 2.0, ((0, 2.0, 2.0), (5, 14.0, 10.0)),),),
        )
        ds1 = generate(spec, tmp_path / "one")
        ds2 = generate(spec, tmp_path / "two")
        for p1, p2 in zip(ds1.frame_paths, ds2.frame_paths):
            assert p1.read_bytes() == p2.read_bytes()
        assert ds1.labels_path.read_text() == ds2.labels_path.read_text()
        assert ds1.labels == ds2.labels

    def test_static_equipment_dataset_quiet_for_movement(self, tmp_path):
        spec = SceneSpec(
            frames=30, width=32, height=24, ambient=70, seed=3,
            blobs=(BlobSpec(800.0, 3.0, ((0, 8.0, 6.0),), is_human=False),),
        )
        ds = generate(spec, tmp_path / "equip")
        state = MotionState()
        positives = 0
        from thermal_sentry.frame import load_pgm
        for path in ds.frame_paths:
            positives += motion_step(state, load_pgm(path)).movement
        assert positives == 0

    def test_eval_consumes_generated_dataset(self, tmp_path):
        spec = SceneSpec(
            frames=12, width=32, height=24, ambient=60, seed=8,
            blobs=(BlobSpec(700.0, 2.5, ((0, 8.0, 6.0),)),),
        )
        ds = generate(spec, tmp_path / "ds")
        report = run_eval(ds.directory, ds.labels_path)
        assert report.frames_evaluated == 12
        assert report.matrices[Method.HYBRID].total == 12


class TestSceneFile:
    GOOD = """
# walking pair
width=160
height=120
frames=20
ambient=60
drift=0.02
noise_sigma=1.5
seed=7
blob=900,8,human,0:20:30,19:140:90
blob=250,5,object,0:130:20
"""

    def test_parse_good_file(self):
        spec = parse_scene(self.GOOD)
        assert spec.width == 160 and spec.height == 120
        assert spec.frames == 20
        assert spec.drift_per_frame == 0.02
        assert spec.noise_sigma == 1.5
        assert len(spec.blobs) == 2
        assert spec.blobs[0].is_human and not spec.blobs[1].is_human
        assert spec.blobs[0].path == ((0, 20.0, 30.0), (19, 140.0, 90.0))

    def test_frames_required(self):
        with pytest.raises(SceneError, match="frames"):
            parse_scene("width=16\nheight=12\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(SceneError, match="unknown key"):
            parse_scene("frames=5\nwobble=3\n")

    @pytest.mark.parametrize("text, message", [
        ("frames=10\nframes=20\n", "line 2: frames repeats line 1"),
        ("frames=4\nseed=1\nwidth=16\nSEED=1\n", "line 4: seed repeats line 2"),
        ("frames=4\ndrift=0.1\ndrift = 0.2\n", "line 3: drift repeats line 2"),
        # - in a key is _
        ("frames=4\nnoise-sigma=1\nnoise_sigma=2\n", "line 3: noise_sigma repeats line 2"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(SceneError, match=message):
            parse_scene(text)

    def test_blob_lines_repeat(self):
        spec = parse_scene("frames=4\nblob=900,2,human,0:1:1\nblob=900,2,human,0:1:1\n")
        assert len(spec.blobs) == 2

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("**Scene files**", 1)[1]
        block = section.split("```\n", 2)[1]
        spec = parse_scene(block)
        assert (spec.width, spec.height, spec.frames, spec.seed) == (160, 120, 1000, 7)
        assert [b.is_human for b in spec.blobs] == [True, False]

    def test_fps_is_an_unknown_key(self):
        with pytest.raises(SceneError, match="line 2: unknown key 'fps'"):
            parse_scene("frames=5\nfps=4\n")

    def test_bad_blob_kind_rejected(self):
        with pytest.raises(SceneError, match="human or object"):
            parse_scene("frames=5\nblob=10,2,ghost,0:1:1\n")

    def test_bad_waypoint_rejected(self):
        with pytest.raises(SceneError, match="waypoint"):
            parse_scene("frames=5\nblob=10,2,human,0:1\n")

    # every float a scene file sets, with the setting or blob line that
    # carries it; VALUE is the number under test
    NON_FINITE_FIELDS = {
        "ambient": "ambient=VALUE",
        "drift": "drift=VALUE",
        "noise_sigma": "noise_sigma=VALUE",
        "blob amplitude": "blob=VALUE,2,human,0:4:4",
        "blob sigma": "blob=900,VALUE,human,0:4:4",
        "waypoint x": "blob=900,2,human,0:4:4,3:VALUE:4",
        "waypoint y": "blob=900,2,human,0:4:4,3:4:VALUE",
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    def test_non_finite_number_rejected(self, field, value):
        line = self.NON_FINITE_FIELDS[field].replace("VALUE", value)
        with pytest.raises(SceneError, match="finite"):
            parse_scene(f"frames=4\nwidth=8\nheight=8\n{line}\n")

    def test_bad_number_rejected(self):
        with pytest.raises(SceneError, match="bad value"):
            parse_scene("frames=abc\n")
