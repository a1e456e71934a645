import math

import numpy as np
import pytest

from thermal_sentry import (
    BlobSpec,
    Method,
    QuadrantId,
    SceneError,
    SceneSpec,
    blob_center,
    frame_label,
    generate,
    motion_init,
    motion_step,
    parse_scene,
    render_frame,
    run_eval,
)
from thermal_sentry.synth import standard_normals


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
        state = motion_init()
        positives = 0
        from thermal_sentry import load_pgm
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
fps=4
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
        "fps": "fps=VALUE",
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
