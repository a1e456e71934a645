"""The detection envelope: the weakest blob each detector sees, against
closed forms.

A Gaussian blob of amplitude A and width sigma that sits wholly inside one
quadrant of a W x H frame over ambient `amb` adds a mass of about
M = 2*pi*sigma**2*A to that quadrant.

- Method B flags the quadrant when 4*s_q > r*F, with the quadrant sum
  s_q = amb*W*H/4 + M and the frame sum F = amb*W*H + M: when
  A > W*H*amb*(r-1) / ((4-r)*2*pi*sigma**2). The limit grows linearly with
  the ambient, the sensor's zero offset in raw counts.
- Method A, with an empty frame as its background, counts the pixels where
  the blob adds at least delta (`active_delta`): a disc of area
  2*pi*sigma**2*ln(A/delta), which reaches the fraction p
  (`active_fraction`) of the frame when A >= delta*exp(p*W*H/(2*pi*sigma**2)).
  The ambient cancels in the difference.
- A blob at the frame centre splits its mass about evenly across the four
  quadrants, so 4*s_q stays near F and Method B never flags it.

Each limit is found by bisection on 160x120 frames rendered in memory with
the default detector settings and sigma 8, with no dataset on disk.
"""

import math

import pytest

from thermal_sentry.motion import MotionConfig, MotionState, motion_step
from thermal_sentry.roi import RoiConfig, roi_analyze
from thermal_sentry.synth import BlobSpec, SceneSpec, render_frame

W, H, SIGMA = 160, 120, 8.0
Q0_CENTRE = (40.0, 30.0)  # 3.75 sigma from the nearest quadrant edge


def render(ambient, noise, amplitude=None, centre=Q0_CENTRE):
    """Frame 1 of a scene with the reference's seed: the ambient field and,
    given an amplitude, one static blob. Without noise each frame of a scene
    is the same; with it, frame 0 and frame 1 draw different noise."""
    blobs = () if amplitude is None else (BlobSpec(amplitude, SIGMA, ((0, *centre),)),)
    spec = SceneSpec(2, W, H, ambient=ambient, noise_sigma=noise, seed=7, blobs=blobs)
    return render_frame(spec, 1)


def weakest(fires, lo=1.0, hi=50_000.0):
    """The smallest amplitude at which `fires` holds, to 0.01%, for a
    `fires` that switches once from False to True between lo and hi."""
    assert not fires(lo) and fires(hi)
    while hi - lo > 1e-4 * hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if fires(mid) else (mid, hi)
    return hi


def method_b_limit(ambient, noise):
    return weakest(lambda a: roi_analyze(render(ambient, noise, a)).flags[0])


def method_a_limit(ambient, noise):
    background = render_frame(SceneSpec(1, W, H, ambient=ambient, noise_sigma=noise, seed=7), 0)

    def fires(amplitude):
        state = MotionState()
        motion_step(state, background)
        return motion_step(state, render(ambient, noise, amplitude)).movement

    return weakest(fires)


def method_b_closed_form(ambient):
    r = RoiConfig().roi_ratio
    return W * H * ambient * (r - 1) / ((4 - r) * 2 * math.pi * SIGMA**2)


def method_a_closed_form():
    config = MotionConfig()
    return config.active_delta * math.exp(
        config.active_fraction * W * H / (2 * math.pi * SIGMA**2))


@pytest.mark.parametrize("noise", [0.0, 1.5])
@pytest.mark.parametrize("ambient", [60, 600])
def test_method_b_limit_matches_its_closed_form(ambient, noise):
    # 204.63 counts at ambient 60 and 2,046.28 at ambient 600; rounding the
    # rendered pixels puts the noise-free limit about 0.3% above at 60
    assert method_b_limit(ambient, noise) == pytest.approx(method_b_closed_form(ambient),
                                                           rel=0.01)


@pytest.mark.parametrize("noise", [0.0, 1.5])
def test_method_a_limit_matches_its_closed_form_at_every_ambient(noise):
    # 217.69 counts; the disc of active pixels is counted on the pixel grid,
    # which puts the limit about 3% below
    limits = [method_a_limit(ambient, noise) for ambient in (60, 600)]
    assert limits[0] == pytest.approx(method_a_closed_form(), rel=0.05)
    assert limits[1] == limits[0]


@pytest.mark.parametrize("ambient", [60, 600])
def test_method_b_never_flags_a_blob_at_the_frame_centre(ambient):
    for amplitude in range(50, 5001, 50):
        assert not roi_analyze(render(ambient, 0.0, amplitude, (W / 2, H / 2))).any
