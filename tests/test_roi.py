import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermal_sentry import QuadrantId, RoiConfig, ThermalFrame, roi_analyze
from conftest import make_frame, uniform_frame


def quadrant_frame(q0, q1, q2, q3):
    """4x4 frame with one uniform value per quadrant."""
    return make_frame(
        [[q0, q0, q1, q1]] * 2 + [[q2, q2, q3, q3]] * 2
    )


class TestConfig:
    def test_defaults(self):
        cfg = RoiConfig()
        assert cfg.ratio == 1.20
        assert cfg.min_quadrant_mean == 1

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            RoiConfig(ratio=0.99)

    @pytest.mark.parametrize("ratio", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match="finite"):
            RoiConfig(ratio=ratio)

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            RoiConfig(min_quadrant_mean=-1)


class TestRoiAnalyze:
    def test_uniform_frame_has_no_flags(self):
        result = roi_analyze(uniform_frame(8, 6, 100))
        assert result.frame_mean == 100.0
        assert all(m == 100.0 for m in result.quadrant_means.values())
        assert not result.any
        assert not any(result.flags.values())

    def test_hand_example_one_hot_quadrant(self):
        # means: Q0=200 rest 100; frame mean 125; bar 150, so only Q0
        result = roi_analyze(quadrant_frame(200, 100, 100, 100))
        assert result.frame_mean == 125.0
        assert result.quadrant_means[QuadrantId.Q0] == 200.0
        assert result.flags == {
            QuadrantId.Q0: True,
            QuadrantId.Q1: False,
            QuadrantId.Q2: False,
            QuadrantId.Q3: False,
        }
        assert result.any

    def test_all_zero_frame_is_negative(self):
        result = roi_analyze(uniform_frame(4, 4, 0))
        assert result.frame_mean == 0.0
        assert not result.any

    def test_exact_boundary_is_not_flagged(self):
        # Q0 mean 9, others 7: frame mean 7.5 and 9 == 1.2 * 7.5 exactly.
        # "more than 20% above" is strict, so no flag; a binary-float
        # comparison (1.2 * 7.5 == 8.999999...) would get this wrong.
        result = roi_analyze(quadrant_frame(9, 7, 7, 7))
        assert result.frame_mean == 7.5
        assert not result.flags[QuadrantId.Q0]
        assert not result.any

    def test_just_above_boundary_is_flagged(self):
        # raise one Q0 pixel: mean 9.25 > 9.0 bar
        frame = make_frame([[10, 9, 7, 7], [9, 9, 7, 7], [7, 7, 7, 7], [7, 7, 7, 7]])
        result = roi_analyze(frame)
        assert result.flags[QuadrantId.Q0]

    def test_min_quadrant_mean_guard(self):
        frame = quadrant_frame(2, 0, 0, 0)
        assert roi_analyze(frame).flags[QuadrantId.Q0]  # mean 2 >= default floor 1
        assert not roi_analyze(frame, RoiConfig(min_quadrant_mean=5)).any

    def test_equal_quadrants_never_flag_for_ratio_above_one(self):
        for ratio in (1.001, 1.2, 2.0):
            result = roi_analyze(uniform_frame(6, 4, 5000), RoiConfig(ratio=ratio))
            assert not result.any

    def test_adjustable_ratio(self):
        frame = quadrant_frame(125, 100, 100, 100)  # frame mean 106.25
        assert not roi_analyze(frame).any  # bar 127.5
        assert roi_analyze(frame, RoiConfig(ratio=1.10)).any  # bar 116.875

    def test_statelessness(self):
        frame = quadrant_frame(200, 100, 100, 100)
        assert roi_analyze(frame) == roi_analyze(frame)

    def test_any_is_disjunction(self):
        for frame in (quadrant_frame(200, 100, 100, 100), uniform_frame(4, 4, 9)):
            result = roi_analyze(frame)
            assert result.any == any(result.flags.values())

    @settings(max_examples=30, deadline=None)
    @given(
        quads=st.tuples(*[st.integers(0, 2000)] * 4),
        k=st.integers(1, 30),
    )
    def test_scaling_preserves_flags(self, quads, k):
        base = roi_analyze(quadrant_frame(*quads))
        scaled = roi_analyze(quadrant_frame(*[q * k for q in quads]))
        assert scaled.frame_mean == pytest.approx(base.frame_mean * k)
        for q in QuadrantId:
            assert scaled.quadrant_means[q] == pytest.approx(base.quadrant_means[q] * k)
            # the ratio test is scale-invariant; the floor can only be easier
            # to meet after scaling up, so a set flag never clears
            if base.flags[q]:
                assert scaled.flags[q]
