import numpy as np
import pytest

from thermal_sentry.frame import ThermalFrame


def make_frame(values, frame_index=0):
    """Frame from a nested list / 2D array (rows are image rows)."""
    arr = np.asarray(values)
    return ThermalFrame(arr.shape[1], arr.shape[0], arr, frame_index=frame_index)


def uniform_frame(width, height, value, frame_index=0):
    return ThermalFrame(
        width, height, np.full((height, width), value, dtype=np.uint16),
        frame_index=frame_index,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
