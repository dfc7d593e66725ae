import dataclasses

import numpy as np
import pytest

import tacgrip as tg
from tacgrip.tactile import TactileFrame


def test_frame_validate_checks_range_and_finger():
    ok = TactileFrame(pixels=np.zeros((10, 10), np.uint8), timestamp=0.0)
    assert ok.validate() is ok
    with pytest.raises(ValueError, match="dtype float64"):
        TactileFrame(pixels=np.full((4, 4), 1.5), timestamp=0.0).validate()
    with pytest.raises(ValueError):
        TactileFrame(pixels=np.zeros((4, 4), np.uint8), timestamp=0.0,
                     finger_id=3).validate()
    with pytest.raises(ValueError):
        TactileFrame(pixels=np.zeros(16, np.uint8), timestamp=0.0).validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frame_validate_rejects_non_finite(bad):
    pixels = np.full((4, 4), 0.5)
    pixels[2, 1] = bad
    with pytest.raises(ValueError, match="dtype float64"):
        TactileFrame(pixels=pixels, timestamp=0.0).validate()


def test_pipeline_validates_frames(reference_frame):
    pipe = tg.FingerPipeline(1)
    nan_frame = dataclasses.replace(
        reference_frame, pixels=reference_frame.pixels.astype(np.float64))
    nan_frame.pixels[240, 320] = np.nan
    with pytest.raises(ValueError, match="dtype float64"):
        pipe.calibrate(nan_frame)
    pipe.calibrate(reference_frame)
    with pytest.raises(ValueError, match="dtype float64"):
        pipe.process(nan_frame)
