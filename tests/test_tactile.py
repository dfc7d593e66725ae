import re

import numpy as np
import pytest

import tacgrip as tg
from tacgrip.pgm import check_frame


def test_check_frame_checks_shape_and_dtype():
    check_frame(np.zeros((10, 10), np.uint8))
    with pytest.raises(ValueError, match="dtype float64"):
        check_frame(np.full((4, 4), 1.5))
    with pytest.raises(ValueError, match="must be 2-D"):
        check_frame(np.zeros(16, np.uint8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frame_validate_rejects_non_finite(bad):
    pixels = np.full((4, 4), 0.5)
    pixels[2, 1] = bad
    with pytest.raises(ValueError, match="dtype float64"):
        check_frame(pixels)


def test_pipeline_validates_frames(reference_frame):
    pipe = tg.FingerPipeline(1)
    nan_frame = reference_frame.astype(np.float64)
    nan_frame[240, 320] = np.nan
    with pytest.raises(ValueError, match="dtype float64"):
        pipe.calibrate(nan_frame)
    pipe.calibrate(reference_frame)
    with pytest.raises(ValueError, match="dtype float64"):
        pipe.process(nan_frame)


def _pipeline_with_two_contacts(nominal_model, reference_frame):
    """A calibrated pipeline that has seen two contacts, and the second
    contact's frame."""
    pipe = tg.FingerPipeline(1)
    pipe.calibrate(reference_frame)
    for seq in range(2):
        touched = tg.render_frame(
            tg.displace_markers(nominal_model, tg.ContactStimulus(
                x=300.0 + 5.0 * seq, y=240.0, depth=3.0, radius=40.0)),
            nominal_model, finger_id=1, seq=seq)
        assert pipe.process(touched).center is not None
    return pipe, touched


def test_rejected_frame_leaves_window_and_track(nominal_model,
                                                reference_frame):
    # The detector's own frame check fires before the pipeline grows its
    # window.
    pipe, touched = _pipeline_with_two_contacts(nominal_model,
                                                reference_frame)
    window = pipe.window
    with pytest.raises(ValueError, match="dtype float64"):
        pipe.process(touched.astype(np.float64))
    assert pipe.window == window


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_frame_with_no_pixel_is_refused(nominal_model, reference_frame,
                                        shape):
    # numpy's edge padding failed on such a frame with "can't extend
    # empty axis"; the frame check names its shape instead.
    empty = np.zeros(shape, np.uint8)
    message = re.escape(f"frame has no pixel: its shape is {shape}")
    with pytest.raises(ValueError, match=message):
        check_frame(empty)
    with pytest.raises(ValueError, match=message):
        tg.detect_markers(empty)
    with pytest.raises(ValueError, match=message):
        tg.FingerPipeline(1).calibrate(empty)
    pipe, touched = _pipeline_with_two_contacts(nominal_model,
                                                reference_frame)
    window = pipe.window
    with pytest.raises(ValueError, match=message):
        pipe.process(empty)
    assert pipe.window == window
    assert pipe.process(touched).center is not None
