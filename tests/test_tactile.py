import copy
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="timestamp .* is not finite"):
            TactileFrame(pixels=np.zeros((4, 4), np.uint8),
                         timestamp=bad).validate()


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


def _pipeline_with_two_contacts(nominal_model, reference_frame):
    """A calibrated pipeline whose track holds two contacts, and the
    second contact's frame."""
    pipe = tg.FingerPipeline(1)
    pipe.calibrate(reference_frame)
    for seq in range(2):
        touched = tg.render_frame(
            tg.displace_markers(nominal_model, tg.ContactStimulus(
                x=300.0 + 5.0 * seq, y=240.0, depth=3.0, radius=40.0,
                timestamp=0.033 * seq)),
            nominal_model, finger_id=1, seq=seq)
        assert pipe.process(touched).center is not None
    return pipe, touched


def test_rejected_frame_leaves_window_and_track(nominal_model,
                                                reference_frame):
    # The detector's own frame check fires before the pipeline grows its
    # window or extends its track.
    pipe, touched = _pipeline_with_two_contacts(nominal_model,
                                                reference_frame)
    window, track = pipe.window, copy.deepcopy(pipe.track)
    assert len(track.displacements) == 1
    float_frame = dataclasses.replace(
        touched, pixels=touched.pixels.astype(np.float64), timestamp=0.066)
    with pytest.raises(ValueError, match="dtype float64"):
        pipe.process(float_frame)
    assert pipe.window == window
    assert pipe.track == track


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_timestamp_leaves_window_and_track(nominal_model,
                                                      reference_frame, bad):
    # A NaN time compares false with any other, so a track holding one
    # would take any time after it.
    pipe, touched = _pipeline_with_two_contacts(nominal_model,
                                                reference_frame)
    window, track = pipe.window, copy.deepcopy(pipe.track)
    with pytest.raises(ValueError, match="not finite"):
        pipe.process(dataclasses.replace(touched, timestamp=bad))
    assert pipe.window == window
    assert pipe.track == track
    assert pipe.process(dataclasses.replace(touched, timestamp=0.066)
                        ).center is not None
    assert pipe.track.timestamps == track.timestamps + [0.066]
