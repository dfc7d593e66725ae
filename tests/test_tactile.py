import numpy as np
import pytest

from tacgrip.tactile import TactileFrame


def test_frame_validate_checks_range_and_finger():
    ok = TactileFrame(pixels=np.zeros((10, 10)), timestamp=0.0)
    assert ok.validate() is ok
    with pytest.raises(ValueError):
        TactileFrame(pixels=np.full((4, 4), 1.5), timestamp=0.0).validate()
    with pytest.raises(ValueError):
        TactileFrame(pixels=np.zeros((4, 4)), timestamp=0.0,
                     finger_id=3).validate()
    with pytest.raises(ValueError):
        TactileFrame(pixels=np.zeros(16), timestamp=0.0).validate()
