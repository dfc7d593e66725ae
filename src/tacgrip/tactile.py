"""Tactile frames.

The perception pipeline consumes grayscale frames of a fixed working size
(640x480 by default) with intensities normalized to [0, 1].
"""

from dataclasses import dataclass

import numpy as np

FRAME_WIDTH = 640
FRAME_HEIGHT = 480


@dataclass(frozen=True)
class TactileFrame:
    """One grayscale frame.

    pixels: (height, width) float64 array with intensities in [0, 1].
    timestamp: seconds, strictly increasing within one finger's stream.
    finger_id: 1 or 2.
    """

    pixels: np.ndarray
    timestamp: float
    finger_id: int = 1

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def height(self):
        return self.pixels.shape[0]

    def validate(self):
        if self.pixels.ndim != 2:
            raise ValueError("frame pixels must be 2-D")
        # NaN fails every comparison, so it would pass the range check.
        if not np.isfinite(self.pixels).all():
            raise ValueError("frame pixels contain NaN or infinite values")
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"intensities outside [0,1]: min={lo} max={hi}")
        if self.finger_id not in (1, 2):
            raise ValueError(f"finger_id must be 1 or 2, got {self.finger_id}")
        return self
