"""Tactile frames.

The perception pipeline consumes 8-bit grayscale frames, as a camera
delivers them, of a fixed working size (640x480 by default).
"""

import math
from dataclasses import dataclass

import numpy as np

FRAME_WIDTH = 640
FRAME_HEIGHT = 480


@dataclass(frozen=True)
class TactileFrame:
    """One grayscale frame.

    pixels: (height, width) uint8 array; every byte is a valid intensity.
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
        # A float frame would be read on the wrong scale, and its NaN or
        # out-of-range values have no byte to stand for them.
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"frame pixels must be uint8 intensities, got "
                             f"dtype {self.pixels.dtype}")
        if self.finger_id not in (1, 2):
            raise ValueError(f"finger_id must be 1 or 2, got {self.finger_id}")
        if not math.isfinite(self.timestamp):
            raise ValueError(f"frame timestamp {self.timestamp} is not finite")
        return self
