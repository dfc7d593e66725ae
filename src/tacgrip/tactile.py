"""Tactile frames.

A frame is a (height, width) uint8 array of grayscale intensities, as a
camera delivers it, of a fixed working size (640x480 by default). It
carries no time or finger: each finger's pipeline reads its own camera,
and the caller knows when it asked for the frame.
"""

import numpy as np

FRAME_WIDTH = 640
FRAME_HEIGHT = 480


def check_frame(pixels):
    """Raise ValueError unless `pixels` is a 2-D uint8 array with at
    least one pixel."""
    if pixels.ndim != 2:
        raise ValueError("frame pixels must be 2-D")
    # A float frame would be read on the wrong scale, and its NaN or
    # out-of-range values have no byte to stand for them.
    if pixels.dtype != np.uint8:
        raise ValueError(f"frame pixels must be uint8 intensities, got "
                         f"dtype {pixels.dtype}")
    if pixels.size == 0:
        raise ValueError(f"frame has no pixel: its shape is {pixels.shape}")
