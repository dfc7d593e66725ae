"""Per-finger perception pipeline: frames in, contact regions out.

Wires the tactile stages together (detect markers, estimate density,
extract contact) and owns the per-sensor threshold calibration: the
working threshold is a fixed ratio of the minimum density of a
no-contact reference frame over the marker support box. The
nominal-grid density sits orders of magnitude below any plausible fixed
absolute threshold, so an uncalibrated constant would flag everything
or nothing; calibration pins the decision boundary to the sensor's own
rest state. A frame is a bare (height, width) uint8 array: the pipeline
reads no time from it and keeps no track. Its caller grows one from the
reported centers, each at the instant it asked for the frame
(`tracking.track_displacement`), and classifies it.

Markers are detected inside a window, which saves work but never
changes the result (`blobs.detect_markers` searches the full frame when
the window cannot be shown to hold every marker). Calibration detects on
the full reference frame and sets the window to the reference markers'
bounding box widened by `blobs.marker_window`'s margin. After every
frame the window grows to the union of itself and the same widened box
of that frame's markers, and it never shrinks, so markers pushed outward
by a contact widen it once and the following frames stay windowed.

Density and contact are computed on the support box alone: the
reference markers' bounding box eroded by the kernel width h, frozen at
calibration. Outside it the density falls toward zero whatever touches
the skin, so contact is never read there. The box field has the same
bytes as the full-frame field at those pixels, and labelling and the
argmin run in raster order, which a sub-rectangle keeps, so the region's
center, area and minimum density are those a full-frame field
restricted to the box would give. A report holds the region and the
frame's markers, not the field: callers such as `tacgrip analyze
--heatmaps` compute a full-frame field from the markers when they want
one.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blobs import DetectorConfig, MarkerSet, detect_markers, marker_window
from .control import CONTROL_PERIOD_S
from .density import (ContactRegion, KdeConfig, calibrate_threshold,
                      estimate_density, extract_contact, marker_support_box)
from .errors import ValidationError, check_range
from .pgm import check_frame

# Working threshold = ratio * (support-box density minimum of the
# no-contact reference frame). 0.8 keeps a 20% guard band below the
# quietest nominal frame (pixel noise moves the support minimum by well
# under 0.1%) while still catching shallow dips that only reach ~70% of
# the nominal floor.
DEFAULT_CALIBRATION_RATIO = 0.8
# Largest calibration ratio. Calibrated on one noisy rest frame, another
# rest frame of the default sensor (noise 0.01) read contact at ratios
# above 0.99957, its lowest support-box minimum over 60 seeded pairs
# (0.99864 at noise 0.03, 0.99777 at 0.05). 0.99 keeps a guard band of
# 1%, over 20 times the 0.043% that noise moved that minimum.
MAX_CALIBRATION_RATIO = 0.99

# A reference frame whose support-box density minimum falls below this
# share of the box median shows a contact. Rest frames read 0.84-0.96
# (spacing 10-30 px, noise 0-0.03, h = 15 px; 0.889-0.891 for the
# default sensor over 40 seeds). Random contacts of 0.2-3.2 mm read down
# to 0.02; the few shallow ones that read above 0.8 are too shallow for
# a rest-calibrated pipeline to see either.
_REST_DENSITY_FLOOR = 0.8


@dataclass
class PipelineReport:
    """What one frame produced.

    region: the contact region (center, area, minimum density), or None
    for NoContact. markers: the frame's detected markers, possibly none.
    """

    region: Optional[ContactRegion]
    markers: MarkerSet

    @property
    def center(self):
        return None if self.region is None else self.region.center


class FingerPipeline:
    """Stateful perception for one finger.

    Calibrate with a no-contact reference frame before processing; the
    frame size, support box and working threshold are frozen from it,
    as are the configs they come from, and the detection window starts
    from it. control_period is checked and kept, but nothing in the
    package reads it; perfbench's set-up probe still passes it.
    """

    def __init__(self, finger_id, kde_config=None, detector_config=None,
                 calibration_ratio=DEFAULT_CALIBRATION_RATIO,
                 control_period=CONTROL_PERIOD_S):
        check_range("calibration_ratio", calibration_ratio, lo=0.0,
                    hi=MAX_CALIBRATION_RATIO, lo_open=True,
                    error=ValidationError)
        check_range("control_period", control_period, lo=0.0, lo_open=True,
                    error=ValidationError)
        self.finger_id = finger_id
        self.kde_config = kde_config or KdeConfig()
        self.detector_config = detector_config or DetectorConfig()
        self.calibration_ratio = calibration_ratio
        self.control_period = control_period
        self.size = None  # (width, height); set by calibrate()
        self.support = None
        self.window = None
        self.threshold = None  # per-px^2 density; set by calibrate()

    def calibrate(self, reference_frame):
        """Freeze the working threshold and support box from a
        no-contact frame.

        Raises ValidationError when the frame cannot be a rest frame: it
        shows no markers, too few to span a support box, or a contact.
        detect_markers checks the frame itself (ValueError when it is not
        a 2-D uint8 array with a pixel) before anything is frozen.
        """
        markers = detect_markers(reference_frame, self.detector_config)
        height, width = reference_frame.shape
        if len(markers) == 0:
            raise ValidationError("calibration frame shows no markers")
        try:
            self.support = marker_support_box(
                markers, self.kde_config.kernel_width_h, width, height)
        except ValueError as exc:
            raise ValidationError(f"calibration frame: {exc}") from None
        reference_field = estimate_density(
            markers, self.kde_config, width=width, height=height,
            box=self.support,
        )
        values = reference_field.values
        median = float(np.median(values))
        dip = float(values.min()) / median if median > 0 else 0.0
        if dip < _REST_DENSITY_FLOOR:
            raise ValidationError(
                f"calibration frame shows a contact (or a kernel width too "
                f"small for the marker spacing): its density minimum is "
                f"{dip:.2f} of the median, below the rest floor "
                f"{_REST_DENSITY_FLOOR}")
        threshold = calibrate_threshold(reference_field,
                                        ratio=self.calibration_ratio)
        self.window = marker_window(markers, self.detector_config,
                                    width, height)
        self.size = (width, height)
        self.threshold = threshold
        return threshold

    def _detect(self, frame):
        """Detect inside the window, then grow it over the markers found."""
        markers = detect_markers(frame, self.detector_config, self.window)
        if len(markers):
            height, width = frame.shape
            grown = marker_window(markers, self.detector_config,
                                  width, height)
            self.window = (min(self.window[0], grown[0]),
                           min(self.window[1], grown[1]),
                           max(self.window[2], grown[2]),
                           max(self.window[3], grown[3]))
        return markers

    def process(self, frame):
        """Run one frame through the pipeline and return its report.

        Raises ValueError, before the window changes, for a frame that
        is not a 2-D uint8 array with a pixel or not of the calibration
        frame's size.
        """
        if self.threshold is None:
            raise RuntimeError("pipeline used before calibrate()")
        check_frame(frame)
        height, width = frame.shape
        if (width, height) != self.size:
            raise ValueError(
                f"frame is {width}x{height}, but the pipeline "
                f"was calibrated on a {self.size[0]}x{self.size[1]} frame")
        markers = self._detect(frame)
        if len(markers) == 0:
            return PipelineReport(region=None, markers=markers)
        field = estimate_density(markers, self.kde_config,
                                 width=width, height=height,
                                 box=self.support)
        return PipelineReport(region=extract_contact(field, self.threshold),
                              markers=markers)
