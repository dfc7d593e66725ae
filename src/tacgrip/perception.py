"""Per-finger perception pipeline: frames in, contact flags out.

Wires the tactile stages together (detect markers, estimate density,
extract contact, track displacement) and owns the per-sensor threshold
calibration: the working contact threshold is a fixed ratio of the
minimum density observed on a no-contact reference frame over the
marker support box. The nominal-grid density sits orders of
magnitude below any plausible fixed absolute threshold, so an
uncalibrated constant would either flag everything or nothing;
calibration pins the decision boundary to the sensor's own rest state.

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
bytes as the full-frame field at those pixels, and labelling, argmin
and pixel scans run in raster order, which a sub-rectangle keeps, so
the region and center are those a full-frame field restricted to the
box would give. Reports carry the markers, from which callers such as
`tacgrip analyze --heatmaps` compute a full-frame field when they want
one.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blobs import DetectorConfig, detect_markers, marker_window
from .control import CONTROL_PERIOD_S, classify_frame, is_fresh
from .density import (KdeConfig, calibrate_threshold, estimate_density,
                      extract_contact, marker_support_box)
from .errors import ValidationError, check_range
from .tracking import ContactTrack, track_displacement

# Working threshold = ratio * (support-box density minimum of the
# no-contact reference frame). 0.8 keeps a 20% guard band below the
# quietest nominal frame (pixel noise moves the support minimum by well
# under 0.1%) while still catching shallow dips that only reach ~70% of
# the nominal floor.
DEFAULT_CALIBRATION_RATIO = 0.8

# A reference frame whose support-box density minimum falls below this
# share of the box median shows a contact. Rest frames read 0.84-0.96
# (spacing 10-30 px, noise 0-0.03, h = 15 px; 0.889-0.891 for the
# default sensor over 40 seeds). Random contacts of 0.2-3.2 mm read down
# to 0.02; the few shallow ones that read above 0.8 are too shallow for
# a rest-calibrated pipeline to see either.
_REST_DENSITY_FLOOR = 0.8


@dataclass
class PipelineReport:
    """What one frame produced: the region may be None (no contact).

    field covers the support box only; markers are the frame's detected
    markers (None when the pipeline found none).
    """

    center: Optional[tuple]
    region: Optional[object]
    field: object
    markers: Optional[object] = None


class FingerPipeline:
    """Stateful perception for one finger.

    Calibrate with a no-contact reference frame before processing; the
    support box and working threshold are frozen from it, and the
    detection window starts from it.
    """

    def __init__(self, finger_id, kde_config=None, detector_config=None,
                 calibration_ratio=DEFAULT_CALIBRATION_RATIO,
                 control_period=CONTROL_PERIOD_S):
        check_range("calibration_ratio", calibration_ratio, lo=0.0, hi=1.0,
                    lo_open=True, error=ValidationError)
        check_range("control_period", control_period, lo=0.0, lo_open=True,
                    error=ValidationError)
        self.finger_id = finger_id
        self.kde_config = kde_config or KdeConfig()
        self.detector_config = detector_config or DetectorConfig()
        self.calibration_ratio = calibration_ratio
        self.control_period = control_period
        self.track = ContactTrack(finger_id=finger_id)
        self.support = None
        self.window = None
        self.threshold = None  # per-px^2 density; set by calibrate()

    def calibrate(self, reference_frame):
        """Freeze the working threshold and support box from a
        no-contact frame.

        Raises ValidationError when the frame cannot be a rest frame: it
        shows no markers, too few to span a support box, or a contact.
        detect_markers checks the frame itself (ValueError when it is not
        8-bit) before anything is frozen.
        """
        markers = detect_markers(reference_frame, self.detector_config)
        width, height = reference_frame.width, reference_frame.height
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
                                    reference_frame.width,
                                    reference_frame.height)
        self.threshold = threshold
        return threshold

    def _detect(self, frame):
        """Detect inside the window, then grow it over the markers found."""
        markers = detect_markers(frame, self.detector_config, self.window)
        if len(markers):
            grown = marker_window(markers, self.detector_config,
                                  frame.width, frame.height)
            self.window = (min(self.window[0], grown[0]),
                           min(self.window[1], grown[1]),
                           max(self.window[2], grown[2]),
                           max(self.window[3], grown[3]))
        return markers

    def process(self, frame):
        """Run one frame through the pipeline, updating the track.

        detect_markers checks the frame (ValueError when it is not 8-bit)
        before the window or the track changes.
        """
        if self.threshold is None:
            raise RuntimeError("pipeline used before calibrate()")
        markers = self._detect(frame)
        if len(markers) == 0:
            return PipelineReport(center=None, region=None, field=None)
        field = estimate_density(markers, self.kde_config,
                                 width=frame.width, height=frame.height,
                                 box=self.support)
        region = extract_contact(field, self.threshold)
        if region is None:
            return PipelineReport(center=None, region=None, field=field,
                                  markers=markers)
        track_displacement(self.track, region.center, frame.timestamp,
                           self.kde_config)
        return PipelineReport(center=region.center, region=region,
                              field=field, markers=markers)

    def classify(self, now, thresholds):
        return classify_frame(self.track, thresholds, now,
                              control_period=self.control_period)

    def has_fresh_contact(self, now):
        if not self.track.timestamps:
            return False
        return is_fresh(now - self.track.timestamps[-1], self.control_period)
