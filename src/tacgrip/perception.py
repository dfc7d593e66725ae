"""Per-finger perception pipeline: frames in, contact flags out.

Wires the tactile stages together (detect markers, estimate density,
extract contact, track displacement) and owns the per-sensor threshold
calibration: the working contact threshold is a fixed ratio of the
minimum density observed on a no-contact reference frame over the
marker support region. The nominal-grid density sits orders of
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
"""

from dataclasses import dataclass, replace
from typing import Optional

from .blobs import DetectorConfig, detect_markers, marker_window
from .control import CONTROL_PERIOD_S, classify_frame, is_fresh
from .density import (KdeConfig, calibrate_threshold, estimate_density,
                      extract_contact, marker_support_mask)
from .tracking import ContactTrack, track_displacement

# Working threshold = ratio * (support-region density minimum of the
# no-contact reference frame). 0.8 keeps a 20% guard band below the
# quietest nominal frame (pixel noise moves the support minimum by well
# under 0.1%) while still catching shallow dips that only reach ~70% of
# the nominal floor.
DEFAULT_CALIBRATION_RATIO = 0.8


@dataclass
class PipelineReport:
    """What one frame produced: the region may be None (no contact)."""

    center: Optional[tuple]
    region: Optional[object]
    field: object


class FingerPipeline:
    """Stateful perception for one finger.

    Calibrate with a no-contact reference frame before processing; the
    support mask and working threshold are frozen from it, and the
    detection window starts from it.
    """

    def __init__(self, finger_id, kde_config=None, detector_config=None,
                 calibration_ratio=DEFAULT_CALIBRATION_RATIO,
                 control_period=CONTROL_PERIOD_S):
        self.finger_id = finger_id
        self.kde_config = kde_config or KdeConfig()
        self.detector_config = detector_config or DetectorConfig()
        self.calibration_ratio = calibration_ratio
        self.control_period = control_period
        self.track = ContactTrack(finger_id=finger_id)
        self.support = None
        self.window = None
        self.calibrated = False

    def calibrate(self, reference_frame):
        """Freeze the working threshold and support mask from a
        no-contact frame."""
        reference_frame.validate()
        markers = detect_markers(reference_frame, self.detector_config)
        reference_field = estimate_density(
            markers, self.kde_config,
            width=reference_frame.width, height=reference_frame.height,
        )
        self.support = marker_support_mask(reference_field)
        threshold = calibrate_threshold(reference_field, self.support,
                                        ratio=self.calibration_ratio)
        self.kde_config = replace(self.kde_config, density_threshold_T=threshold)
        self.window = marker_window(markers, self.detector_config,
                                    reference_frame.width,
                                    reference_frame.height)
        self.calibrated = True
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
        """Run one frame through the pipeline, updating the track."""
        if not self.calibrated:
            raise RuntimeError("pipeline used before calibrate()")
        frame.validate()
        markers = self._detect(frame)
        if len(markers) == 0:
            return PipelineReport(center=None, region=None, field=None)
        field = estimate_density(markers, self.kde_config,
                                 width=frame.width, height=frame.height)
        region = extract_contact(field, self.kde_config, support=self.support)
        if region is None:
            return PipelineReport(center=None, region=None, field=field)
        track_displacement(self.track, region.center, frame.timestamp,
                           self.kde_config)
        return PipelineReport(center=region.center, region=region, field=field)

    def classify(self, now, thresholds):
        return classify_frame(self.track, thresholds, now,
                              control_period=self.control_period)

    def has_fresh_contact(self, now):
        if not self.track.timestamps:
            return False
        return is_fresh(now - self.track.timestamps[-1], self.control_period)
