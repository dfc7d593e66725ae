"""Per-finger perception: frames in, contact regions out.

Wires the tactile stages together (detect markers, estimate density,
extract contact) and owns the per-sensor threshold calibration: the
working threshold is a fixed ratio of the minimum density of a
no-contact reference frame over the marker support box. The
nominal-grid density sits orders of magnitude below any plausible fixed
absolute threshold, so an uncalibrated constant would flag everything
or nothing; calibration pins the decision boundary to the sensor's own
rest state. A frame is a bare (height, width) uint8 array: perception
reads no time from it and keeps no track. Its caller grows one from the
reported centers, each at the instant it asked for the frame
(`tracking.track_displacement`), and classifies it.

Two frozen values split what is configured from what a rest frame
fixes. A `FingerPipeline` holds the settings, checked when built. Its
`calibrate` returns a `Calibration`: the settings it used, the frame
size, the support box, the threshold and the starting detection window.
Nothing waits half-built for a method call, and a calibration can be
compared and shared: both fingers of an episode take the same one.

Markers are detected inside a window, which saves work but never
changes the result (`blobs.detect_markers` tries the frame's dark box,
then the full frame, when the window cannot be shown to hold every
marker). Calibration detects on the reference frame with no window,
where the dark box answers, and starts the window at the reference
markers' bounding box widened by `blobs.marker_window`'s margin.
`Calibration.process` takes the window to detect through and reports it
grown to the union of itself and the same widened box of the frame's
markers. A caller that passes each report's window to the next frame
keeps a window that never shrinks, so markers pushed outward by a
contact widen it once and the following frames stay windowed.

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

from dataclasses import dataclass, field
from typing import Optional, Tuple

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
    window: the detection window grown over those markers, for the
    finger's next frame.
    """

    region: Optional[ContactRegion]
    markers: MarkerSet
    window: Tuple[int, int, int, int]

    @property
    def center(self):
        return None if self.region is None else self.region.center


@dataclass(frozen=True)
class Calibration:
    """What a no-contact frame fixes for one sensor: the detector and KDE
    settings, the frame size (width, height), the support box, the
    working threshold (per px^2 density) and the starting detection
    window. Both fingers of an episode share one.
    """

    kde_config: KdeConfig
    detector_config: DetectorConfig
    size: Tuple[int, int]
    support: Tuple[int, int, int, int]
    threshold: float
    window: Tuple[int, int, int, int]

    def process(self, frame, window):
        """Run one frame through the pipeline, detecting inside `window`,
        and return its report, whose window is `window` grown over the
        frame's markers.

        Raises ValueError for a frame that is not a 2-D uint8 array with
        a pixel or not of the calibration frame's size.
        """
        check_frame(frame)
        height, width = frame.shape
        if (width, height) != self.size:
            raise ValueError(
                f"frame is {width}x{height}, but the pipeline "
                f"was calibrated on a {self.size[0]}x{self.size[1]} frame")
        markers = detect_markers(frame, self.detector_config, window)
        if len(markers) == 0:
            return PipelineReport(region=None, markers=markers, window=window)
        grown = marker_window(markers, self.detector_config, width, height)
        window = (min(window[0], grown[0]), min(window[1], grown[1]),
                  max(window[2], grown[2]), max(window[3], grown[3]))
        box_field = estimate_density(markers, self.kde_config,
                                     width=width, height=height,
                                     box=self.support)
        return PipelineReport(
            region=extract_contact(box_field, self.threshold),
            markers=markers, window=window)


@dataclass(frozen=True)
class FingerPipeline:
    """One finger's perception settings, checked when built; `calibrate`
    turns them and a rest frame into a `Calibration`.

    Nothing in the package reads finger_id or control_period; they stay
    while perfbench's set-up probe passes them.
    """

    finger_id: int
    kde_config: KdeConfig = field(default_factory=KdeConfig)
    detector_config: DetectorConfig = field(default_factory=DetectorConfig)
    calibration_ratio: float = DEFAULT_CALIBRATION_RATIO
    control_period: float = CONTROL_PERIOD_S

    def __post_init__(self):
        check_range("calibration_ratio", self.calibration_ratio, lo=0.0,
                    hi=MAX_CALIBRATION_RATIO, lo_open=True,
                    error=ValidationError)
        check_range("control_period", self.control_period, lo=0.0,
                    lo_open=True, error=ValidationError)

    def calibrate(self, reference_frame):
        """The `Calibration` of a no-contact frame.

        Raises ValidationError when the frame cannot be a rest frame: it
        shows no markers, too few to span a support box, or a contact.
        detect_markers checks the frame itself (ValueError when it is not
        a 2-D uint8 array with a pixel).
        """
        markers = detect_markers(reference_frame, self.detector_config)
        height, width = reference_frame.shape
        if len(markers) == 0:
            raise ValidationError("calibration frame shows no markers")
        try:
            support = marker_support_box(
                markers, self.kde_config.kernel_width_h, width, height)
        except ValueError as exc:
            raise ValidationError(f"calibration frame: {exc}") from None
        reference_field = estimate_density(
            markers, self.kde_config, width=width, height=height,
            box=support,
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
        return Calibration(
            kde_config=self.kde_config,
            detector_config=self.detector_config,
            size=(width, height),
            support=support,
            threshold=calibrate_threshold(reference_field,
                                          ratio=self.calibration_ratio),
            window=marker_window(markers, self.detector_config,
                                 width, height))
