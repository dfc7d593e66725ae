"""Synthetic marker-grid tactile sensor.

Generates frames with ground truth so the perception pipeline and the
controller can run closed-loop without hardware. A nominal marker grid
is deformed by a parameterized contact (markers spread radially away
from the indentation, which lowers the local marker density), then
rendered as dark anti-aliased disks on a light background with seeded
pixel noise.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blobs import MarkerSet
from .errors import check_range
from .pgm import frame_filename, write_pgm
from .tactile import FRAME_HEIGHT, FRAME_WIDTH, TactileFrame

# Subpixel sample offsets for 4x supersampled disk coverage.
_SS = (np.arange(4) + 0.5) / 4.0 - 0.5
# Largest contact center, shear, radius and marker travel in px, and
# # largest depth (mm) and gain (px/mm), whose product is the travel. A
# million px is over a thousand frame widths; past 1e154 px the squares
# and pixel indices of rendering overflow.
_MAX_PX = 1e6
_MAX_DEPTH_MM = _MAX_GAIN = 1e3


@dataclass
class SensorModel:
    width: int = FRAME_WIDTH
    height: int = FRAME_HEIGHT
    grid_rows: int = 15
    grid_cols: int = 20
    spacing: float = 15.0
    marker_radius: float = 4.0
    marker_intensity: float = 0.15
    background: float = 0.95
    # Radial marker travel per mm of indentation depth.
    displacement_gain_k: float = 10.0
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("width", "height", "grid_rows", "grid_cols"):
            check_range(name, getattr(self, name), lo=1)
        for name in ("spacing", "marker_radius"):
            check_range(name, getattr(self, name), lo=0.0, lo_open=True)
        check_range("displacement_gain_k", self.displacement_gain_k, lo=0.0,
                    hi=_MAX_GAIN)
        check_range("noise_sigma", self.noise_sigma, lo=0.0)
        if self.spacing <= 2 * self.marker_radius:
            raise ValueError("spacing must exceed the marker diameter")
        span_x = (self.grid_cols - 1) * self.spacing
        span_y = (self.grid_rows - 1) * self.spacing
        if span_x + 2 * self.marker_radius >= self.width \
                or span_y + 2 * self.marker_radius >= self.height:
            raise ValueError("nominal marker grid does not fit in the frame")
        if not 0.0 <= self.marker_intensity < self.background <= 1.0:
            raise ValueError("need 0 <= marker_intensity < background <= 1")


@dataclass
class ContactStimulus:
    """One parameterized contact: a Gaussian indentation footprint.

    x, y: contact center in px. depth: indentation in mm. radius: envelope
    width in px. shear: lateral marker offset in px at the contact center.
    """

    x: float
    y: float
    depth: float = 0.0
    radius: float = 40.0
    shear_x: float = 0.0
    shear_y: float = 0.0
    timestamp: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "shear_x", "shear_y"):
            check_range(name, getattr(self, name), lo=-_MAX_PX, hi=_MAX_PX)
        check_range("timestamp", self.timestamp)
        check_range("depth", self.depth, lo=0.0, hi=_MAX_DEPTH_MM)
        check_range("radius", self.radius, lo=0.0, hi=_MAX_PX, lo_open=True)


def nominal_grid(model):
    """Rest marker positions: a centered grid, row-major, (M, 2) as (x, y)."""
    x0 = (model.width - 1 - (model.grid_cols - 1) * model.spacing) / 2.0
    y0 = (model.height - 1 - (model.grid_rows - 1) * model.spacing) / 2.0
    xs = x0 + model.spacing * np.arange(model.grid_cols)
    ys = y0 + model.spacing * np.arange(model.grid_rows)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def displace_markers(model, stimulus=None):
    """Deform the nominal grid under a contact stimulus.

    Each marker at distance r from the contact center moves radially
    outward by depth * k * exp(-r^2 / (2 radius^2)) px, plus the shear
    offset scaled by the same envelope. A marker exactly at the center
    has no radial direction and gets no radial term. depth = 0 and zero
    shear return the nominal grid exactly.
    """
    pos = nominal_grid(model)
    if stimulus is None:
        return MarkerSet(pos, frame_timestamp=0.0)
    delta = pos - np.array([stimulus.x, stimulus.y])
    r = np.hypot(delta[:, 0], delta[:, 1])
    envelope = np.exp(-(r ** 2) / (2.0 * stimulus.radius ** 2))
    r_safe = np.where(r > 0, r, 1.0)
    direction = np.where(r[:, None] > 0, delta / r_safe[:, None], 0.0)
    radial = model.displacement_gain_k * stimulus.depth * envelope
    shear = np.array([stimulus.shear_x, stimulus.shear_y])
    pos = pos + direction * radial[:, None] + shear * envelope[:, None]
    return MarkerSet(pos, frame_timestamp=stimulus.timestamp)


def disk_coverage(markers, model):
    """Per pixel, the share of its 4x4 subpixel samples within marker_radius
    of a marker center, maxed over markers. Each marker's footprint is
    `size` px square from floor(c - r - 1): every pixel with a sample within
    r of its center c. Markers go 64 at a time (temporaries near 1 MB)."""
    radius = model.marker_radius
    size = int(np.ceil(2 * radius + 2)) + 2
    coverage = np.zeros((model.height, model.width))
    for start in range(0, len(markers), 64):
        c = markers.centroids[start:start + 64]
        # pix[marker, axis] are the footprint's pixel coordinates on (x, y).
        pix = np.floor(c - radius - 1).astype(np.int64)[:, :, None] + np.arange(size)
        sub = (pix[..., None] + _SS).reshape(len(c), 2, -1) - c[:, :, None]
        inside = sub[:, 1, :, None] ** 2 + sub[:, 0, None, :] ** 2 <= radius ** 2
        samples = inside.view(np.uint8).reshape(len(c), size, 4, size, 4)
        hits = sum(samples[:, :, i, :, j] for i in range(4) for j in range(4))
        # Footprint pixels outside the frame stamp 0 at a clipped index.
        clipped = np.clip(pix, 0, [[model.width - 1], [model.height - 1]])
        in_frame = clipped == pix
        local = hits / 16.0 * (in_frame[:, 1, :, None] & in_frame[:, 0, None, :])
        flat = clipped[:, 1, :, None] * model.width + clipped[:, 0, None, :]
        np.maximum.at(coverage.reshape(-1), flat.ravel(), local.ravel())
    return coverage


def render_frame(markers, model, finger_id=1, seq=0, *, coverage=None):
    """Render marker centroids as dark anti-aliased disks plus seeded noise.

    Deterministic: the noise stream is keyed by (model.seed, finger_id, seq).
    A caller that holds `disk_coverage(markers, model)` may pass it.
    """
    if coverage is None:
        coverage = disk_coverage(markers, model)
    pixels = model.background - coverage * (model.background - model.marker_intensity)
    if model.noise_sigma > 0:
        rng = np.random.default_rng((model.seed, finger_id, seq))
        pixels = pixels + rng.normal(0.0, model.noise_sigma, pixels.shape)
    pixels = np.clip(pixels, 0.0, 1.0)
    return TactileFrame(pixels=pixels, timestamp=markers.frame_timestamp,
                        finger_id=finger_id)


def write_frames(directory, model, marker_sets, finger_id=1):
    """Write rendered PGM frames plus a ground-truth sidecar CSV.

    The sidecar truth_<finger>.csv has one row per marker per frame:
    seq, marker index, x, y.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    truth_path = directory / f"truth_{finger_id}.csv"
    last_layout, coverage = None, None
    with open(truth_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq", "marker", "x", "y"])
        for seq, markers in enumerate(marker_sets):
            layout = markers.centroids.tobytes()
            if layout != last_layout:
                last_layout, coverage = layout, disk_coverage(markers, model)
            frame = render_frame(markers, model, finger_id=finger_id, seq=seq,
                                 coverage=coverage)
            write_pgm(directory / frame_filename(finger_id, seq), frame.pixels,
                      comment=f"t={frame.timestamp:.6f}")
            for idx, (mx, my) in enumerate(markers.centroids):
                writer.writerow([seq, idx, f"{mx:.4f}", f"{my:.4f}"])
    return truth_path
