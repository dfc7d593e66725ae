"""Synthetic marker-grid tactile sensor.

Generates frames with ground truth so the perception pipeline and the
controller can run closed-loop without hardware. A nominal marker grid
is deformed by a parameterized contact (markers spread radially away
from the indentation, which lowers the local marker density), then
rendered as dark anti-aliased disks on a light background with seeded
pixel noise, delivered as 8-bit frames the way a camera delivers them.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .blobs import MarkerSet
from .errors import check_range
from .pgm import FRAME_HEIGHT, FRAME_WIDTH, frame_filename, write_pgm

# Subpixel sample offsets for 4x supersampled disk coverage.
_SS = (np.arange(4) + 0.5) / 4.0 - 0.5
# Largest contact center, shear, radius and marker travel in px, and
# largest depth (mm) and gain (px/mm), whose product is the travel. A
# million px is over a thousand frame widths; past 1e154 px the squares
# and pixel indices of rendering overflow. The least radius mirrors it at
# 1 / _MAX_PX: below 1e-154 px its square underflows to 0 (0 / 0 at r = 0).
_MAX_PX = 1e6
_MAX_DEPTH_MM = _MAX_GAIN = 1e3


@dataclass(frozen=True)
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.spacing <= 2 * self.marker_radius:
            raise ValueError("spacing must exceed the marker diameter")
        span_x = (self.grid_cols - 1) * self.spacing
        span_y = (self.grid_rows - 1) * self.spacing
        if span_x + 2 * self.marker_radius >= self.width \
                or span_y + 2 * self.marker_radius >= self.height:
            raise ValueError("nominal marker grid does not fit in the frame")
        if not 0.0 <= self.marker_intensity < self.background <= 1.0:
            raise ValueError("need 0 <= marker_intensity < background <= 1")


@dataclass(frozen=True)
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

    def __post_init__(self):
        for name in ("x", "y", "shear_x", "shear_y"):
            check_range(name, getattr(self, name), lo=-_MAX_PX, hi=_MAX_PX)
        check_range("depth", self.depth, lo=0.0, hi=_MAX_DEPTH_MM)
        check_range("radius", self.radius, lo=1.0 / _MAX_PX, hi=_MAX_PX)


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
        return MarkerSet(pos)
    delta = pos - np.array([stimulus.x, stimulus.y])
    r = np.hypot(delta[:, 0], delta[:, 1])
    envelope = np.exp(-(r ** 2) / (2.0 * stimulus.radius ** 2))
    r_safe = np.where(r > 0, r, 1.0)
    direction = np.where(r[:, None] > 0, delta / r_safe[:, None], 0.0)
    radial = model.displacement_gain_k * stimulus.depth * envelope
    shear = np.array([stimulus.shear_x, stimulus.shear_y])
    pos = pos + direction * radial[:, None] + shear * envelope[:, None]
    return MarkerSet(pos)


def disk_coverage(markers, model):
    """Per pixel, the count k = 0..16 of its 4x4 subpixel samples within
    marker_radius of a marker center, maxed over markers, as uint8: the
    pixel's coverage is k / 16. Each marker's footprint is `size` px square
    from floor(c - r - 1): every pixel with a sample within r of its center
    c. Markers go 64 at a time (temporaries near 1 MB)."""
    radius = model.marker_radius
    size = int(np.ceil(2 * radius + 2)) + 2
    coverage = np.zeros((model.height, model.width), dtype=np.uint8)
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
        hits *= in_frame[:, 1, :, None] & in_frame[:, 0, None, :]
        flat = clipped[:, 1, :, None] * model.width + clipped[:, 0, None, :]
        np.maximum.at(coverage.reshape(-1), flat.ravel(), hits.ravel())
    return coverage


def _noise_bytes(rng, n):
    """np.frombuffer(rng.bytes(n), np.uint8) by numpy's own definition of
    Generator.bytes (little-endian uint32 draws, cut to n bytes), without
    the two copies that bytes and frombuffer make."""
    return (rng.integers(0, 2**32, size=(n + 3) // 4, dtype=np.uint32)
            .astype("<u4", copy=False).view(np.uint8)[:n])


def _frame(coverage, model, finger_id, seq):
    """The frame of `disk_coverage` counts; see `render_frame`."""
    share = np.arange(17) / 16.0
    levels = (255.0 * (model.background - share * (
        model.background - model.marker_intensity))).astype(np.float32)
    if model.noise_sigma > 0:
        rng = np.random.default_rng((model.seed, finger_id, seq))
        quantiles = ndtri((np.arange(256) + 0.5) / 256)
        noise = (255.0 * model.noise_sigma * quantiles).astype(np.float32)
        # Flat index (k << 8) | byte into the (17, 256) table.
        index = coverage.astype(np.uint16) << 8
        index |= _noise_bytes(rng, coverage.size).reshape(coverage.shape)
    else:
        noise = np.zeros(1, dtype=np.float32)
        index = coverage
    table = np.rint(levels[:, None] + noise)
    np.clip(table, 0.0, 255.0, out=table)
    return np.take(table.astype(np.uint8).ravel(), index)


def render_frame(markers, model, finger_id=1, seq=0):
    """Render marker centroids as a frame, a (height, width) uint8 array:
    dark anti-aliased disks plus seeded noise, clip(rint(255 * (image +
    noise))).

    A pixel with coverage k / 16 has the noise-free level
    255 * (background - k / 16 * (background - marker_intensity)). The
    noise takes one random byte per pixel from the stream keyed by
    (model.seed, finger_id, seq), so the frame is deterministic, and the
    byte picks one of 256 N(0, noise_sigma) quantiles, taken at the
    centers (i + 0.5) / 256 of 256 equally likely bins: a 256-level
    Gaussian drawn at the cost of a byte. Level and noise are each
    rounded to float32 and summed in float32, so the frame is a 17 x 256
    table of bytes indexed by (count, noise byte), with no random byte
    drawn when noise_sigma is 0. Stamps the coverage on every call.
    """
    return _frame(disk_coverage(markers, model), model, finger_id, seq)


class FrameStream:
    """One finger's camera: renders marker layouts as frames seq 0, 1, 2,
    ..., each equal to `render_frame` of its seq, stamping the coverage
    only when a layout differs from the last (the model is frozen, so the
    layout alone keys that cache). With a directory, creates it and
    truth_<finger>.csv, then writes frame_<finger>_<seq>.pgm (comment
    t=<timestamp>, the capture time its caller passes) and appends one
    seq, marker, x, y row per marker to the sidecar."""

    def __init__(self, model, finger_id, directory=None):
        self.model, self.finger_id, self.seq = model, finger_id, 0
        self.directory = None if directory is None else Path(directory)
        self._last = (None, None)  # the last layout's bytes and coverage
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.truth_path, "w", newline="") as fh:
                csv.writer(fh).writerow(["seq", "marker", "x", "y"])

    @property
    def truth_path(self):
        return self.directory / f"truth_{self.finger_id}.csv"

    def render(self, markers, timestamp):
        """The stream's next frame, of this marker layout, captured at
        `timestamp` s."""
        layout = markers.centroids.tobytes()
        if layout != self._last[0]:
            self._last = (layout, disk_coverage(markers, self.model))
        seq, self.seq = self.seq, self.seq + 1
        frame = _frame(self._last[1], self.model, self.finger_id, seq)
        if self.directory is not None:
            write_pgm(self.directory / frame_filename(self.finger_id, seq),
                      frame, comment=f"t={timestamp:.6f}")
            with open(self.truth_path, "a", newline="") as fh:
                csv.writer(fh).writerows(
                    [seq, idx, f"{mx:.4f}", f"{my:.4f}"]
                    for idx, (mx, my) in enumerate(markers.centroids))
        return frame

