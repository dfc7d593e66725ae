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
# Most markers a grid may hold: the KDE's (M, W) and (M, H) float64 kernel
# matrices take M x (W + H) x 8 B, 2.7 MB for the default 300 on 640 x 480
# (estimate_density peaked at 5.2 MB under tracemalloc), 90 MB at the cap.
MAX_MARKERS = 10_000
# Most pixels a frame may hold. A frame's arrays grow with its pixels: a
# full-frame detection peaked at 7.8 MB under tracemalloc on the default
# 640 x 480 (26 B a pixel, its float32 smoothing and response arrays),
# and a full-frame density field takes 8 B a pixel. At the cap, 2048 x
# 2048, that is about 107 MB and 34 MB.
MAX_FRAME_PIXELS = 2048 * 2048
# Footprint pixels stamped per chunk of markers: 1,041 disks of the
# default 12 x 12 px footprint, whose float64 squared offsets take 0.8 MB.
# The rest of a chunk's temporaries take at most about 140 B a footprint
# pixel (21 MB), reached only if every pixel were on a disk's edge.
_CHUNK_PIXELS = 150_000


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
        # Held as Python ints: numpy's uint64 makes pixel indices floats.
        for name in ("width", "height", "grid_rows", "grid_cols", "seed"):
            value = getattr(self, name)
            check_range(name, value, lo=0 if name == "seed" else 1, integer=True)
            object.__setattr__(self, name, int(value))
        if self.width * self.height > MAX_FRAME_PIXELS:
            raise ValueError(f"width x height is above the cap of "
                             f"{MAX_FRAME_PIXELS} pixels")
        if self.grid_rows * self.grid_cols > MAX_MARKERS:
            raise ValueError(f"grid_rows x grid_cols is above the cap of "
                             f"{MAX_MARKERS} markers")
        for name in ("spacing", "marker_radius"):
            check_range(name, getattr(self, name), lo=0.0, lo_open=True)
        check_range("marker_intensity", self.marker_intensity, lo=0.0, hi=1.0)
        check_range("background", self.background, lo=self.marker_intensity,
                    hi=1.0, lo_open=True)
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
    """The pixels a marker layout covers, as (flat indices, counts << 8):
    per covered pixel, its index into the flat frame and, shifted to the
    table's k << 8, the count k = 1..16 of its 4x4 subpixel samples within
    marker_radius of a marker center, maxed over markers (the pixel's
    coverage is k / 16). A pixel that several disks cover is listed once
    per disk, each time with the same maximum.

    Each marker's footprint is `size` px square from floor(c - r - 1):
    every pixel with a sample within r of its center c. A sample (sx, sy)
    is inside when sy^2 + sx^2 <= r^2, each term the rounded square of its
    offset from c. Those squares, and so the rounded sum, grow with the
    offset's size, so a footprint pixel whose largest squares pass counts
    16, one whose smallest fail counts 0, and only the pixels between,
    along the disk's edge, test their 16 samples. The footprint pixels
    inside the frame that count above 0 are the list; one maximum onto a
    zeroed frame settles the pixels that disks share. Markers go in chunks
    of about _CHUNK_PIXELS footprint pixels, which bounds the temporaries
    whatever the radius and the number of markers."""
    radius = model.marker_radius
    r2 = radius ** 2
    size = int(np.ceil(2 * radius + 2)) + 2
    w, h = model.width, model.height
    step = max(1, _CHUNK_PIXELS // size ** 2)
    pixels, counts = [np.empty(0, np.intp)], [np.empty(0, np.uint8)]
    for start in range(0, len(markers), step):
        c = markers.centroids[start:start + step]
        n = len(c)
        # pix[marker, axis] are the footprint's pixel coordinates on (x, y),
        # sq[axis, sample, marker, pixel] its samples' squared offsets.
        pix = np.floor(c - radius - 1).astype(np.int64)[:, :, None] \
            + np.arange(size)
        sq = pix.transpose(1, 0, 2)[:, None] + _SS[:, None, None]
        sq -= c.T[:, None, :, None]
        sq *= sq
        far, near = sq.max(axis=1), sq.min(axis=1)
        # A pixel outside the frame has an infinite square on its axis,
        # so it counts 0; the others keep their bits.
        outside = (pix < 0) | (pix >= np.array([[w], [h]]))
        outside = outside.transpose(1, 0, 2)
        far[outside] = np.inf
        near[outside] = np.inf
        some = near[1][:, :, None] + near[0][:, None, :] <= r2
        full = far[1][:, :, None] + far[0][:, None, :] <= r2
        hits = (full.view(np.uint8) << 4).ravel()
        # The edge pixels by flat (marker, y, x) index; row and col index
        # the (marker, y) and (marker, x) columns of the (4, n * size)
        # sample tables ty and tx.
        edge = np.flatnonzero(some.ravel() > full.ravel())
        row = edge // size
        col = edge + (row // size - row) * size
        ty = sq[1].reshape(4, n * size).take(row, axis=1)
        tx = sq[0].reshape(4, n * size).take(col, axis=1)
        count = np.zeros(len(edge), np.uint8)
        dist2, inside = np.empty(len(edge)), np.empty(len(edge), bool)
        for sy in ty:
            for sx in tx:
                np.add(sy, sx, out=dist2)
                count += np.less_equal(dist2, r2, out=inside)
        hits[edge] = count
        covered = np.flatnonzero(hits)
        flat = (pix[:, 1] * w)[:, :, None] + pix[:, 0, None, :]
        pixels.append(flat.ravel().take(covered))
        counts.append(hits.take(covered))
    pixels = np.concatenate(pixels)
    coverage = np.zeros(h * w, dtype=np.uint8)
    np.maximum.at(coverage, pixels, np.concatenate(counts))
    shifted = coverage.take(pixels).astype(np.intp)
    shifted <<= 8
    return pixels, shifted


def _noise_bytes(rng, n):
    """np.frombuffer(rng.bytes(n), np.uint8) without its copies: for
    numpy's PCG64, Generator.bytes cuts little-endian uint32 draws, each
    half of a 64-bit output low half first, so the raw 64-bit outputs
    read as little-endian bytes are the same stream."""
    return (rng.bit_generator.random_raw((n + 7) // 8)
            .astype("<u8", copy=False).view(np.uint8)[:n])


def _table(model):
    """The frame's bytes as a flat (17 x 256) table, indexed by a pixel's
    (k << 8) | noise byte: each of the 17 coverage levels plus each of the
    256 noise quantiles (none without noise), in float32, rounded and
    clipped to a byte."""
    share = np.arange(17) / 16.0
    levels = (255.0 * (model.background - share * (
        model.background - model.marker_intensity))).astype(np.float32)
    quantiles = ndtri((np.arange(256) + 0.5) / 256)
    noise = (255.0 * model.noise_sigma * quantiles).astype(np.float32)
    table = np.rint(levels[:, None] + noise)
    np.clip(table, 0.0, 255.0, out=table)
    return table.astype(np.uint8).ravel()


def _frame(table, covered, model, finger_id, seq):
    """The frame of a layout given as its `disk_coverage` pixels; see
    `render_frame`. Every pixel first takes the level of coverage 0 plus
    its noise byte, then the covered ones take their own level."""
    pixels, shifted = covered
    n = model.width * model.height
    if model.noise_sigma > 0:
        rng = np.random.default_rng((model.seed, finger_id, seq))
        noise = _noise_bytes(rng, n)
        frame = np.frombuffer(bytearray(noise).translate(table[:256]),
                              dtype=np.uint8)
        frame[pixels] = table.take(shifted | noise.take(pixels))
    else:
        frame = np.full(n, table[0], dtype=np.uint8)
        frame[pixels] = table.take(shifted)
    return frame.reshape(model.height, model.width)


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
    return _frame(_table(model), disk_coverage(markers, model), model,
                  finger_id, seq)


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
        self._table = _table(model)
        # the last layout's bytes and its `disk_coverage` pixels
        self._last = (None, None)
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
        frame = _frame(self._table, self._last[1], self.model,
                       self.finger_id, seq)
        if self.directory is not None:
            write_pgm(self.directory / frame_filename(self.finger_id, seq),
                      frame, comment=f"t={timestamp:.6f}")
            with open(self.truth_path, "a", newline="") as fh:
                csv.writer(fh).writerows(
                    [seq, idx, f"{mx:.4f}", f"{my:.4f}"]
                    for idx, (mx, my) in enumerate(markers.centroids))
        return frame

