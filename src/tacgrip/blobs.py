"""Dark-blob marker detection with a determinant-of-Hessian filter.

Markers are small dark disks on a light membrane image; frames are
8-bit and read on [0, 1]. At one scale sigma, matched to the marker
radius, the frame is smoothed once with a Gaussian (two separable
passes), and the second derivatives Ixx, Iyy and Ixy are central
differences of the smoothed image. The scale-normalized determinant of
the Hessian sigma^4*(Ixx*Iyy - Ixy^2) is the response. Dark blobs are
gated by a positive Laplacian (local intensity minimum). Candidates are
pixels above the threshold whose response is at least each of their 8
neighbours' (a local maximum), deduplicated by greedy non-maximum
suppression and refined to sub-pixel positions with a per-axis
quadratic fit.

A window (a pixel box around the markers) makes detection cheaper
without changing its result. The filters run on the box widened by
`_window_pad`, clipped to the frame: the Gaussian's half-width r, one
pixel for the difference stencil, and one for the +-1 neighbour read of
the peak test and the quadratic fit, which read at most one pixel beyond
the box. The smoothing reads only pixels within r and the stencil only
smoothed values within one pixel, so inside the box the response equals
the full-frame response bit for bit. The peak, the threshold and the
candidates come from inside the box. The response outside the box is
bounded from the range of the pixels it reads (`_outside_bound`): when
that bound stays under half the threshold, no pixel outside the box can
be a candidate or move the threshold, and the windowed result is the
full-frame result. Otherwise the frame is detected again in full.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import check_range
from .pgm import check_frame

# Gaussian filter support in units of sigma.
_TRUNCATE = 3.0
# Largest scale in px. Its Gaussian kernels span 2 * 192 + 1 = 385 taps,
# inside the 480 px short side of the default frame; a wider filter reads
# mostly border padding, and its kernel arrays grow with the scale (a
# scale of 1e9 asked numpy for 45 GiB).
_MAX_SCALE = 64.0
# Largest threshold_abs: the response is float32, and the threshold is
# compared with it in float32.
_MAX_THRESHOLD = float(np.finfo(np.float32).max)
# Largest min_separation in px: the diagonal of the 640x480 frame, past
# which suppression keeps one candidate whatever the value.
_MAX_SEPARATION = 800.0
# A window's result stands when the bound on the response outside it is
# at most this share of the threshold; the rest covers float32 rounding
# of the computed response.
_BOUND_SHARE = 0.5


@dataclass(frozen=True)
class DetectorConfig:
    # Filter scale in px; a marker of radius r responds strongest at
    # r/sqrt(2), 2.83 for the simulator's 4 px markers.
    scale: float = 2.83
    # Candidate threshold: relative to the frame's peak response, with an
    # absolute floor so a blank (noise-only) frame yields no detections.
    threshold_rel: float = 0.15
    threshold_abs: float = 1e-4
    min_separation: float = 4.0

    def __post_init__(self):
        check_range("scale", self.scale, lo=0.0, hi=_MAX_SCALE, lo_open=True)
        check_range("threshold_rel", self.threshold_rel, lo=0.0, hi=1.0)
        check_range("threshold_abs", self.threshold_abs, lo=0.0,
                    hi=_MAX_THRESHOLD)
        check_range("min_separation", self.min_separation, lo=0.0,
                    hi=_MAX_SEPARATION, lo_open=True)


@dataclass(frozen=True)
class MarkerSet:
    """Detected (or synthetic) marker centroids for one frame.

    centroids: the set's own read-only (M, 2) float64 array of (x, y) px.
    """

    centroids: np.ndarray

    def __post_init__(self):
        c = np.array(self.centroids, dtype=np.float64)
        if c.size == 0:
            c = c.reshape(0, 2)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError("centroids must be an (M, 2) array")
        # One NaN centroid turns the whole density field NaN, and an
        # infinite one counts in M but adds nothing to it.
        bad = int(np.count_nonzero(~np.isfinite(c).all(axis=1)))
        if bad:
            raise ValueError(f"{bad} centroid(s) are not finite (NaN or inf)")
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)

    def __len__(self):
        return self.centroids.shape[0]


def _radius(sigma):
    """Half-width of scipy's Gaussian kernels at truncate=3.0."""
    return int(_TRUNCATE * sigma + 0.5)


def _window_pad(config):
    """Pixels the response inside a window depends on beyond it: the
    Gaussian's half-width, plus one for the difference stencil and one for
    the +-1 neighbour read of the peak test and the quadratic fit."""
    return _radius(config.scale) + 2


def marker_window(markers, config, width, height):
    """The markers' bounding box widened by 2 * `_window_pad`, clipped to
    a width x height frame, as a half-open pixel box (x0, y0, x1, y1).

    The outside bound reads pixels up to r + 1 inside the box (the
    half-width of the Gaussian plus the stencil's pixel, less than
    `_window_pad`), and a marker the filter can detect reaches less than
    `_window_pad` from its center, so at rest no marker pixel enters that
    bound.
    """
    if len(markers) == 0:
        raise ValueError("a marker window needs at least one marker")
    margin = 2 * _window_pad(config)
    lo = np.floor(markers.centroids.min(axis=0)).astype(int) - margin
    hi = np.ceil(markers.centroids.max(axis=0)).astype(int) + margin + 1
    return (max(int(lo[0]), 0), max(int(lo[1]), 0),
            min(int(hi[0]), width), min(int(hi[1]), height))


def _outside_bound(pixels, box, config):
    """Upper bound on the response at every pixel outside the box.

    The Laplacian Ixx + Iyy that `_response` computes is one linear
    filter of the frame: the second-difference stencil [1, -2, 1] along
    each axis applied to the sampled Gaussian, a (2r + 3)-tap square
    kernel of half-width r + 1. At the frame's edges its taps read the
    nearest edge pixel. So outside the box the response reads only the
    frame minus the box shrunk by r + 1. Over those pixels, with extremes
    lo and hi, the Laplacian is at most P * hi - N * lo, where P and N
    are the summed magnitudes of that kernel's positive and negative
    taps. The gate passes only a positive Laplacian, and there
    sigma^4 * (Ixx * Iyy - Ixy^2) <= sigma^4 * (Ixx + Iyy)^2 / 4.
    """
    h, w = pixels.shape
    x0, y0, x1, y1 = box
    sigma = config.scale
    r = _radius(sigma)
    half = r + 1
    hx0, hy0, hx1, hy1 = x0 + half, y0 + half, x1 - half, y1 - half
    if hx0 >= hx1 or hy0 >= hy1:
        parts = [pixels]
    else:
        parts = [pixels[:hy0], pixels[hy1:],
                 pixels[hy0:hy1, :hx0], pixels[hy0:hy1, hx1:]]
    parts = [p for p in parts if p.size]
    # On the scale _response reads the bytes on.
    lo = min(float(p.min()) for p in parts) / 255
    hi = max(float(p.max()) for p in parts) / 255
    delta = np.zeros(2 * half + 1)
    delta[half] = 1.0
    # The sampled Gaussian (zero in its outer taps) and its second
    # difference, each 2r + 3 taps.
    k0 = ndimage.gaussian_filter1d(delta, sigma, mode="constant",
                                   truncate=_TRUNCATE)
    k2 = np.convolve(k0, [1.0, -2.0, 1.0], mode="same")
    lap = np.outer(k2, k0) + np.outer(k0, k2)
    laplacian = (float(lap[lap > 0].sum()) * hi
                 + float(lap[lap < 0].sum()) * lo)
    return sigma ** 4 * max(laplacian, 0.0) ** 2 / 4


def _response(pixels, config):
    """Gated determinant-of-Hessian response (float32) of 8-bit pixels,
    read on [0, 1]: one Gaussian smoothing, then central differences.

    The pixels are extended by their nearest edge pixel before smoothing,
    so the stencil at the edge reads the smoothed value one pixel beyond
    it, and every output is the fixed linear filter `_outside_bound`
    bounds applied to the edge-extended frame.
    """
    img = np.pad(pixels, 1, mode="edge") * np.float32(1 / 255)
    sigma = config.scale
    s = ndimage.gaussian_filter(img, sigma, mode="nearest",
                                truncate=_TRUNCATE)
    c = s[1:-1, 1:-1]
    dxx = s[1:-1, 2:] + s[1:-1, :-2] - 2 * c
    dyy = s[2:, 1:-1] + s[:-2, 1:-1] - 2 * c
    dxy = 0.25 * (s[2:, 2:] - s[2:, :-2] - s[:-2, 2:] + s[:-2, :-2])
    det = (sigma ** 4) * (dxx * dyy - dxy * dxy)
    # Dark blobs only: intensity minima have a positive Laplacian.
    det[(dxx + dyy) <= 0] = 0.0
    return det


def _quadratic_offsets(vm, v0, vp):
    """Vertex offsets of parabolas through (-1, vm), (0, v0), (1, vp),
    clipped to +-0.5, in the arrays' own (float32) arithmetic; 0 where
    the curvature is below 1e-12."""
    den = vm - 2.0 * v0 + vp
    flat = np.abs(den) < 1e-12
    off = 0.5 * (vm - vp) / np.where(flat, 1.0, den)
    return np.where(flat, 0.0, np.clip(off, -0.5, 0.5))


def _is_local_max(resp, ys, xs, vals):
    """Whether each candidate's response vals = resp[ys, xs] is >= each of
    its 8 neighbours, with neighbour indices clipped to resp: the test
    resp >= maximum_filter(resp, size=3, mode="nearest"), read only at
    the candidates."""
    h, w = resp.shape
    flat = resp.ravel()
    rows = [np.maximum(ys - 1, 0) * w, ys * w, np.minimum(ys + 1, h - 1) * w]
    cols = [np.maximum(xs - 1, 0), xs, np.minimum(xs + 1, w - 1)]
    keep = np.ones(len(ys), dtype=bool)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if i != 1 or j != 1:
                keep &= vals >= flat.take(r + c)
    return keep


def _suppress(xs, ys, min_separation):
    """Greedy non-maximum suppression over integer candidates listed in
    rank order: a candidate is kept unless a kept, higher-ranked one lies
    closer than min_separation (squared distance < min_separation^2).
    Returns the boolean keep mask.

    A candidate with no higher-ranked one that close is always kept; only
    the close pairs are walked, ordered by their lower-ranked member, so
    each candidate's fate is settled before it can suppress another.
    """
    if len(xs) < 2:
        return np.ones(len(xs), dtype=bool)
    # The tree's radius leaves room for rounding; the exact integer test
    # below decides.
    pairs = cKDTree(np.column_stack([xs, ys])).query_pairs(
        min_separation * (1.0 + 1e-9) + 1e-9, output_type="ndarray")
    hi, lo = pairs[:, 0], pairs[:, 1]  # hi < lo: hi ranks higher
    dx, dy = xs[hi] - xs[lo], ys[hi] - ys[lo]
    close = dx * dx + dy * dy < min_separation ** 2
    hi, lo = hi[close], lo[close]
    order = np.argsort(lo, kind="stable")
    keep = [True] * len(xs)
    for h, k in zip(hi[order].tolist(), lo[order].tolist()):
        if keep[h]:
            keep[k] = False
    return np.array(keep)


def detect_markers(frame, config=None, window=None):
    """Detect dark circular markers in a frame.

    window: optional half-open pixel box (x0, y0, x1, y1) expected to
    hold the markers. It saves work and never changes the result: when
    the response outside it is not bounded below the threshold, the
    whole frame is searched. Deterministic for a given frame and config.
    An empty MarkerSet is a valid result (blank frame). A frame that is
    not a 2-D uint8 array with a pixel raises ValueError (see
    `pgm.check_frame`).
    """
    config = config or DetectorConfig()
    check_frame(frame)
    h, w = frame.shape
    if window is not None:
        x0, y0, x1, y1 = window
        box = (max(x0, 0), max(y0, 0), min(x1, w), min(y1, h))
        if box[0] >= box[2] or box[1] >= box[3]:
            raise ValueError(f"window {window} holds no pixel of a "
                             f"{w}x{h} frame")
        if box != (0, 0, w, h):
            markers = _detect_in_box(frame, config, box)
            if markers is not None:
                return markers
    return _detect_in_box(frame, config, (0, 0, w, h))


def _detect_in_box(frame, config, box):
    """Markers inside the box, or None when a pixel outside the box
    might be a candidate or raise the threshold."""
    h, w = frame.shape
    x0, y0, x1, y1 = box
    # Filter on the box widened by the pad; (ox, oy) is the crop origin.
    pad = _window_pad(config)
    ox, oy = max(x0 - pad, 0), max(y0 - pad, 0)
    resp = _response(frame[oy:min(y1 + pad, h), ox:min(x1 + pad, w)],
                     config)
    # The box in crop coordinates.
    inner = (slice(y0 - oy, y1 - oy), slice(x0 - ox, x1 - ox))
    peak = float(resp[inner].max())
    threshold = max(config.threshold_abs, config.threshold_rel * peak)
    if box != (0, 0, w, h) and \
            _outside_bound(frame, box, config) > _BOUND_SHARE * threshold:
        return None
    ys, xs = np.nonzero(resp[inner] > threshold)
    ys += y0 - oy
    xs += x0 - ox
    vals = resp[ys, xs]
    peak = _is_local_max(resp, ys, xs, vals)
    if not peak.any():
        return MarkerSet(np.empty((0, 2)))
    ys, xs, vals = ys[peak], xs[peak], vals[peak]

    order = np.lexsort((xs, ys, -vals))
    ys, xs, vals = ys[order], xs[order], vals[order]

    # Greedy NMS in response order; ties resolved by (y, x).
    keep = _suppress(xs, ys, config.min_separation)
    kept_x = xs[keep]
    kept_y = ys[keep]

    # Sub-pixel fit, skipped on the frame's outermost rows and columns.
    cx = (kept_x + ox).astype(np.float64)
    cy = (kept_y + oy).astype(np.float64)
    fit = (cx > 0) & (cx < w - 1)
    x, y = kept_x[fit], kept_y[fit]
    cx[fit] += _quadratic_offsets(resp[y, x - 1], resp[y, x], resp[y, x + 1])
    fit = (cy > 0) & (cy < h - 1)
    x, y = kept_x[fit], kept_y[fit]
    cy[fit] += _quadratic_offsets(resp[y - 1, x], resp[y, x], resp[y + 1, x])

    out = np.lexsort((cx, cy))
    centroids = np.column_stack([cx[out], cy[out]])
    return MarkerSet(centroids)
