"""Dark-blob marker detection with a determinant-of-Hessian filter.

Markers are small dark disks on a light membrane image; frames are
8-bit and read on [0, 1]. At one scale sigma, matched to the marker
radius, the frame is smoothed once with a Gaussian (two separable
passes), and the second derivatives Ixx, Iyy and Ixy are central
differences of the smoothed image. The scale-normalized determinant of
the Hessian sigma^4*(Ixx*Iyy - Ixy^2) is the response. Dark blobs are
gated by a positive Laplacian (local intensity minimum). Candidates are
pixels above the threshold whose response is at least each of their 8
neighbours' (a local maximum; the left and right neighbours screen the
pixels first), deduplicated by greedy non-maximum suppression and
refined to sub-pixel positions with a per-axis quadratic fit.

Each frame is detected in its own dark box, which saves work without
changing the result. The dark box is the bounding box of the frame's
pixels below the midpoint of its least and greatest values, widened by
`_box_pad`: markers are dark, so on a rest or contact frame it holds
them all. The response is computed on the box and the one pixel around
it that the peak test's neighbour read and the quadratic fit read, from
the frame pixels within `_box_pad` of the box: the Gaussian's half-width
r, one pixel for the difference stencil and that one neighbour pixel.
The smoothing reads only pixels within r and the stencil only smoothed
values within one pixel, so there the response equals the full-frame
response bit for bit. The peak, the threshold and the candidates come
from inside the box. The response outside the box is bounded from the
range of the pixels it reads (`_outside_bound`): when that bound stays
under half the threshold, no pixel outside the box can be a candidate or
move the threshold, and the box's result is the full-frame result.
Otherwise, or when the frame has no dark pixel, the frame is detected in
full. A frame's result depends on that frame alone.
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
# A box's result stands when the bound on the response outside it is
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
        # Read by `_outside_bound` on every boxed frame; not a field, so
        # the scenario format, equality and repr see the settings alone.
        object.__setattr__(self, "_laplacian_taps",
                           _laplacian_taps(self.scale))


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


def _box_pad(config):
    """Pixels the response inside a box depends on beyond it: the
    Gaussian's half-width, plus one for the difference stencil and one for
    the +-1 neighbour read of the peak test and the quadratic fit.
    `_outside_bound` reads pixels up to r + 1 inside a box, so a dark box
    widened by this pad keeps every dark pixel out of that bound."""
    return _radius(config.scale) + 2


def _laplacian_taps(sigma):
    """The summed positive and the summed negative taps of the Laplacian
    Ixx + Iyy that `_response` computes, as one linear filter of the
    frame: the second-difference stencil [1, -2, 1] along each axis
    applied to the sampled Gaussian, a (2r + 3)-tap square kernel of
    half-width r + 1."""
    half = _radius(sigma) + 1
    delta = np.zeros(2 * half + 1)
    delta[half] = 1.0
    # The sampled Gaussian (zero in its outer taps) and its second
    # difference, each 2r + 3 taps.
    k0 = ndimage.gaussian_filter1d(delta, sigma, mode="constant",
                                   truncate=_TRUNCATE)
    k2 = np.convolve(k0, [1.0, -2.0, 1.0], mode="same")
    lap = np.outer(k2, k0) + np.outer(k0, k2)
    return float(lap[lap > 0].sum()), float(lap[lap < 0].sum())


def _outside_bound(pixels, box, config):
    """Upper bound on the response at every pixel outside the box.

    The Laplacian Ixx + Iyy that `_response` computes is one linear
    filter of the frame (`_laplacian_taps`), of half-width r + 1. At the
    frame's edges its taps read the nearest edge pixel. So outside the
    box the response reads only the frame minus the box shrunk by r + 1,
    on the sides that have frame pixels beyond them: a side on the
    frame's edge has no outside pixel to read the strip inside it.
    Over those pixels, with extremes lo and hi, the Laplacian is at most
    P * hi - N * lo, where P and N are the summed magnitudes of that
    kernel's positive and negative taps, which the config holds. The gate
    passes only a positive Laplacian, and there
    sigma^4 * (Ixx * Iyy - Ixy^2) <= sigma^4 * (Ixx + Iyy)^2 / 4.
    """
    x0, y0, x1, y1 = box
    h, w = pixels.shape
    sigma = config.scale
    half = _radius(sigma) + 1
    hx0 = x0 + half if x0 > 0 else 0
    hy0 = y0 + half if y0 > 0 else 0
    hx1 = x1 - half if x1 < w else w
    hy1 = y1 - half if y1 < h else h
    if hx0 >= hx1 or hy0 >= hy1:
        parts = [pixels]
    else:
        parts = [pixels[:hy0], pixels[hy1:],
                 pixels[hy0:hy1, :hx0], pixels[hy0:hy1, hx1:]]
    parts = [p for p in parts if p.size]
    # On the scale _response reads the bytes on.
    lo = min(float(p.min()) for p in parts) / 255
    hi = max(float(p.max()) for p in parts) / 255
    positive, negative = config._laplacian_taps
    laplacian = positive * hi + negative * lo
    return sigma ** 4 * max(laplacian, 0.0) ** 2 / 4


def _response(pixels, config, region=None):
    """Gated determinant-of-Hessian response (float32) of 8-bit pixels,
    read on [0, 1], at the pixels of `region`, a half-open box (x0, y0,
    x1, y1), all of them by default: one Gaussian smoothing, then central
    differences.

    The pixels are extended by their nearest edge pixel before smoothing,
    so the stencil at the edge reads the smoothed value one pixel beyond
    it, and every output is the fixed linear filter `_outside_bound`
    bounds applied to the edge-extended frame. Only what the region reads
    is computed: the smoothed values on the region widened by the
    stencil's pixel, from the input widened by the Gaussian's half-width
    r more. Each separable pass reads the same input values in the same
    order as it does over the whole frame, so the region's response has
    the whole frame's bytes.
    """
    h, w = pixels.shape
    x0, y0, x1, y1 = (0, 0, w, h) if region is None else region
    sigma = config.scale
    r = _radius(sigma)
    reach = r + 1  # input pixels the region reads beyond itself
    # img holds input rows y0 - reach .. y1 + reach - 1 and the columns
    # likewise; the part beyond the frame repeats the edge pixels.
    img = np.empty((y1 - y0 + 2 * reach, x1 - x0 + 2 * reach), np.float32)
    fy0, fy1 = max(y0 - reach, 0), min(y1 + reach, h)
    fx0, fx1 = max(x0 - reach, 0), min(x1 + reach, w)
    iy0, ix0 = fy0 - (y0 - reach), fx0 - (x0 - reach)
    iy1, ix1 = iy0 + fy1 - fy0, ix0 + fx1 - fx0
    np.multiply(pixels[fy0:fy1, fx0:fx1], np.float32(1 / 255),
                out=img[iy0:iy1, ix0:ix1])
    img[iy0:iy1, :ix0] = img[iy0:iy1, ix0:ix0 + 1]
    img[iy0:iy1, ix1:] = img[iy0:iy1, ix1 - 1:ix1]
    img[:iy0] = img[iy0]
    img[iy1:] = img[iy1 - 1]
    # gaussian_filter's two passes, in its order: along axis 0, then
    # along axis 1 on the rows the stencil reads.
    s = ndimage.gaussian_filter(img, sigma, mode="nearest",
                                truncate=_TRUNCATE, axes=0)
    s = ndimage.gaussian_filter(s[r:r + y1 - y0 + 2], sigma, mode="nearest",
                                truncate=_TRUNCATE, axes=1)
    s = s[:, r:r + x1 - x0 + 2]
    # In place, in the operation order of
    # dxx = s[1:-1, 2:] + s[1:-1, :-2] - 2 * c and its like.
    c = s[1:-1, 1:-1]
    twice = c + c
    dxx = s[1:-1, 2:] + s[1:-1, :-2]
    dxx -= twice
    dyy = s[2:, 1:-1] + s[:-2, 1:-1]
    dyy -= twice
    dxy = np.subtract(s[2:, 2:], s[2:, :-2], out=twice)
    dxy -= s[:-2, 2:]
    dxy += s[:-2, :-2]
    dxy *= np.float32(0.25)
    det = dxx * dyy
    dxy *= dxy
    det -= dxy
    det *= np.float32(sigma ** 4)
    # Dark blobs only: intensity minima have a positive Laplacian. The
    # gate multiplies by 0 or 1, and a negative value times 0 is -0.0;
    # adding 0.0 turns that into the 0.0 the gate stands for and leaves
    # every other value, as no response of 8-bit pixels is -0.0 (only an
    # underflowing product of differences could be).
    dxx += dyy
    det *= dxx > 0
    det += np.float32(0.0)
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


def detect_markers(frame, config=None):
    """Detect dark circular markers in a frame.

    Detection runs in the frame's dark box (`_dark_box`) when the
    response outside it is bounded below the threshold, and on the whole
    frame otherwise; both give the same result. Deterministic for a given
    frame and config. An empty MarkerSet is a valid result (blank
    frame). A frame that is not a 2-D uint8 array with a pixel raises
    ValueError (see `pgm.check_frame`).
    """
    config = config or DetectorConfig()
    check_frame(frame)
    box = _dark_box(frame, config)
    if box is not None:
        markers = _detect_in_box(frame, config, box)
        if markers is not None:
            return markers
    h, w = frame.shape
    return _detect_in_box(frame, config, (0, 0, w, h))


def _dark_box(frame, config):
    """The bounding box of the frame's pixels below the midpoint of its
    least and greatest values, widened by `_box_pad` and clipped to the
    frame, as a half-open pixel box (x0, y0, x1, y1); None when no pixel
    lies below (a uniform frame)."""
    lo, hi = int(frame.min()), int(frame.max())
    # For a whole pixel value v, v < (lo + hi) / 2 is v < ceil((lo + hi) / 2).
    dark = frame < (lo + hi + 1) // 2
    rows = np.flatnonzero(dark.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(dark[rows[0]:rows[-1] + 1].any(axis=0))
    h, w = frame.shape
    pad = _box_pad(config)
    return (max(int(cols[0]) - pad, 0), max(int(rows[0]) - pad, 0),
            min(int(cols[-1]) + pad + 1, w), min(int(rows[-1]) + pad + 1, h))


def _screen(resp, inner, threshold):
    """(ys, xs) in resp of the pixels of the box `inner` (a pair of
    slices) whose response is above the threshold and at least their
    left and right neighbours', with neighbour columns clipped to resp as
    `_is_local_max` clips them: every pixel that test can keep."""
    rows, cols = inner
    band = resp[rows]
    x0, x1 = cols.start, cols.stop
    vals = band[:, x0:x1]
    keep = vals > threshold
    # At resp's first or last column a pixel is its own clipped neighbour.
    left = 1 if x0 == 0 else 0
    right = 1 if x1 == band.shape[1] else 0
    keep[:, left:] &= vals[:, left:] >= band[:, x0 + left - 1:x1 - 1]
    keep[:, :x1 - x0 - right] &= vals[:, :x1 - x0 - right] \
        >= band[:, x0 + 1:x1 + 1 - right]
    ys, xs = np.divmod(np.flatnonzero(keep), x1 - x0)
    return ys + rows.start, xs + x0


def _detect_in_box(frame, config, box):
    """Markers inside the box, or None when a pixel outside the box
    might be a candidate or raise the threshold."""
    h, w = frame.shape
    x0, y0, x1, y1 = box
    # The response on the box and the one pixel around it that the peak
    # test and the fit read, clipped to the frame; (ox, oy) is its origin.
    ox, oy = max(x0 - 1, 0), max(y0 - 1, 0)
    resp = _response(frame, config, (ox, oy, min(x1 + 1, w), min(y1 + 1, h)))
    # The box in resp's coordinates.
    inner = (slice(y0 - oy, y1 - oy), slice(x0 - ox, x1 - ox))
    peak = float(resp[inner].max())
    threshold = max(config.threshold_abs, config.threshold_rel * peak)
    if box != (0, 0, w, h) and \
            _outside_bound(frame, box, config) > _BOUND_SHARE * threshold:
        return None
    ys, xs = _screen(resp, inner, threshold)
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
