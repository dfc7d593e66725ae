"""Gaussian kernel density over marker centroids and contact extraction.

The density at grid point (x, y) over M markers is

    d(x, y) = (1/M) * sum_m 1/(sqrt(2*pi)*h^2) * exp(-|(x,y)-(x_m,y_m)|^2 / (2 h^2))

with this exact normalization constant (not the standard bivariate
2*pi*h^2 one). The Gaussian is separable, so the field is one product
Gy.T @ Gx of two truncated 1-D kernel matrices: Gy (M, H) and Gx (M, W)
hold each marker's kernel along one axis, zeroed beyond 6h from the
marker; BLAS accumulates it over fixed blocks of markers.

The field covers a box of the frame, the whole frame by default. The
live pipeline asks only for the support box (`marker_support_box`, the
marker footprint eroded by h), where contact is read; a box field holds
the same bytes as the full-frame field at the same pixels. Contact shows
up as a low-density region: the largest connected component below a
threshold, whose density argmin is the contact center.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import ndimage
from scipy.linalg.blas import dgemm

from .errors import check_range
from .pgm import FRAME_HEIGHT, FRAME_WIDTH, write_pgm

# Kernel support cut-off in units of h. The relative tail beyond 6h is
# exp(-18) ~ 1.5e-8, which satisfies the >6h tail bound outright, and on
# grids whose diagonal is under 6h (the 64x48 oracle geometry) every
# in-grid point lies inside the window, so the truncated sum equals the
# brute-force summation bit for bit.
_TRUNC_H = 6.0

# Markers per block of the kernel-matrix product. OpenBLAS splits a
# reduction longer than its block depth (384 for its SkylakeX kernels;
# the depth varies by CPU) at points that depend on the thread count, so
# one long product gives thread-count-dependent bytes. Blocks of 128,
# accumulated in a fixed order, stay under that depth and keep the
# field's bytes the same for any thread count.
_BLAS_BLOCK = 128

# A box's kernel matrices span the box snapped outward to multiples of
# this many pixels, clipped to the frame; the product is then sliced back
# to the box. BLAS computes edge tiles and per-thread partitions of the
# product with other kernels than full tiles, so a pixel's bytes depend
# on where the product's rows and columns start. Boxes cut exactly at
# their edges, or snapped to 8 px, gave fields that differed from the
# full-frame field in the last bits (OpenBLAS, AVX-512, 1 and 2
# threads); snapped to 32 px they matched it on every box tried.
_BOX_SNAP = 32

_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class KdeConfig:
    kernel_width_h: float = 15.0
    pixel_scale_s: float = 0.05

    def __post_init__(self):
        # A kernel under half a pixel wide resolves nothing between pixel
        # centers, and below ~1e-154 px its squared width underflows to 0.
        check_range("kernel_width_h", self.kernel_width_h, lo=0.5)
        check_range("pixel_scale_s", self.pixel_scale_s, lo=0.0, lo_open=True)


@dataclass
class DensityField:
    """Density samples on the pixel grid of a box of the frame.

    values[iy, ix] is the density at frame pixel (x0 + ix, y0 + iy),
    where origin = (x0, y0) is the box's top-left pixel.
    """

    values: np.ndarray
    origin: Tuple[int, int] = (0, 0)


@dataclass
class ContactRegion:
    """Largest below-threshold connected component, as the loop reads it.

    center: (x, y) frame pixel of the component's density argmin.
    area: the component's size in pixels.
    min_density: the density at center, in per-px^2 units.
    """

    center: Tuple[float, float]
    area: int
    min_density: float


def _kernel_matrix(centers, lo, hi, h):
    """(M, hi - lo) 1-D Gaussian kernels exp(-(g - c)^2 / (2 h^2)) on the
    grid g = lo..hi-1, zeroed outside [c - 6h, c + 6h]. An entry has the
    same operands whatever the grid's range, so it has the same bytes."""
    grid = np.arange(lo, hi, dtype=np.float64)
    cut = _TRUNC_H * h
    outside = (grid < (centers - cut)[:, None]) \
        | (grid > (centers + cut)[:, None])
    k = grid - centers[:, None]
    np.square(k, out=k)
    k *= -1.0 / (2.0 * h * h)
    np.exp(k, out=k)
    k[outside] = 0.0
    return k


def _snap_out(lo, hi, size):
    """[lo, hi) widened to multiples of _BOX_SNAP, clipped to [0, size)."""
    return (lo - lo % _BOX_SNAP,
            min(-(-hi // _BOX_SNAP) * _BOX_SNAP, size))


def estimate_density(markers, config=None, width=FRAME_WIDTH,
                     height=FRAME_HEIGHT, box=None):
    """Evaluate the kernel density on the pixel grid of a box.

    width, height: the frame size. box: half-open pixel box
    (x0, y0, x1, y1) inside the frame; the whole frame by default. The
    field at a pixel has the same bytes whichever box holds it.

    The Gaussian is separable, so the field is the product of the two
    truncated 1-D kernel matrices, summed over fixed blocks of markers;
    the result matches the direct double summation to well below 1e-12.
    """
    config = config or KdeConfig()
    x0, y0, x1, y1 = (0, 0, width, height) if box is None else box
    if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
        raise ValueError(f"box {box} holds no pixel or leaves the "
                         f"{width}x{height} frame")
    centroids = np.asarray(markers.centroids, dtype=np.float64)
    m = centroids.shape[0]
    if m == 0:
        raise ValueError("kernel density undefined for zero markers")
    # Canonical accumulation order makes the field bit-exactly invariant
    # to marker permutation.
    order = np.lexsort((centroids[:, 0], centroids[:, 1]))
    centroids = centroids[order]

    h = config.kernel_width_h
    sx0, sx1 = _snap_out(x0, x1, width)
    sy0, sy1 = _snap_out(y0, y1, height)
    gx = _kernel_matrix(centroids[:, 0], sx0, sx1, h)
    gy = _kernel_matrix(centroids[:, 1], sy0, sy1, h)
    # BLAS adds each block's gx.T @ gy in place into the (W, H)
    # Fortran-ordered view of the C-ordered (H, W) field.
    acc = np.zeros((sy1 - sy0, sx1 - sx0)).T
    for k in range(0, m, _BLAS_BLOCK):
        acc = dgemm(1.0, gx[k:k + _BLAS_BLOCK].T, gy[k:k + _BLAS_BLOCK].T,
                    beta=1.0, c=acc, trans_b=True, overwrite_c=True)
    values = acc.T[y0 - sy0:y1 - sy0, x0 - sx0:x1 - sx0]
    values *= 1.0 / (math.sqrt(2.0 * math.pi) * h * h * m)
    return DensityField(values=values, origin=(x0, y0))


def marker_support_box(markers, margin, width, height):
    """The marker-covered area: the centroid bounding box eroded by
    margin px, as the half-open box (x0, y0, x1, y1) of the frame pixels
    inside it.

    Outside the marker footprint the density falls toward zero no matter
    what touches the skin, so contact is read only on the support.
    """
    if len(markers) == 0:
        raise ValueError("support box needs at least one marker")
    c = markers.centroids
    x0 = max(math.ceil(c[:, 0].min() + margin), 0)
    x1 = min(math.floor(c[:, 0].max() - margin) + 1, width)
    y0 = max(math.ceil(c[:, 1].min() + margin), 0)
    y1 = min(math.floor(c[:, 1].max() - margin) + 1, height)
    if x0 >= x1 or y0 >= y1:
        raise ValueError("support box is empty; margin too large for the grid")
    return (x0, y0, x1, y1)


def calibrate_threshold(reference_field, ratio):
    """Derive a working contact threshold from a no-contact reference field
    over the support box.

    Returns ratio * (minimum density of the field). With the reference
    grid intact the whole support sits above the returned value, so an
    undeformed frame reads NoContact; a real indentation empties its
    neighborhood and dips well below.
    """
    return float(ratio * reference_field.values.min())


def extract_contact(field, threshold):
    """Threshold the field and extract the contact region and center.

    threshold is in the field's per-px^2 density units; the pipeline
    calibrates it (calibrate_threshold). Returns None (NoContact) when no
    grid point is below it. The region is the largest connected
    component below threshold (4-connected); the center is the
    density argmin over the region, ties broken by lowest row-major grid
    index, in frame coordinates: the field's origin is added back.
    """
    below = field.values < threshold
    if not below.any():
        return None

    labels, _ = ndimage.label(below, structure=_STRUCT_4)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    biggest = int(sizes.argmax())

    masked = np.where(labels == biggest, field.values, np.inf)
    iy, ix = np.unravel_index(int(masked.argmin()), masked.shape)
    ox, oy = field.origin
    return ContactRegion(center=(float(ix + ox), float(iy + oy)),
                         area=int(sizes[biggest]),
                         min_density=float(field.values[iy, ix]))


def write_density_pgm(field, path):
    """Export the field as an 8-bit PGM, normalized to its own min/max.

    Absolute density units are calibration dependent, so the header
    records the mapping.
    """
    lo = float(field.values.min())
    hi = float(field.values.max())
    span = hi - lo if hi > lo else 1.0
    image = (field.values - lo) / span
    write_pgm(path, image, comment=f"density min={lo:.6e} max={hi:.6e} per px^2")
