"""Gaussian kernel density over marker centroids and contact extraction.

The density at grid point (x, y) over M markers is

    d(x, y) = (1/M) * sum_m 1/(sqrt(2*pi)*h^2) * exp(-|(x,y)-(x_m,y_m)|^2 / (2 h^2))

with this exact normalization constant (not the standard bivariate
2*pi*h^2 one). The Gaussian is separable, so the whole field is one
product Gy.T @ Gx of two truncated 1-D kernel matrices: Gy (M, H) and
Gx (M, W) hold each marker's kernel along one axis, zeroed beyond 6h
from the marker; BLAS accumulates it over fixed blocks of markers.
Contact shows up as a low-density region: the largest connected
component below a threshold, whose density argmin is the contact
center.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import ndimage
from scipy.linalg.blas import dgemm

from .errors import EmptyMarkerSetError
from .pgm import write_pgm
from .tactile import FRAME_HEIGHT, FRAME_WIDTH

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

_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT_8 = np.ones((3, 3), dtype=bool)


@dataclass
class KdeConfig:
    kernel_width_h: float = 15.0
    # Threshold in per-px^2 density units: 0.3 per mm^2 converted through
    # the pixel scale (0.3 * s^2). See calibrate_threshold for the
    # reference-frame calibration actually used by the live pipeline.
    density_threshold_T: float = 0.3 * 0.05 ** 2
    pixel_scale_s: float = 0.05
    connectivity: int = 4

    def __post_init__(self):
        if self.kernel_width_h <= 0:
            raise ValueError("kernel_width_h must be > 0")
        if self.pixel_scale_s <= 0:
            raise ValueError("pixel_scale_s must be > 0")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")


@dataclass
class DensityField:
    """Density samples on the pixel grid of the frame.

    values[iy, ix] is the density at pixel (ix, iy). The source markers
    are retained to derive the marker support mask.
    """

    values: np.ndarray
    markers: Optional["np.ndarray"] = None
    kernel_width_h: float = 15.0


@dataclass
class ContactRegion:
    """Largest below-threshold connected component and its density argmin.

    pixels: (N, 2) int grid indices (ix, iy) of the component.
    center: (x, y) in pixel coordinates.
    center_index: (ix, iy) grid index of the argmin, a member of pixels.
    """

    pixels: np.ndarray
    center: Tuple[float, float]
    center_index: Tuple[int, int]
    min_density: float

    @property
    def area(self):
        return self.pixels.shape[0]


def _density_at_points(centroids, xs, ys, h):
    """Direct evaluation of the density sum at arbitrary points."""
    m = centroids.shape[0]
    c = 1.0 / (math.sqrt(2.0 * math.pi) * h * h)
    dx = xs[:, None] - centroids[None, :, 0]
    dy = ys[:, None] - centroids[None, :, 1]
    return c / m * np.exp(-(dx * dx + dy * dy) / (2.0 * h * h)).sum(axis=1)


def _kernel_matrix(centers, n, h):
    """(M, n) 1-D Gaussian kernels exp(-(g - c)^2 / (2 h^2)) on the grid
    g = 0..n-1, zeroed outside [c - 6h, c + 6h]."""
    grid = np.arange(n, dtype=np.float64)
    cut = _TRUNC_H * h
    outside = (grid < (centers - cut)[:, None]) \
        | (grid > (centers + cut)[:, None])
    k = grid - centers[:, None]
    np.square(k, out=k)
    k *= -1.0 / (2.0 * h * h)
    np.exp(k, out=k)
    k[outside] = 0.0
    return k


def estimate_density(markers, config=None, width=FRAME_WIDTH, height=FRAME_HEIGHT):
    """Evaluate the kernel density on the frame grid.

    The Gaussian is separable, so the field is the product of the two
    truncated 1-D kernel matrices, summed over fixed blocks of markers;
    the result matches the direct double summation to well below 1e-12.
    """
    config = config or KdeConfig()
    centroids = np.asarray(markers.centroids, dtype=np.float64)
    m = centroids.shape[0]
    if m == 0:
        raise EmptyMarkerSetError("kernel density undefined for zero markers")
    # Canonical accumulation order makes the field bit-exactly invariant
    # to marker permutation.
    order = np.lexsort((centroids[:, 0], centroids[:, 1]))
    centroids = centroids[order]

    h = config.kernel_width_h
    gx = _kernel_matrix(centroids[:, 0], width, h)
    gy = _kernel_matrix(centroids[:, 1], height, h)
    # BLAS adds each block's gx.T @ gy in place into the (W, H)
    # Fortran-ordered view of the C-ordered (H, W) field.
    acc = np.zeros((height, width)).T
    for k in range(0, m, _BLAS_BLOCK):
        acc = dgemm(1.0, gx[k:k + _BLAS_BLOCK].T, gy[k:k + _BLAS_BLOCK].T,
                    beta=1.0, c=acc, trans_b=True, overwrite_c=True)
    values = acc.T
    values *= 1.0 / (math.sqrt(2.0 * math.pi) * h * h * m)
    return DensityField(values=values, markers=centroids, kernel_width_h=h)


def marker_support_mask(field, margin=None):
    """Grid mask of the marker-covered area: the centroid bounding box
    eroded by margin px (default: the kernel width).

    Outside the marker footprint the density falls toward zero no matter
    what touches the skin, so contact thresholding is only meaningful on
    the support.
    """
    if field.markers is None or len(field.markers) == 0:
        raise EmptyMarkerSetError("support mask needs the source markers")
    margin = field.kernel_width_h if margin is None else margin
    x_lo = field.markers[:, 0].min() + margin
    x_hi = field.markers[:, 0].max() - margin
    y_lo = field.markers[:, 1].min() + margin
    y_hi = field.markers[:, 1].max() - margin
    ny, nx = field.values.shape
    xs = np.arange(nx)
    ys = np.arange(ny)
    return (ys[:, None] >= y_lo) & (ys[:, None] <= y_hi) \
        & (xs[None, :] >= x_lo) & (xs[None, :] <= x_hi)


def calibrate_threshold(reference_field, support, ratio):
    """Derive a working contact threshold from a no-contact reference field.

    Returns ratio * (minimum density over the marker support mask).
    With the reference grid intact the whole support sits above the
    returned value, so an undeformed frame reads NoContact; a real
    indentation empties its neighborhood and dips well below.
    """
    if not support.any():
        raise ValueError("support mask is empty; margin too large for the grid")
    return float(ratio * reference_field.values[support].min())


def extract_contact(field, config=None, support=None):
    """Threshold the field and extract the contact region and center.

    Returns None (NoContact) when no grid point is below the threshold.
    The region is the largest connected component below threshold
    (4-connected by default); the center is the density argmin over the
    region, ties broken by lowest row-major grid index. An optional
    boolean support mask restricts thresholding to the marker footprint.
    """
    config = config or KdeConfig()
    below = field.values < config.density_threshold_T
    if support is not None:
        below &= support
    if not below.any():
        return None

    structure = _STRUCT_4 if config.connectivity == 4 else _STRUCT_8
    labels, _ = ndimage.label(below, structure=structure)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    biggest = int(sizes.argmax())
    mask = labels == biggest

    masked = np.where(mask, field.values, np.inf)
    flat = int(masked.argmin())
    iy, ix = np.unravel_index(flat, masked.shape)
    center = (float(ix), float(iy))
    min_density = float(field.values[iy, ix])

    idx_y, idx_x = np.nonzero(mask)
    pixels = np.column_stack([idx_x, idx_y]).astype(np.int64)
    return ContactRegion(pixels=pixels, center=center,
                         center_index=(int(ix), int(iy)),
                         min_density=min_density)


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
