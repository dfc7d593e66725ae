"""The density sum evaluated directly, as an oracle for the KDE tests."""

import math

import numpy as np


def density_at_points(centroids, xs, ys, h):
    """Direct evaluation of the density sum at arbitrary points."""
    m = centroids.shape[0]
    c = 1.0 / (math.sqrt(2.0 * math.pi) * h * h)
    dx = xs[:, None] - centroids[None, :, 0]
    dy = ys[:, None] - centroids[None, :, 1]
    return c / m * np.exp(-(dx * dx + dy * dy) / (2.0 * h * h)).sum(axis=1)
