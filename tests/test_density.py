import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tacgrip as tg
from tacgrip import density, perception
from tacgrip.density import (ContactRegion, DensityField, KdeConfig,
                             _density_at_points, calibrate_threshold,
                             estimate_density, extract_contact,
                             marker_support_mask, write_density_pgm)
from tacgrip.errors import EmptyMarkerSetError
from tacgrip.pgm import read_pgm


def brute_force_density(centroids, width, height, h):
    """Plain double-loop evaluation of the kernel sum; the oracle shares
    no code with estimate_density."""
    out = np.zeros((height, width))
    m = len(centroids)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * h * h)
    for gy in range(height):
        for gx in range(width):
            acc = 0.0
            for mx, my in centroids:
                d2 = (gx - mx) ** 2 + (gy - my) ** 2
                acc += norm * math.exp(-d2 / (2.0 * h * h))
            out[gy, gx] = acc / m
    return out


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = int(rng.integers(1, 51))
        cents = np.column_stack([rng.uniform(0, 63, m), rng.uniform(0, 47, m)])
        field = estimate_density(tg.MarkerSet(cents), KdeConfig(),
                                 width=64, height=48)
        oracle = brute_force_density(cents, 64, 48, 15.0)
        assert np.abs(field.values - oracle).max() < 1e-12


def test_single_marker_hand_value():
    # Eq. value at the marker itself: 1 / (sqrt(2*pi) * h^2)
    field = estimate_density(tg.MarkerSet(np.array([[320.0, 240.0]])))
    expect = 1.0 / (math.sqrt(2.0 * math.pi) * 15.0 ** 2)
    assert field.values[240, 320] == pytest.approx(expect, rel=1e-15)
    assert expect == pytest.approx(1.77308e-3, abs=1e-8)


def test_mirror_symmetry():
    field = estimate_density(
        tg.MarkerSet(np.array([[300.0, 240.0], [340.0, 240.0]])))
    assert field.values[240, 310] == pytest.approx(field.values[240, 330],
                                                   rel=1e-14)


def test_far_field_below_tail_bound():
    field = estimate_density(tg.MarkerSet(np.array([[100.0, 100.0]])))
    peak = field.values.max()
    # all points farther than 6h = 90 px from the only marker
    gx, gy = np.meshgrid(np.arange(640.0), np.arange(480.0))
    far = np.hypot(gx - 100, gy - 100) > 6 * 15.0
    # kernel ratio at 6h is exp(-18) ~ 1.523e-8
    assert field.values[far].max() <= math.exp(-18.0) * peak * 1.01


def test_full_frame_matches_direct_sum_within_tail(nominal_model):
    # On the 640x480 frame the 6h truncation is active; each marker drops
    # less than exp(-18) of its peak, so the field stays within
    # norm * exp(-18) of the untruncated sum.
    ms = tg.displace_markers(nominal_model, None)
    field = estimate_density(ms)
    rng = np.random.default_rng(4)
    ix = rng.integers(0, 640, 2000)
    iy = rng.integers(0, 480, 2000)
    direct = _density_at_points(ms.centroids, ix.astype(float),
                                iy.astype(float), 15.0)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * 15.0 ** 2)
    assert np.abs(field.values[iy, ix] - direct).max() <= norm * math.exp(-18.0)


def test_translation_equivariance_bit_exact():
    rng = np.random.default_rng(1)
    cents = np.column_stack([rng.uniform(100, 200, 12),
                             rng.uniform(100, 200, 12)])
    # snap to multiples of 1/1024 so the shifted coordinates are exactly
    # representable; otherwise "translate by (dx,dy)" has no float meaning
    cents = np.round(cents * 1024.0) / 1024.0
    dx, dy = 37, 21
    a = estimate_density(tg.MarkerSet(cents))
    b = estimate_density(tg.MarkerSet(cents + np.array([dx, dy])))
    assert np.array_equal(a.values[100:250, 100:250],
                          b.values[100 + dy:250 + dy, 100 + dx:250 + dx])


def test_permutation_invariance_bit_exact():
    rng = np.random.default_rng(2)
    cents = np.column_stack([rng.uniform(50, 590, 30),
                             rng.uniform(50, 430, 30)])
    a = estimate_density(tg.MarkerSet(cents))
    b = estimate_density(tg.MarkerSet(cents[::-1]))
    assert np.array_equal(a.values, b.values)


def test_empty_markerset_rejected():
    with pytest.raises(EmptyMarkerSetError):
        estimate_density(tg.MarkerSet(np.empty((0, 2))))


def _field_from(values, markers=None):
    return DensityField(values=np.asarray(values, dtype=float),
                        markers=markers, kernel_width_h=15.0)


def test_extract_depressed_disk():
    values = np.full((480, 640), 1.0)
    gx, gy = np.meshgrid(np.arange(640.0), np.arange(480.0))
    r = np.hypot(gx - 200, gy - 300)
    values -= np.where(r < 25, 0.9 * (1 - r / 25.0), 0.0)
    region = extract_contact(_field_from(values),
                             KdeConfig(density_threshold_T=0.5))
    assert region is not None
    assert region.center == (200, 300)


def test_extract_picks_largest_component():
    values = np.full((480, 640), 1.0)
    values[10:20, 10:20] = 0.2    # 100 points
    values[100:105, 100:110] = 0.1  # 50 points, deeper but smaller
    region = extract_contact(_field_from(values),
                             KdeConfig(density_threshold_T=0.5))
    assert region.area == 100
    assert (10, 10) <= region.center <= (19, 19)


def test_extract_no_contact_when_all_above_threshold():
    values = np.full((480, 640), 1.0)
    assert extract_contact(_field_from(values),
                           KdeConfig(density_threshold_T=0.5)) is None


def test_extract_strictly_below_threshold():
    values = np.full((480, 640), 1.0)
    values[5, 5] = 0.5  # equal to T: not below, no contact
    assert extract_contact(_field_from(values),
                           KdeConfig(density_threshold_T=0.5)) is None


def test_argmin_tie_breaks_row_major():
    values = np.full((480, 640), 1.0)
    values[40:43, 40:43] = 0.3  # nine-way tie
    region = extract_contact(_field_from(values),
                             KdeConfig(density_threshold_T=0.5))
    assert region.center == (40, 40)


def test_center_attains_region_minimum():
    rng = np.random.default_rng(3)
    values = np.full((480, 640), 1.0)
    values[200:240, 300:360] = rng.uniform(0.1, 0.4, (40, 60))
    region = extract_contact(_field_from(values),
                             KdeConfig(density_threshold_T=0.5))
    cx, cy = region.center_index
    assert values[cy, cx] == values[200:240, 300:360].min()
    assert region.min_density == values[cy, cx]


def test_connectivity_flag_bridges_diagonals():
    values = np.full((480, 640), 1.0)
    # two 3x3 pools joined only at a diagonal
    values[50:53, 50:53] = 0.2
    values[53:56, 53:56] = 0.2
    values[60:63, 70:74] = 0.2  # separate 12-point pool
    four = extract_contact(_field_from(values),
                           KdeConfig(density_threshold_T=0.5))
    eight = extract_contact(_field_from(values),
                            KdeConfig(density_threshold_T=0.5,
                                      connectivity=8))
    assert four.area == 12      # diagonal halves count separately
    assert eight.area == 18     # merged across the diagonal


def test_support_mask_restricts_thresholding(nominal_model):
    ms = tg.displace_markers(nominal_model, None)
    field = estimate_density(ms)
    support = marker_support_mask(field)
    # outside the marker footprint the density is trivially "low"; with
    # the support mask the untouched grid must stay silent
    cfg = KdeConfig(density_threshold_T=float(field.values[support].min()))
    assert extract_contact(field, cfg, support=support) is None
    assert extract_contact(field, cfg) is not None


def test_calibrate_threshold_is_ratio_of_support_min(nominal_model):
    ms = tg.displace_markers(nominal_model, None)
    field = estimate_density(ms)
    support = marker_support_mask(field)
    t = calibrate_threshold(field, support, ratio=0.5)
    assert t == pytest.approx(0.5 * field.values[support].min(), rel=1e-12)
    with pytest.raises(ValueError):
        calibrate_threshold(field, np.zeros_like(support), ratio=0.5)


def test_calibrate_runs_the_kde_once(monkeypatch, reference_frame):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return estimate_density(*args, **kwargs)

    monkeypatch.setattr(perception, "estimate_density", counting)
    monkeypatch.setattr(density, "estimate_density", counting)
    pipe = perception.FingerPipeline(1, calibration_ratio=0.8)
    threshold = pipe.calibrate(reference_frame)
    assert len(calls) == 1
    args, kwargs = calls[0]
    field = estimate_density(*args, **kwargs)
    assert np.array_equal(pipe.support, marker_support_mask(field))
    assert threshold == 0.8 * field.values[pipe.support].min()
    assert pipe.kde_config.density_threshold_T == threshold


_FIELD_DIGEST = """
import hashlib
import numpy as np
import tacgrip as tg
digest = hashlib.sha256()
nominal = tg.displace_markers(tg.SensorModel(), None)
crowded = tg.MarkerSet(np.random.default_rng(6).uniform(
    (-50, -50), (690, 530), (600, 2)))
for markers in (nominal, crowded):
    digest.update(tg.estimate_density(markers).values.tobytes())
print(digest.hexdigest())
"""


def test_field_bytes_independent_of_blas_threads():
    # The field is a BLAS matrix product; same-seed traces stay
    # byte-identical only if its bytes do not depend on the thread count.
    # 600 markers is past the reduction length (384 on SkylakeX) at
    # which one OpenBLAS product gives thread-count-dependent bytes.
    src = str(Path(tg.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _FIELD_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_write_density_pgm_normalizes(tmp_path, nominal_model):
    ms = tg.displace_markers(nominal_model, None)
    field = estimate_density(ms)
    path = tmp_path / "density.pgm"
    write_density_pgm(field, path)
    img = read_pgm(path)
    assert img.shape == field.values.shape
    assert img.min() == 0 and img.max() == 255


def test_contact_region_area():
    region = ContactRegion(pixels=np.array([[1, 2], [1, 3], [2, 2]]),
                           center=(2, 1), center_index=0, min_density=0.1)
    assert region.area == 3
