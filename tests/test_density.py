import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tacgrip as tg
from scipy import ndimage

from tacgrip import density, perception
from tacgrip.density import (DensityField, KdeConfig, calibrate_threshold,
                             estimate_density, extract_contact,
                             marker_support_box, write_density_pgm)
from tacgrip.errors import ValidationError
from tacgrip.pgm import read_pgm
from tacgrip.sensor_sim import ContactStimulus, nominal_grid

from kde_oracle import density_at_points


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
    direct = density_at_points(ms.centroids, ix.astype(float),
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
    with pytest.raises(ValueError, match="undefined for zero markers"):
        estimate_density(tg.MarkerSet(np.empty((0, 2))))


def _field_from(values):
    return DensityField(values=np.asarray(values, dtype=float))


def test_extract_depressed_disk():
    values = np.full((480, 640), 1.0)
    gx, gy = np.meshgrid(np.arange(640.0), np.arange(480.0))
    r = np.hypot(gx - 200, gy - 300)
    values -= np.where(r < 25, 0.9 * (1 - r / 25.0), 0.0)
    region = extract_contact(_field_from(values), 0.5)
    assert region is not None
    assert region.center == (200, 300)


def test_extract_picks_largest_component():
    values = np.full((480, 640), 1.0)
    values[10:20, 10:20] = 0.2    # 100 points
    values[100:105, 100:110] = 0.1  # 50 points, deeper but smaller
    region = extract_contact(_field_from(values), 0.5)
    assert region.area == 100
    assert (10, 10) <= region.center <= (19, 19)


def test_extract_no_contact_when_all_above_threshold():
    values = np.full((480, 640), 1.0)
    assert extract_contact(_field_from(values), 0.5) is None


def test_extract_strictly_below_threshold():
    values = np.full((480, 640), 1.0)
    values[5, 5] = 0.5  # equal to T: not below, no contact
    assert extract_contact(_field_from(values), 0.5) is None


def test_argmin_tie_breaks_row_major():
    values = np.full((480, 640), 1.0)
    values[40:43, 40:43] = 0.3  # nine-way tie
    region = extract_contact(_field_from(values), 0.5)
    assert region.center == (40, 40)


def test_center_attains_region_minimum():
    rng = np.random.default_rng(3)
    values = np.full((480, 640), 1.0)
    values[200:240, 300:360] = rng.uniform(0.1, 0.4, (40, 60))
    region = extract_contact(_field_from(values), 0.5)
    cx, cy = (int(v) for v in region.center)
    assert values[cy, cx] == values[200:240, 300:360].min()
    assert region.min_density == values[cy, cx]


def test_diagonal_neighbours_are_separate_regions():
    values = np.full((480, 640), 1.0)
    # two 3x3 pools joined only at a diagonal
    values[50:53, 50:53] = 0.2
    values[53:56, 53:56] = 0.2
    values[60:63, 70:74] = 0.2  # separate 12-point pool
    region = extract_contact(_field_from(values), 0.5)
    assert region.area == 12  # 4-connected: the diagonal halves are apart


def _old_support_mask(centroids, margin, width, height):
    """The full-frame support mask the pipeline thresholded under before
    it computed on the support box: the centroid bounding box eroded by
    margin, as a grid mask."""
    x_lo = centroids[:, 0].min() + margin
    x_hi = centroids[:, 0].max() - margin
    y_lo = centroids[:, 1].min() + margin
    y_hi = centroids[:, 1].max() - margin
    xs = np.arange(width)
    ys = np.arange(height)
    return (ys[:, None] >= y_lo) & (ys[:, None] <= y_hi) \
        & (xs[None, :] >= x_lo) & (xs[None, :] <= x_hi)


def _old_extract_contact(values, threshold, support):
    """The full-frame contact extraction under a support mask, as
    (pixels, center, center_index, min_density), or None."""
    below = (values < threshold) & support
    if not below.any():
        return None
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labels, _ = ndimage.label(below, structure=structure)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    mask = labels == int(sizes.argmax())
    iy, ix = np.unravel_index(int(np.where(mask, values, np.inf).argmin()),
                              values.shape)
    idx_y, idx_x = np.nonzero(mask)
    return (np.column_stack([idx_x, idx_y]).astype(np.int64),
            (float(ix), float(iy)), (int(ix), int(iy)),
            float(values[iy, ix]))


def _box_of(mask):
    ys, xs = np.nonzero(mask)
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1,
            int(ys.max()) + 1)


def test_support_mask_restricts_thresholding(nominal_model):
    ms = tg.displace_markers(nominal_model, None)
    box = marker_support_box(ms, 15.0, 640, 480)
    field = estimate_density(ms, box=box)
    assert field.origin == box[:2]
    assert field.values.shape == (box[3] - box[1], box[2] - box[0])
    # outside the marker footprint the density is trivially "low"; on the
    # support box the untouched grid must stay silent
    threshold = float(field.values.min())
    assert extract_contact(field, threshold) is None
    assert extract_contact(estimate_density(ms), threshold) is not None


def test_calibrate_threshold_is_ratio_of_support_min(nominal_model):
    ms = tg.displace_markers(nominal_model, None)
    box = marker_support_box(ms, 15.0, 640, 480)
    full = estimate_density(ms)
    support = _old_support_mask(ms.centroids, 15.0, 640, 480)
    t = calibrate_threshold(estimate_density(ms, box=box), ratio=0.5)
    assert t == 0.5 * full.values[support].min()


def test_support_box_matches_old_mask():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 40))
        cents = rng.uniform((-100, -100), (740, 580), (n, 2))
        margin = float(rng.choice([0.0, 2.5, 15.0, 40.0]))
        if rng.random() < 0.4:
            # bounds at exact integers after the erosion
            cents = np.round(cents)
            margin = float(round(margin))
        cases.append((cents, margin))
    # bounds outside the frame on every side, and an eroded-away box
    cases.append((np.array([[-30.0, -40.0], [700.0, 520.0]]), 15.0))
    cases.append((np.array([[100.0, 100.0], [120.0, 300.0]]), 15.0))
    empty = 0
    for cents, margin in cases:
        mask = _old_support_mask(cents, margin, 640, 480)
        if not mask.any():
            empty += 1
            with pytest.raises(ValueError, match="support"):
                marker_support_box(tg.MarkerSet(cents), margin, 640, 480)
            continue
        box = marker_support_box(tg.MarkerSet(cents), margin, 640, 480)
        assert box == _box_of(mask)
        x0, y0, x1, y1 = box
        assert mask[y0:y1, x0:x1].all()
    assert 10 <= empty < len(cases) - 100
    with pytest.raises(ValueError, match="needs at least one marker"):
        marker_support_box(tg.MarkerSet(np.empty((0, 2))), 15.0, 640, 480)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marker_set_refuses_non_finite_centroids(bad):
    # One NaN centroid made the whole field NaN, which extract_contact
    # read as NoContact, and failed marker_support_box with a float
    # conversion error; an infinite one counted in M but added nothing.
    centroids = nominal_grid(tg.SensorModel())
    centroids[[3, 40], 1] = bad
    centroids[7] = bad
    with pytest.raises(ValueError,
                       match=r"^3 centroid\(s\) are not finite \(NaN or inf\)"):
        tg.MarkerSet(centroids)
    centroids[[3, 7, 40]] = 320.0
    assert len(tg.MarkerSet(centroids)) == 300


def test_a_marker_set_keeps_the_centroids_it_checked():
    # A NaN rebound or written in after the check made estimate_density
    # return an all-NaN field without an error.
    centroids = nominal_grid(tg.SensorModel())
    markers = tg.MarkerSet(centroids)
    centroids[0] = np.nan  # the set holds its own copy
    with pytest.raises(dataclasses.FrozenInstanceError):
        markers.centroids = np.array([[np.nan, 1.0]])
    with pytest.raises(ValueError, match="read-only"):
        markers.centroids[0, 0] = np.nan
    assert np.isfinite(estimate_density(markers).values).all()


def _contact_frames(model, n, seed):
    """(markers, frame) for seeded contacts; four in five are centered on
    an edge of the marker grid, or h inside or outside it."""
    grid = nominal_grid(model)
    lo, hi = grid.min(0), grid.max(0)
    rng = np.random.default_rng(seed)
    for seq in range(n):
        x, y = rng.uniform(lo, hi)
        edge = seq % 5
        shift = float(rng.choice([-15.0, 0.0, 15.0]))
        if edge < 2:
            x = (lo[0], hi[0])[edge] + shift
        elif edge < 4:
            y = (lo[1], hi[1])[edge - 2] + shift
        stim = ContactStimulus(
            x=float(x), y=float(y), depth=float(rng.uniform(0.5, 3.2)),
            radius=float(rng.uniform(14.0, 30.0)),
            shear_x=float(rng.uniform(-4.0, 4.0)),
            shear_y=float(rng.uniform(-4.0, 4.0)))
        markers = tg.displace_markers(model, stim)
        yield markers, tg.render_frame(markers, model, finger_id=1,
                                       seq=seq + 1)


def test_box_field_equals_full_frame_slice(nominal_model):
    rng = np.random.default_rng(12)
    support = marker_support_box(tg.displace_markers(nominal_model, None),
                                 15.0, 640, 480)
    for markers, _ in _contact_frames(nominal_model, 10, seed=13):
        full = estimate_density(markers).values
        boxes = [support, (0, 0, 640, 480), (0, 0, 1, 1),
                 (639, 479, 640, 480), (601, 7, 640, 480)]
        for _ in range(6):
            x0, y0 = int(rng.integers(0, 640)), int(rng.integers(0, 480))
            boxes.append((x0, y0, int(rng.integers(x0 + 1, 641)),
                          int(rng.integers(y0 + 1, 481))))
        for box in boxes:
            field = estimate_density(markers, box=box)
            x0, y0, x1, y1 = box
            assert field.origin == (x0, y0)
            assert np.array_equal(field.values, full[y0:y1, x0:x1])
    for box in [(0, 0, 0, 10), (5, 5, 5, 6), (-1, 0, 10, 10),
                (0, 0, 641, 480), (0, 470, 10, 481)]:
        with pytest.raises(ValueError, match="box"):
            estimate_density(markers, box=box)


def test_process_matches_full_frame_path(nominal_model, reference_frame):
    # The support-box pipeline against the full-frame path it replaced:
    # full-frame field, support mask, then labelling.
    cal = perception.FingerPipeline(1).calibrate(reference_frame)
    threshold = cal.threshold
    ref_markers = tg.detect_markers(reference_frame)
    support = _old_support_mask(ref_markers.centroids, 15.0, 640, 480)
    assert cal.support == _box_of(support)
    assert threshold == \
        0.8 * estimate_density(ref_markers).values[support].min()
    regions = 0
    window = cal.window
    for _, frame in _contact_frames(nominal_model, 50, seed=14):
        report = cal.process(frame, window)
        window = report.window
        full = estimate_density(report.markers).values
        old = _old_extract_contact(full, threshold, support)
        if old is None:
            assert report.region is None
            continue
        regions += 1
        pixels, center, _, min_density = old
        region = report.region
        assert region.area == len(pixels)
        assert region.center == center == report.center
        assert region.min_density == min_density
    assert regions >= 40


def test_calibrate_runs_the_kde_once(monkeypatch, reference_frame):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return estimate_density(*args, **kwargs)

    monkeypatch.setattr(perception, "estimate_density", counting)
    monkeypatch.setattr(density, "estimate_density", counting)
    cal = perception.FingerPipeline(1, calibration_ratio=0.8).calibrate(
        reference_frame)
    assert len(calls) == 1
    args, kwargs = calls[0]
    field = estimate_density(*args, **kwargs)
    assert kwargs["box"] == cal.support
    assert cal.support == marker_support_box(args[0], 15.0, 640, 480)
    assert cal.threshold == 0.8 * field.values.min()


@pytest.mark.parametrize("kwargs", [
    {"calibration_ratio": 5.0}, {"calibration_ratio": 0.0},
    {"calibration_ratio": float("nan")}, {"control_period": 0.0},
    {"control_period": -0.033}, {"control_period": float("nan")},
    {"calibration_ratio": 1.0},
])
def test_pipeline_rejects_ratio_or_period_outside_its_domain(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValidationError, match=f"^{name} = "):
        perception.FingerPipeline(1, **kwargs)


def test_calibrate_rejects_a_frame_not_at_rest(nominal_model, reference_frame):
    # Calibrated on this contact, a pipeline set its threshold at half the
    # rest value and read later contacts as NoContact.
    touched = tg.render_frame(
        tg.displace_markers(nominal_model, ContactStimulus(
            x=470.0, y=330.0, depth=3.0, radius=40.0)),
        nominal_model, finger_id=1, seq=0)
    with pytest.raises(ValidationError, match="calibration frame shows a contact"):
        perception.FingerPipeline(1).calibrate(touched)
    blank = np.full_like(reference_frame, np.rint(255 * 0.95))
    with pytest.raises(ValidationError, match="calibration frame shows no markers"):
        perception.FingerPipeline(1).calibrate(blank)
    # rest frames calibrate across seeds and noise levels
    for seed in range(4):
        for noise in (0.0, 0.01, 0.03):
            model = dataclasses.replace(nominal_model, seed=seed,
                                        noise_sigma=noise)
            rest = tg.render_frame(tg.displace_markers(model, None), model,
                                   finger_id=1, seq=seed)
            assert perception.FingerPipeline(1).calibrate(rest).threshold > 0


_FIELD_DIGEST = """
import hashlib
import numpy as np
import tacgrip as tg
digest = hashlib.sha256()
nominal = tg.displace_markers(tg.SensorModel(), None)
crowded = tg.MarkerSet(np.random.default_rng(6).uniform(
    (-50, -50), (690, 530), (600, 2)))
support = tg.marker_support_box(nominal, 15.0, 640, 480)
boxes = (None, support, (0, 0, 200, 150), (455, 333, 640, 480))
for markers in (nominal, crowded):
    for box in boxes:
        digest.update(tg.estimate_density(markers, box=box).values.tobytes())
print(digest.hexdigest())
"""


def test_field_bytes_independent_of_blas_threads():
    # The field is a BLAS matrix product; same-seed traces stay
    # byte-identical only if its bytes do not depend on the thread count.
    # 600 markers is past the reduction length (384 on SkylakeX) at
    # which one OpenBLAS product gives thread-count-dependent bytes. The
    # boxes are the nominal support box, one at the frame's top-left and
    # one at its bottom-right corner.
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

