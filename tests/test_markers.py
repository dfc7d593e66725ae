import dataclasses
import math

import numpy as np
import pytest

import tacgrip as tg
from tacgrip import blobs, perception
from tacgrip.blobs import DetectorConfig, MarkerSet, detect_markers
from tacgrip.sensor_sim import ContactStimulus, nominal_grid
from tacgrip.tactile import TactileFrame


def _match_errors(truth, detected):
    """Nearest-detection distance for every ground-truth centroid."""
    errs = []
    for t in truth:
        d = np.hypot(detected[:, 0] - t[0], detected[:, 1] - t[1])
        errs.append(d.min() if len(d) else np.inf)
    return np.array(errs)


def test_jittered_grid_recovered_within_1px(nominal_model):
    # 100 disks on a jittered grid, rendered with pixel noise
    rng = np.random.default_rng(7)
    base = tg.displace_markers(nominal_model, None).centroids[:100]
    truth = base + rng.uniform(-3.0, 3.0, base.shape)
    frame = tg.render_frame(tg.MarkerSet(truth), nominal_model,
                            finger_id=1, seq=9)
    det = detect_markers(frame)
    errs = _match_errors(truth, det.centroids)
    assert (errs <= 1.0).mean() >= 0.95
    assert len(det) >= 95


def test_single_disk_centered(nominal_model):
    quiet = dataclasses.replace(nominal_model, noise_sigma=0.0)
    frame = tg.render_frame(tg.MarkerSet(np.array([[320.0, 240.0]])), quiet)
    det = detect_markers(frame)
    assert len(det) == 1
    assert np.hypot(det.centroids[0, 0] - 320, det.centroids[0, 1] - 240) <= 1.0


def test_blank_frame_yields_empty_set():
    frame = TactileFrame(pixels=np.full((480, 640), 0.95), timestamp=0.0)
    det = detect_markers(frame)
    assert len(det) == 0


def test_noise_only_frame_yields_empty_set():
    rng = np.random.default_rng(3)
    pixels = np.clip(0.95 + rng.normal(0, 0.01, (480, 640)), 0, 1)
    frame = TactileFrame(pixels=pixels, timestamp=0.0)
    assert len(detect_markers(frame)) == 0


def test_determinism(nominal_model):
    markers = tg.displace_markers(nominal_model, None)
    frame = tg.render_frame(markers, nominal_model, finger_id=1, seq=4)
    a = detect_markers(frame)
    b = detect_markers(frame)
    assert np.array_equal(a.centroids, b.centroids)


def test_output_sorted_row_major(nominal_model):
    markers = tg.displace_markers(nominal_model, None)
    frame = tg.render_frame(markers, nominal_model, finger_id=1, seq=4)
    c = detect_markers(frame).centroids
    order = np.lexsort((c[:, 0], c[:, 1]))
    assert np.array_equal(order, np.arange(len(c)))


def test_min_separation_enforced(nominal_model):
    # two disks closer than min_separation collapse to one detection
    quiet = dataclasses.replace(nominal_model, noise_sigma=0.0)
    frame = tg.render_frame(
        tg.MarkerSet(np.array([[320.0, 240.0], [322.0, 240.0]])), quiet)
    det = detect_markers(frame, DetectorConfig(min_separation=6.0))
    assert len(det) == 1


def test_markerset_validate_bounds():
    ms = MarkerSet(np.array([[650.0, 10.0]]))
    with pytest.raises(ValueError):
        ms.validate(width=640, height=480)


def test_markerset_validate_separation():
    ms = MarkerSet(np.array([[10.0, 10.0], [11.0, 10.0]]))
    with pytest.raises(ValueError):
        ms.validate(width=640, height=480, min_separation=4.0)


def test_markerset_shape_checked():
    with pytest.raises(ValueError):
        MarkerSet(np.zeros((3, 3)))


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(scales=())
    with pytest.raises(ValueError):
        DetectorConfig(scales=(2.0, -1.0))
    with pytest.raises(ValueError):
        DetectorConfig(min_separation=0.0)


def _quadratic_offset_reference(vm, v0, vp):
    """The per-marker scalar fit the vectorised one replaced."""
    den = vm - 2.0 * v0 + vp
    if abs(den) < 1e-12:
        return 0.0
    return float(np.clip(0.5 * (vm - vp) / den, -0.5, 0.5))


def test_vectorised_subpixel_fit_matches_scalar_fit():
    rng = np.random.default_rng(11)
    v = rng.normal(0.0, 0.05, (100_000, 3)).astype(np.float32)
    v[:500, 2] = 2.0 * v[:500, 1] - v[:500, 0]  # zero or tiny curvature
    v[500:1000] = v[500:1000, :1]  # flat
    got = blobs._quadratic_offsets(v[:, 0], v[:, 1], v[:, 2])
    assert got.dtype == np.float32
    want = np.array([_quadratic_offset_reference(*t) for t in v])
    assert np.array_equal(got.astype(np.float64), want)


def _greedy_nms_reference(xs, ys, min_separation):
    """The per-candidate greedy loop the vectorised suppression replaced:
    (kept xs, kept ys) in rank order."""
    min_sep2 = min_separation ** 2
    kept_x = np.empty(len(xs), dtype=np.int64)
    kept_y = np.empty(len(ys), dtype=np.int64)
    n_kept = 0
    for x, y in zip(xs, ys):
        kx = kept_x[:n_kept]
        ky = kept_y[:n_kept]
        if n_kept == 0 or ((x - kx) ** 2 + (y - ky) ** 2 >= min_sep2).all():
            kept_x[n_kept] = x
            kept_y[n_kept] = y
            n_kept += 1
    return kept_x[:n_kept], kept_y[:n_kept]


def test_vectorised_nms_matches_greedy_loop():
    # Clustered candidates with duplicate points; separations at, between
    # and just above integer squared distances.
    rng = np.random.default_rng(21)
    separations = [0.5, 1.0, math.sqrt(2.0), 2.0, 3.0, 4.0, 4.5,
                   math.sqrt(17.0), math.sqrt(17.0) + 1e-12, 8.0]
    contested = 0
    for trial in range(3000):
        n = int(rng.integers(0, 200))
        centers = rng.integers(0, 100, (int(rng.integers(1, 25)), 2))
        pts = centers[rng.integers(0, len(centers), n)] \
            + rng.integers(-6, 7, (n, 2))
        if n and trial % 3 == 0:
            pts[: n // 4] = pts[n // 2: n // 2 + n // 4]  # duplicates
        xs, ys = pts[:, 0].astype(np.intp), pts[:, 1].astype(np.intp)
        sep = separations[trial % len(separations)]
        keep = blobs._suppress(xs, ys, sep)
        want_x, want_y = _greedy_nms_reference(xs, ys, sep)
        assert np.array_equal(xs[keep], want_x)
        assert np.array_equal(ys[keep], want_y)
        contested += len(want_x) < n
    assert contested > 2500


def _recording_detector(monkeypatch):
    """Route the pipeline's detector through a recorder; returns the list
    of (frame, window, markers) per call and the count of calls answered
    inside a window."""
    calls = []
    windowed = [0]
    real_detect, real_in_box = blobs.detect_markers, blobs._detect_in_box

    def recording(frame, config=None, window=None):
        markers = real_detect(frame, config, window)
        calls.append((frame, window, markers))
        return markers

    def counting(frame, config, box):
        markers = real_in_box(frame, config, box)
        if markers is not None and box != (0, 0, frame.width, frame.height):
            windowed[0] += 1
        return markers

    monkeypatch.setattr(perception, "detect_markers", recording)
    monkeypatch.setattr(blobs, "_detect_in_box", counting)
    return calls, windowed


def _inside(window, x, y):
    x0, y0, x1, y1 = window
    return x0 <= x < x1 and y0 <= y < y1


def test_pipeline_window_matches_full_frame(nominal_model, reference_frame,
                                            monkeypatch):
    # One pipeline over 48 seeded contacts centered on the four edges of
    # the marker grid, so edge markers leave the calibrated window.
    calls, windowed = _recording_detector(monkeypatch)
    pipe = perception.FingerPipeline(1)
    pipe.calibrate(reference_frame)
    calibrated_window = pipe.window
    grid = nominal_grid(nominal_model)
    lo, hi = grid.min(0), grid.max(0)
    rng = np.random.default_rng(2024)
    for seq in range(48):
        x, y = rng.uniform(lo, hi)
        edge = seq % 4
        if edge < 2:
            x = (lo[0], hi[0])[edge]
        else:
            y = (lo[1], hi[1])[edge - 2]
        stim = ContactStimulus(
            x=float(x), y=float(y), depth=float(rng.uniform(0.5, 3.2)),
            radius=float(rng.uniform(14.0, 30.0)),
            shear_x=float(rng.uniform(-4.0, 4.0)),
            shear_y=float(rng.uniform(-4.0, 4.0)), timestamp=seq * 0.033)
        frame = tg.render_frame(tg.displace_markers(nominal_model, stim),
                                nominal_model, finger_id=1, seq=seq)
        pipe.process(frame)
    assert calls[0][1] is None  # calibration searches the full frame
    assert len(calls) == 49
    for frame, window, markers in calls[1:]:
        assert window is not None
        full = detect_markers(frame).centroids
        assert np.array_equal(markers.centroids, full)
        # The calibrated window alone, which deep edge contacts push
        # markers out of, gives the same result.
        assert np.array_equal(
            detect_markers(frame, window=calibrated_window).centroids, full)
    # Most frames are answered inside the window; the window only grew.
    assert windowed[0] >= 40
    grown = np.array(pipe.window) - np.array(calibrated_window)
    assert (grown[:2] <= 0).all() and (grown[2:] >= 0).all()
    assert grown.any()


def test_marker_far_outside_window_is_found(nominal_model, reference_frame,
                                            monkeypatch):
    calls, windowed = _recording_detector(monkeypatch)
    pipe = perception.FingerPipeline(1)
    pipe.calibrate(reference_frame)
    assert not _inside(pipe.window, 40, 40)
    moved = nominal_grid(nominal_model)
    moved[0] = (40.0, 40.0)
    frame = tg.render_frame(MarkerSet(moved), nominal_model, seq=1)
    pipe.process(frame)
    markers = calls[-1][2]
    assert np.array_equal(markers.centroids, detect_markers(frame).centroids)
    assert len(markers) == len(moved)
    assert np.hypot(*(markers.centroids[0] - 40.0)) <= 1.0
    assert windowed[0] == 0
    assert _inside(pipe.window, 40, 40)


def test_blank_and_noise_frames_empty_with_window():
    rng = np.random.default_rng(3)
    noisy = np.clip(0.95 + rng.normal(0, 0.01, (480, 640)), 0, 1)
    for pixels in (np.full((480, 640), 0.95), noisy):
        frame = TactileFrame(pixels=pixels, timestamp=0.0)
        assert len(detect_markers(frame, window=(150, 100, 490, 380))) == 0


def test_window_outside_frame_rejected(reference_frame):
    with pytest.raises(ValueError):
        detect_markers(reference_frame, window=(700, 0, 800, 100))


def test_outside_bound_holds_over_random_frames(nominal_model):
    # The bound on the response outside a window is never exceeded by the
    # full-frame response there, whatever lies outside.
    config = DetectorConfig()
    rng = np.random.default_rng(5)
    for seq in range(12):
        stim = ContactStimulus(x=float(rng.uniform(180, 460)),
                               y=float(rng.uniform(130, 350)),
                               depth=float(rng.uniform(0.0, 3.2)),
                               radius=float(rng.uniform(14, 30)))
        markers = tg.displace_markers(nominal_model, stim)
        frame = tg.render_frame(markers, nominal_model, seq=seq)
        if seq % 2:  # a random box
            x0, y0 = rng.integers(0, 300), rng.integers(0, 220)
            box = (int(x0), int(y0), int(x0 + rng.integers(20, 340)),
                   int(y0 + rng.integers(20, 260)))
        else:  # the markers' box widened by 0-40 px
            margin = int(rng.integers(0, 41))
            lo = markers.centroids.min(0).astype(int) - margin
            hi = markers.centroids.max(0).astype(int) + margin
            box = (int(lo[0]), int(lo[1]), int(hi[0]), int(hi[1]))
        resp = blobs._response(frame.pixels, config)
        outside = np.ones(resp.shape, dtype=bool)
        outside[box[1]:box[3], box[0]:box[2]] = False
        assert resp[outside].max() <= blobs._outside_bound(frame.pixels, box,
                                                           config)
