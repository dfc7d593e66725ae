import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

import tacgrip as tg
from tacgrip import blobs, perception
from tacgrip.blobs import DetectorConfig, MarkerSet, detect_markers
from tacgrip.sensor_sim import ContactStimulus, nominal_grid


# The simulator's background, 0.95, as a byte.
_BACKGROUND = np.uint8(np.rint(255 * 0.95))


def _bytes(pixels):
    """An intensity image on [0, 1] as the 8-bit frame a camera gives."""
    return np.rint(255 * pixels).astype(np.uint8)


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
    det = detect_markers(np.full((480, 640), _BACKGROUND))
    assert len(det) == 0


def test_noise_only_frame_yields_empty_set():
    rng = np.random.default_rng(3)
    pixels = np.clip(0.95 + rng.normal(0, 0.01, (480, 640)), 0, 1)
    assert len(detect_markers(_bytes(pixels))) == 0


def test_float_frame_rejected(reference_frame):
    # Read as bytes, a frame on [0, 1] would show no markers at all.
    with pytest.raises(ValueError, match="dtype float64"):
        detect_markers(reference_frame / 255.0)


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


def test_markerset_shape_checked():
    with pytest.raises(ValueError):
        MarkerSet(np.zeros((3, 3)))


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(scale=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(scale=-1.0)
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
    of (frame, markers) per call and the list of boxes other than the
    whole frame that answered a call."""
    calls = []
    answered = []
    real_detect, real_in_box = blobs.detect_markers, blobs._detect_in_box

    def recording(frame, config=None):
        markers = real_detect(frame, config)
        calls.append((frame, markers))
        return markers

    def counting(frame, config, box):
        markers = real_in_box(frame, config, box)
        if markers is not None and box != (0, 0, *frame.shape[::-1]):
            answered.append(box)
        return markers

    monkeypatch.setattr(perception, "detect_markers", recording)
    monkeypatch.setattr(blobs, "_detect_in_box", counting)
    return calls, answered


def _inside(box, x, y):
    x0, y0, x1, y1 = box
    return x0 <= x < x1 and y0 <= y < y1


def _markers_box(markers, margin, width, height):
    """The markers' bounding box widened by margin px and clipped to a
    width x height frame, as a half-open pixel box."""
    lo = np.floor(markers.centroids.min(axis=0)).astype(int) - margin
    hi = np.ceil(markers.centroids.max(axis=0)).astype(int) + margin + 1
    return (max(int(lo[0]), 0), max(int(lo[1]), 0),
            min(int(hi[0]), width), min(int(hi[1]), height))


def test_pipeline_window_matches_full_frame(nominal_model, reference_frame,
                                            monkeypatch):
    # 48 seeded contacts centered on the four edges of the marker grid,
    # so edge markers leave the rest frame's dark box. Each report equals
    # whole-frame processing (the same pipeline with no dark box), and
    # the frame's own dark box answers nearly every frame.
    config, whole = DetectorConfig(), (0, 0, 640, 480)
    _, answered = _recording_detector(monkeypatch)
    cal = perception.FingerPipeline(1).calibrate(reference_frame)
    # The rest frame's dark box answers calibration.
    assert answered == [blobs._dark_box(reference_frame, config)]
    grid = nominal_grid(nominal_model)
    lo, hi = grid.min(0), grid.max(0)
    rng = np.random.default_rng(2024)
    inside = 0
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
            shear_y=float(rng.uniform(-4.0, 4.0)))
        frame = tg.render_frame(tg.displace_markers(nominal_model, stim),
                                nominal_model, finger_id=1, seq=seq)
        dark = blobs._dark_box(frame, config)
        before = len(answered)
        report = cal.process(frame)
        inside += answered[before:] == [dark] != [whole]
        before = len(answered)
        with monkeypatch.context() as m:
            m.setattr(blobs, "_dark_box", lambda frame, config: None)
            again = cal.process(frame)
        assert len(answered) == before  # the whole frame answered
        assert again.region == report.region
        assert again.markers.centroids.tobytes() \
            == report.markers.centroids.tobytes()
    assert inside >= 40


def test_marker_far_outside_window_is_found(nominal_model, reference_frame,
                                            monkeypatch):
    # A marker moved far outside the rest frame's dark box is found: the
    # frame's own dark box reaches it and answers, not the whole frame.
    calls, answered = _recording_detector(monkeypatch)
    cal = perception.FingerPipeline(1).calibrate(reference_frame)
    assert not _inside(blobs._dark_box(reference_frame, DetectorConfig()),
                       40, 40)
    moved = nominal_grid(nominal_model)
    moved[0] = (40.0, 40.0)
    frame = tg.render_frame(MarkerSet(moved), nominal_model, seq=1)
    before = len(answered)
    cal.process(frame)
    markers = calls[-1][1]
    whole = blobs._detect_in_box(frame, DetectorConfig(), (0, 0, 640, 480))
    assert np.array_equal(markers.centroids, whole.centroids)
    assert len(markers) == len(moved)
    assert np.hypot(*(markers.centroids[0] - 40.0)) <= 1.0
    dark = blobs._dark_box(frame, DetectorConfig())
    assert _inside(dark, 40, 40) and dark != (0, 0, 640, 480)
    assert answered[before:] == [dark]


def _resized(pixels, height, width):
    """The frame cropped, or padded with background, to height x width."""
    out = np.full((height, width), _BACKGROUND)
    h, w = min(height, pixels.shape[0]), min(width, pixels.shape[1])
    out[:h, :w] = pixels[:h, :w]
    return out


@pytest.mark.parametrize("height, width", [(240, 320), (580, 740)])
def test_pipeline_rejects_a_frame_of_another_size(nominal_model,
                                                  reference_frame,
                                                  height, width):
    cal = perception.FingerPipeline(1).calibrate(reference_frame)
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=16.0)
    touched = tg.render_frame(tg.displace_markers(nominal_model, stim),
                              nominal_model, seq=1)

    other = _resized(touched, height, width)
    with pytest.raises(ValueError, match=f"frame is {width}x{height}, but the "
                       f"pipeline was calibrated on a 640x480 frame"):
        cal.process(other)
    # A frame that is not 8-bit fails the dtype check first.
    with pytest.raises(ValueError, match="dtype float64"):
        cal.process(other / 255.0)


def test_blank_and_noise_frames_empty_with_window():
    # In a box or in full, blank and noise-only frames show no marker.
    rng = np.random.default_rng(3)
    noisy = _bytes(np.clip(0.95 + rng.normal(0, 0.01, (480, 640)), 0, 1))
    for pixels in (np.full((480, 640), _BACKGROUND), noisy):
        boxed = blobs._detect_in_box(pixels, DetectorConfig(),
                                     (150, 100, 490, 380))
        assert boxed is None or len(boxed) == 0
        assert len(detect_markers(pixels)) == 0


def test_dark_box_never_changes_result(nominal_model, monkeypatch):
    # detect_markers equals the whole frame's detection:
    # on random contact frames, where the dark box answers; on noise-only
    # frames, whose dark box is about the whole frame; on a uniform frame,
    # which has no dark box; and with markers at the frame's corners,
    # alone or beside the grid.
    config, whole = DetectorConfig(), (0, 0, 640, 480)
    real_in_box = blobs._detect_in_box
    _, answered = _recording_detector(monkeypatch)
    rng = np.random.default_rng(29)
    frames = []
    for seq in range(12):
        stim = ContactStimulus(
            x=float(rng.uniform(100, 540)), y=float(rng.uniform(80, 400)),
            depth=float(rng.uniform(0.2, 3.2)),
            radius=float(rng.uniform(14.0, 40.0)),
            shear_x=float(rng.uniform(-4.0, 4.0)),
            shear_y=float(rng.uniform(-4.0, 4.0)))
        frames.append(("contact", tg.render_frame(
            tg.displace_markers(nominal_model, stim), nominal_model,
            seq=seq)))
    for sigma in (0.01, 0.03, 0.1):
        noise = rng.normal(0.0, sigma, (480, 640))
        frames.append(("noise", _bytes(np.clip(0.95 + noise, 0, 1))))
    frames.append(("uniform", np.full((480, 640), _BACKGROUND)))
    corners = [[x, y] for x in (0.0, 2.5, 636.5, 639.0)
               for y in (0.0, 3.0, 476.0, 479.0)]
    frames.append(("corners", tg.render_frame(MarkerSet(corners),
                                              nominal_model, seq=20)))
    grid = nominal_grid(nominal_model)
    grid[-1] = (638.5, 478.5)
    frames.append(("grid and corner", tg.render_frame(
        MarkerSet(grid), nominal_model, seq=21)))
    for kind, frame in frames:
        dark = blobs._dark_box(frame, config)
        before = len(answered)
        got = detect_markers(frame, config)
        want = real_in_box(frame, config, whole)
        assert got.centroids.tobytes() == want.centroids.tobytes(), kind
        if kind == "contact":
            assert len(got) >= 290
            assert answered[before:] == [dark] != [whole]
        elif kind == "grid and corner":
            # The corner marker lies in the strip inside the dark box's
            # right and bottom sides, which lie on the frame's edge, where
            # no outside pixel reads that strip; so the dark box answers.
            assert answered[before:] == [dark] != [whole]
        elif kind == "uniform":
            assert dark is None and answered[before:] == []
        else:  # the dark box is the whole frame, which answers
            assert dark == whole and answered[before:] == []


def test_outside_bound_holds_over_random_frames(nominal_model):
    # The bound on the response outside a box is never exceeded by the
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
        _assert_bound_holds(frame, box, config)
    # Boxes with a side on the frame's edge, and a disk in the strip just
    # inside that side: no pixel outside the box reads that strip, so the
    # bound holds and the disk does not raise it.
    for seq, (box, disk) in enumerate([
            ((0, 100, 300, 380), (3.0, 240.0)),
            ((200, 0, 500, 300), (350.0, 2.5)),
            ((340, 100, 640, 380), (636.5, 240.0)),
            ((200, 180, 500, 480), (350.0, 477.0)),
            ((0, 0, 400, 300), (2.0, 2.0)),
            ((240, 180, 640, 480), (638.5, 478.5))]):
        markers = tg.displace_markers(nominal_model, None).centroids
        inner = markers[(markers[:, 0] > box[0] + 20)
                        & (markers[:, 0] < box[2] - 20)
                        & (markers[:, 1] > box[1] + 20)
                        & (markers[:, 1] < box[3] - 20)]
        frame = tg.render_frame(MarkerSet(np.vstack([inner, [disk]])),
                                nominal_model, seq=seq)
        without = tg.render_frame(MarkerSet(inner), nominal_model, seq=seq)
        assert (frame != without).any()
        _assert_bound_holds(frame, box, config)
        assert blobs._outside_bound(frame, box, config) == \
            blobs._outside_bound(without, box, config)


def _assert_bound_holds(frame, box, config):
    resp = blobs._response(frame, config)
    outside = np.ones(resp.shape, dtype=bool)
    outside[box[1]:box[3], box[0]:box[2]] = False
    assert resp[outside].max() <= blobs._outside_bound(frame, box, config)


def test_window_never_changes_result_on_random_frames(nominal_model):
    # Detection in a box that answers equals full-frame detection, and so
    # does detect_markers, on frames the simulator never draws: uniform
    # random bytes, disks anywhere (the frame's edges and corners
    # included) over noise, and flat frames, each under boxes anywhere,
    # some touching the frame's edges.
    rng = np.random.default_rng(17)
    config = DetectorConfig()
    pad = blobs._box_pad(config)
    answered = 0
    for trial in range(24):
        kind = trial % 3
        if kind == 0:
            pixels = rng.integers(0, 256, (120, 160), dtype=np.uint8)
        elif kind == 1:
            n = int(rng.integers(1, 40))
            centers = rng.uniform([-4, -4], [164, 124], (n, 2))
            model = dataclasses.replace(nominal_model, width=160, height=120,
                                        grid_rows=2, grid_cols=2,
                                        seed=trial)
            pixels = tg.render_frame(MarkerSet(centers), model, seq=trial)
        else:
            pixels = np.full((120, 160), rng.integers(0, 256), np.uint8)
        full = blobs._detect_in_box(pixels, config, (0, 0, 160, 120))
        assert np.array_equal(detect_markers(pixels).centroids,
                              full.centroids)
        full_response = blobs._response(pixels, config)
        for _ in range(4):
            x0, y0 = rng.integers(-10, 150), rng.integers(-10, 110)
            x1, y1 = x0 + rng.integers(1, 170), y0 + rng.integers(1, 130)
            box = (max(int(x0), 0), max(int(y0), 0),
                   min(int(x1), 160), min(int(y1), 120))
            if box[0] >= box[2] or box[1] >= box[3]:
                continue
            # The response on the padded crop equals the full-frame one
            # over the box and the one pixel around it that the peak
            # test's neighbour read and the fit read.
            x0, y0, x1, y1 = box
            ox, oy = max(x0 - pad, 0), max(y0 - pad, 0)
            crop = blobs._response(
                pixels[oy:min(y1 + pad, 120), ox:min(x1 + pad, 160)], config)
            ring = (slice(max(y0 - 1, 0), min(y1 + 1, 120)),
                    slice(max(x0 - 1, 0), min(x1 + 1, 160)))
            assert np.array_equal(
                crop[ring[0].start - oy:ring[0].stop - oy,
                     ring[1].start - ox:ring[1].stop - ox],
                full_response[ring])
            got = blobs._detect_in_box(pixels, config, box)
            if got is not None:
                answered += 1
                assert np.array_equal(got.centroids, full.centroids)
    assert answered >= 20


def _old_response(pixels, config):
    """The response computation the in-place, region-restricted one
    replaced, kept as its reference: the edge-padded frame smoothed
    whole, then the Hessian entries as separate temporaries."""
    img = np.pad(pixels, 1, mode="edge") * np.float32(1 / 255)
    sigma = config.scale
    s = ndimage.gaussian_filter(img, sigma, mode="nearest", truncate=3.0)
    c = s[1:-1, 1:-1]
    dxx = s[1:-1, 2:] + s[1:-1, :-2] - 2 * c
    dyy = s[2:, 1:-1] + s[:-2, 1:-1] - 2 * c
    dxy = 0.25 * (s[2:, 2:] - s[2:, :-2] - s[:-2, 2:] + s[:-2, :-2])
    det = (sigma ** 4) * (dxx * dyy - dxy * dxy)
    det[(dxx + dyy) <= 0] = 0.0
    return det


def _random_pixels(rng, h, w, kind):
    """Random uint8 crops: uniform bytes, smoothed bytes, a flat frame,
    or dark disks anywhere over noise."""
    if kind == 0:
        return rng.integers(0, 256, (h, w), dtype=np.uint8)
    if kind == 1:
        noise = rng.integers(0, 256, (h, w)).astype(float)
        return np.rint(ndimage.gaussian_filter(noise, 2.0)).astype(np.uint8)
    if kind == 2:
        return np.full((h, w), rng.integers(0, 256), np.uint8)
    pixels = np.full((h, w), _BACKGROUND, np.uint8)
    for _ in range(int(rng.integers(1, 12))):
        cy, cx = rng.uniform(-3, [h + 3, w + 3])
        yy, xx = np.ogrid[:h, :w]
        pixels[(yy - cy) ** 2 + (xx - cx) ** 2 <= 16] = 38
    return pixels


def test_response_matches_the_old_expression_on_random_crops():
    # Byte for byte, on crops of every shape down to one pixel, at three
    # scales, over the whole crop and over random regions of it, the
    # region's response equals the old whole-crop response there.
    rng = np.random.default_rng(29)
    shapes = [(1, 1), (1, 17), (23, 1), (2, 3), (19, 31), (64, 48),
              (120, 160)]
    regions = 0
    for trial in range(63):
        h, w = shapes[trial % len(shapes)]
        pixels = _random_pixels(rng, h, w, trial % 4)
        config = DetectorConfig(scale=(2.83, 0.4, 6.0)[trial % 3])
        want = _old_response(pixels, config)
        got = blobs._response(pixels, config)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        for _ in range(3):
            x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
            x1 = int(rng.integers(x0 + 1, w + 1))
            y1 = int(rng.integers(y0 + 1, h + 1))
            part = blobs._response(pixels, config, (x0, y0, x1, y1))
            assert part.tobytes() == want[y0:y1, x0:x1].tobytes()
            regions += (x0, y0, x1, y1) != (0, 0, w, h)
    assert regions > 100


def test_screened_candidates_keep_every_local_maximum():
    # The left-right screen drops only pixels the 8-neighbour test would
    # drop: screened and tested, the box's pixels above the threshold
    # give the same peaks as all of them tested, on responses with
    # plateaus and exact ties, in boxes that touch each of the response's
    # edges and corners, and none.
    rng = np.random.default_rng(31)
    shapes = [(1, 1), (1, 9), (7, 1), (3, 5), (37, 53), (120, 160)]
    kept = 0
    for trial in range(96):
        h, w = shapes[trial % len(shapes)]
        kind = trial % 3
        if kind == 0:
            resp = rng.integers(0, 3, (h, w)).astype(np.float32)
        elif kind == 1:
            resp = rng.standard_normal((h, w)).astype(np.float32)
            repeat = rng.random((h, w)) < 0.4
            resp[repeat] = rng.choice(resp.ravel()[:4], int(repeat.sum()))
        else:
            resp = ndimage.gaussian_filter(rng.random((h, w)), 2.0)
            resp = (np.round(resp * 50) / 50).astype(np.float32)
        edge = (trial // 3) % 4  # which edges the box reaches
        x0 = 0 if edge & 1 else int(rng.integers(0, w))
        y0 = 0 if edge & 2 else int(rng.integers(0, h))
        x1 = w if edge & 1 or rng.random() < 0.5 \
            else int(rng.integers(x0 + 1, w + 1))
        y1 = h if edge & 2 or rng.random() < 0.5 \
            else int(rng.integers(y0 + 1, h + 1))
        inner = (slice(y0, y1), slice(x0, x1))
        threshold = float(np.quantile(resp[inner], rng.uniform(0, 0.9)))
        ys, xs = np.nonzero(resp[inner] > threshold)
        ys, xs = ys + y0, xs + x0
        peak = blobs._is_local_max(resp, ys, xs, resp[ys, xs])
        sy, sx = blobs._screen(resp, inner, threshold)
        speak = blobs._is_local_max(resp, sy, sx, resp[sy, sx])
        assert np.array_equal(sy[speak], ys[peak])
        assert np.array_equal(sx[speak], xs[peak])
        kept += int(peak.sum())
    assert kept > 500


def _peak_reference(resp, ys, xs, vals):
    """The 3x3 maximum filter the candidate-only peak test replaced."""
    return (resp >= ndimage.maximum_filter(resp, size=3, mode="nearest"))[ys, xs]


def _neighbour_ties(resp, ys, xs, vals):
    """How many of the pixels (ys, xs) equal one of their 8 neighbours,
    read from the frame extended by its edge pixels."""
    padded = np.pad(resp, 1, mode="edge")
    tie = np.zeros(len(ys), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                tie |= padded[ys + 1 + dy, xs + 1 + dx] == vals
    return int(tie.sum())


def test_peak_test_matches_maximum_filter():
    # Every pixel is a candidate, so the crop's edges and corners are
    # tested too, on float32 responses with plateaus and exact ties.
    rng = np.random.default_rng(41)
    shapes = [(1, 1), (1, 9), (7, 1), (2, 2), (3, 5), (37, 53), (120, 160)]
    ties = 0
    for trial in range(84):
        h, w = shapes[trial % len(shapes)]
        kind = trial % 3
        if kind == 0:  # three levels: wide plateaus
            resp = rng.integers(0, 3, (h, w)).astype(np.float32)
        elif kind == 1:  # continuous, with a share of exact repeats
            resp = rng.standard_normal((h, w)).astype(np.float32)
            repeat = rng.random((h, w)) < 0.4
            resp[repeat] = rng.choice(resp.ravel()[:4], int(repeat.sum()))
        else:  # smooth bumps rounded to a coarse grid
            resp = ndimage.gaussian_filter(rng.random((h, w)), 2.0)
            resp = (np.round(resp * 50) / 50).astype(np.float32)
        ys, xs = np.nonzero(np.ones((h, w), dtype=bool))
        vals = resp[ys, xs]
        got = blobs._is_local_max(resp, ys, xs, vals)
        assert np.array_equal(got, _peak_reference(resp, ys, xs, vals))
        ties += _neighbour_ties(resp, ys[got], xs[got], vals[got])
    assert ties > 1000


@pytest.mark.parametrize("coarse", [False, True])
def test_detection_peak_test_matches_maximum_filter(nominal_model, monkeypatch,
                                                    coarse):
    # Detection, full-frame, answered in a box and falling back from
    # one, checks every call of the peak test against the maximum
    # filter. Disks lie anywhere, the frame's outermost rows and columns
    # included; with `coarse` the response is rounded to 1/64 of its
    # peak, so candidates tie with their neighbours.
    real_peak, real_in_box = blobs._is_local_max, blobs._detect_in_box
    real_response = blobs._response
    seen = {"edge": 0, "ties": 0, "boxed": 0, "fallback": 0}

    def checked(resp, ys, xs, vals):
        got = real_peak(resp, ys, xs, vals)
        assert np.array_equal(got, _peak_reference(resp, ys, xs, vals))
        h, w = resp.shape
        on_edge = (ys == 0) | (xs == 0) | (ys == h - 1) | (xs == w - 1)
        seen["edge"] += int(on_edge.sum())
        seen["ties"] += _neighbour_ties(resp, ys, xs, vals)
        return got

    def counting(frame, config, box):
        markers = real_in_box(frame, config, box)
        if box != (0, 0, *frame.shape[::-1]):
            seen["boxed" if markers is not None else "fallback"] += 1
        return markers

    def rounded(pixels, config, region=None):
        resp = real_response(pixels, config, region)
        step = np.float32(max(float(resp.max()), 1e-6) / 64)
        return np.round(resp / step) * step

    monkeypatch.setattr(blobs, "_is_local_max", checked)
    monkeypatch.setattr(blobs, "_detect_in_box", counting)
    if coarse:
        monkeypatch.setattr(blobs, "_response", rounded)
    model = dataclasses.replace(nominal_model, width=160, height=120,
                                grid_rows=2, grid_cols=2)
    rng = np.random.default_rng(43)
    for seq in range(12):
        n = int(rng.integers(4, 30))
        if seq % 2:  # anywhere, two on the frame's edges
            centers = rng.uniform([-4, -4], [164, 124], (n, 2))
            centers[:2] = rng.choice([0.0, 159.0, 119.0], (2, 2))
        else:  # a cluster a box can hold
            centers = rng.uniform([50, 40], [110, 80], (n, 2))
        frame = tg.render_frame(MarkerSet(centers), model, seq=seq)
        full = detect_markers(frame)
        assert len(full) > 0
        # A box around every marker found, and one around a few of them
        # that the rest outside makes fall back.
        around = _markers_box(full, 2 * blobs._box_pad(DetectorConfig()),
                              160, 120)
        for box in (around, (60, 40, 100, 80)):
            got = blobs._detect_in_box(frame, DetectorConfig(), box)
            assert got is None or np.array_equal(got.centroids,
                                                 full.centroids)
    assert seen["edge"] > 0 and seen["boxed"] > 0 and seen["fallback"] > 0
    if coarse:
        assert seen["ties"] > 100


def test_outside_bound_is_attained():
    # The bound is derived for the operator _response computes: one
    # Gaussian smoothing, then the [1, -2, 1] stencil on each axis. A
    # frame that is 255 under the positive taps of that Laplacian and 0
    # elsewhere drives the response at the kernel's center to the bound
    # exactly (the pattern's symmetry makes Ixx = Iyy and Ixy = 0).
    config = DetectorConfig()
    half = blobs._radius(config.scale) + 1
    delta = np.zeros(2 * half + 1)
    delta[half] = 1.0
    k0 = ndimage.gaussian_filter1d(delta, config.scale, mode="constant",
                                   truncate=3.0)
    k2 = np.convolve(k0, [1.0, -2.0, 1.0], mode="same")
    laplacian = np.outer(k2, k0) + np.outer(k0, k2)
    pixels = np.zeros((64, 64), np.uint8)
    pixels[32 - half:33 + half, 32 - half:33 + half] = \
        np.where(laplacian > 0, 255, 0)
    bound = blobs._outside_bound(pixels, (0, 0, 2, 2), config)
    assert blobs._response(pixels, config)[32, 32] == \
        pytest.approx(bound, rel=1e-4)


def test_single_scale_locates_contact_markers(nominal_model):
    # 48 seeded contacts (depth 0-3.2 mm, shear +-4 px, the 40 px radius
    # of the canned scenarios), a third centered inside the marker grid
    # and the rest on its four edges, detected and matched to the
    # rendered truth. Disks that a contact pushes into each other draw
    # one blob, so the count and the errors are taken where a disk is at
    # least one diameter from its nearest neighbour.
    grid = nominal_grid(nominal_model)
    lo, hi = grid.min(0), grid.max(0)
    rng = np.random.default_rng(9)
    errors = []
    clear_frames = 0
    for seq in range(48):
        x, y = rng.uniform(lo, hi)
        edge = seq % 6  # 0, 1: inside the grid; 2-5: on one of its edges
        if edge in (2, 3):
            x = (lo[0], hi[0])[edge - 2]
        elif edge in (4, 5):
            y = (lo[1], hi[1])[edge - 4]
        stim = ContactStimulus(
            x=float(x), y=float(y), depth=float(rng.uniform(0.0, 3.2)),
            radius=40.0, shear_x=float(rng.uniform(-4.0, 4.0)),
            shear_y=float(rng.uniform(-4.0, 4.0)))
        truth = tg.displace_markers(nominal_model, stim).centroids
        frame = tg.render_frame(MarkerSet(truth), nominal_model, finger_id=1,
                                seq=seq)
        found = detect_markers(frame).centroids
        gap = cKDTree(truth).query(truth, k=2)[0][:, 1]
        clear = gap >= 2 * nominal_model.marker_radius
        if clear.all():
            clear_frames += 1
            assert len(found) == len(grid)
        errors.append(_match_errors(truth[clear], found))
    errors = np.concatenate(errors)
    assert clear_frames >= 40
    assert np.percentile(errors, 95) <= 0.1
    assert errors.max() <= 0.5
