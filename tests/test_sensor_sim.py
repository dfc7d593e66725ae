import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri

import tacgrip as tg
import tacgrip.episode
import tacgrip.sensor_sim
from tacgrip.control import CONTROL_PERIOD_TICKS
from tacgrip.errors import ValidationError
from tacgrip.pgm import frame_filename, read_pgm, write_pgm
from tacgrip.plant import TICK_S
from tacgrip.scenario import parse_scenario_text, static_scenario
from tacgrip.sensor_sim import (_SS, ContactStimulus, FrameStream,
                                SensorModel, disk_coverage, displace_markers)

from kde_oracle import density_at_points


def test_depth_zero_is_identity(nominal_model):
    # An instant with no active event renders the rest grid; a depth-0
    # stimulus anywhere, of any width, gives the same bytes.
    nominal = displace_markers(nominal_model, None)
    on_marker = nominal.centroids[17]
    centers = [(320.0, 240.0), (float(on_marker[0]), float(on_marker[1])),
               (0.0, 0.0), (639.0, 479.0)]
    for x, y in centers:
        for radius in (1.0, 40.0, 400.0):
            touched = displace_markers(nominal_model, ContactStimulus(
                x=x, y=y, depth=0.0, radius=radius))
            assert touched.centroids.tobytes() == \
                nominal.centroids.tobytes(), (x, y, radius)


def test_displacement_magnitude_matches_envelope(nominal_model):
    stim = ContactStimulus(x=320.0, y=240.0, depth=2.0, radius=40.0)
    before = displace_markers(nominal_model, None).centroids
    after = displace_markers(nominal_model, stim).centroids
    r = np.hypot(before[:, 0] - stim.x, before[:, 1] - stim.y)
    moved = np.hypot(after[:, 0] - before[:, 0], after[:, 1] - before[:, 1])
    expect = nominal_model.displacement_gain_k * stim.depth \
        * np.exp(-r ** 2 / (2.0 * stim.radius ** 2))
    assert np.allclose(moved, expect, atol=1e-9)


def test_displacement_is_radially_outward(nominal_model):
    stim = ContactStimulus(x=310.0, y=250.0, depth=2.0, radius=40.0)
    before = displace_markers(nominal_model, None).centroids
    after = displace_markers(nominal_model, stim).centroids
    r_before = np.hypot(before[:, 0] - stim.x, before[:, 1] - stim.y)
    r_after = np.hypot(after[:, 0] - stim.x, after[:, 1] - stim.y)
    assert np.all(r_after >= r_before - 1e-12)


def test_marker_on_stimulus_center_stays(nominal_model):
    # the radial direction is undefined at r = 0; such a marker stays put
    nominal = displace_markers(nominal_model, None).centroids
    cx, cy = nominal[17]
    stim = ContactStimulus(x=float(cx), y=float(cy), depth=3.0, radius=40.0)
    after = displace_markers(nominal_model, stim).centroids
    assert after[17, 0] == cx and after[17, 1] == cy


def test_symmetric_stimulus_keeps_pattern_symmetric(nominal_model):
    # stimulus on the grid's center of symmetry: the displaced pattern
    # must mirror about it, and the density minimum must stay within one
    # grid spacing of the stimulus
    nominal = displace_markers(nominal_model, None).centroids
    cx = nominal[:, 0].mean()
    cy = nominal[:, 1].mean()
    stim = ContactStimulus(x=cx, y=cy, depth=2.0, radius=40.0)
    after = displace_markers(nominal_model, stim).centroids
    mirrored = np.column_stack([2 * cx - after[:, 0], 2 * cy - after[:, 1]])
    a = after[np.lexsort((after[:, 0], after[:, 1]))]
    b = mirrored[np.lexsort((mirrored[:, 0], mirrored[:, 1]))]
    assert np.allclose(a, b, atol=1e-9)

    span = np.arange(-20.0, 20.5, 0.5)
    gx, gy = np.meshgrid(cx + span, cy + span)
    d = density_at_points(after, gx.ravel(), gy.ravel(), 15.0)
    k = int(d.argmin())
    off = math.hypot(gx.ravel()[k] - cx, gy.ravel()[k] - cy)
    assert off <= nominal_model.spacing


def test_density_at_center_strictly_decreases_with_depth(nominal_model):
    center = (320.0, 240.0)
    values = []
    for depth in (0.5, 1.0, 2.0):
        stim = ContactStimulus(x=center[0], y=center[1], depth=depth,
                               radius=40.0)
        ms = displace_markers(nominal_model, stim)
        values.append(density_at_points(ms.centroids,
                                        np.array([center[0]]),
                                        np.array([center[1]]), 15.0)[0])
    assert values[0] > values[1] > values[2]


def test_shear_moves_recovered_center_monotonically(nominal_model):
    # recovered center shift tracks shear * envelope-at-center, and grows
    # with |shear|
    base = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=40.0)
    span = np.arange(-30.0, 30.5, 0.25)
    shifts = []
    for shear in (0.0, 6.0, 12.0):
        stim = dataclasses.replace(base, shear_x=shear)
        ms = displace_markers(nominal_model, stim)
        gx, gy = np.meshgrid(base.x + span, base.y + span)
        d = density_at_points(ms.centroids, gx.ravel(), gy.ravel(), 15.0)
        k = int(d.argmin())
        shifts.append(gx.ravel()[k] - base.x)
    assert shifts[0] < shifts[1] < shifts[2]
    # envelope at the center is 1, so the shift should be near the shear
    assert abs(shifts[1] - 6.0) <= 3.0
    assert abs(shifts[2] - 12.0) <= 3.0


def test_render_deterministic(nominal_model):
    ms = displace_markers(nominal_model, None)
    a = tg.render_frame(ms, nominal_model, finger_id=1, seq=3)
    b = tg.render_frame(ms, nominal_model, finger_id=1, seq=3)
    assert np.array_equal(a, b)


def test_noise_stream_keyed_by_finger_and_seq(nominal_model):
    ms = displace_markers(nominal_model, None)
    a = tg.render_frame(ms, nominal_model, finger_id=1, seq=3)
    b = tg.render_frame(ms, nominal_model, finger_id=1, seq=4)
    c = tg.render_frame(ms, nominal_model, finger_id=2, seq=3)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empty_markerset_renders_background(nominal_model):
    quiet = dataclasses.replace(nominal_model, noise_sigma=0.0)
    frame = tg.render_frame(tg.MarkerSet(np.empty((0, 2))), quiet)
    assert np.all(frame == np.rint(255 * quiet.background))


def test_darkest_pixel_at_disk_center(nominal_model):
    # the anti-aliased disk core is a plateau at marker_intensity; the
    # center pixel attains the global minimum and the far field does not
    quiet = dataclasses.replace(nominal_model, noise_sigma=0.0)
    frame = tg.render_frame(tg.MarkerSet(np.array([[320.0, 240.0]])), quiet)
    assert frame[240, 320] == frame.min()
    assert frame[240, 320] == np.rint(255 * quiet.marker_intensity)
    assert frame[0, 0] == np.rint(255 * quiet.background)


def test_model_invariants():
    with pytest.raises(ValueError):
        SensorModel(spacing=7.0, marker_radius=4.0)  # spacing <= 2r
    with pytest.raises(ValueError):
        SensorModel(grid_rows=40, spacing=15.0)  # grid runs off the frame
    with pytest.raises(ValueError):
        ContactStimulus(x=0.0, y=0.0, depth=-1.0, radius=40.0)
    with pytest.raises(ValueError):
        ContactStimulus(x=0.0, y=0.0, depth=1.0, radius=0.0)
    with pytest.raises(ValueError, match="x = nan"):
        ContactStimulus(x=math.nan, y=0.0, depth=1.0, radius=40.0)
    with pytest.raises(ValueError, match="shear_y = inf"):
        ContactStimulus(x=0.0, y=0.0, depth=1.0, radius=40.0,
                        shear_y=math.inf)
    with pytest.raises(ValueError, match="marker_radius"):
        SensorModel(marker_radius=-3.0)
    with pytest.raises(ValueError, match="noise_sigma"):
        SensorModel(noise_sigma=-0.01)
    with pytest.raises(ValueError, match="grid_cols"):
        SensorModel(grid_cols=0)


@pytest.mark.parametrize("name, value", [
    # grid_rows = 14.5 built a grid of 15 rows, and seed = 2.5 built
    ("grid_rows", 14.5), ("grid_cols", 20.0), ("width", 640.0),
    ("seed", 2.5), ("height", True), ("seed", False),
    ("noise_sigma", True), ("spacing", np.True_), ("background", True),
    ("marker_intensity", "0.15"),
])
def test_model_refuses_non_integers_and_bools(name, value):
    with pytest.raises(ValueError, match=f"^{name} = "):
        SensorModel(**{name: value})


def test_model_takes_numpy_integers_and_renders_them_alike():
    # A uint64 width made disk_coverage's pixel indices floats, and
    # rendering raised IndexError.
    model = SensorModel(grid_rows=np.int32(12), grid_cols=np.uint8(16),
                        width=np.uint64(640), seed=np.uint64(7))
    plain = SensorModel(grid_rows=12, grid_cols=16, seed=7)
    assert model == plain and type(model.width) is int
    markers = displace_markers(model)
    assert len(markers) == 12 * 16
    assert tg.render_frame(markers, model, 1, 3).tobytes() == \
        tg.render_frame(markers, plain, 1, 3).tobytes()


def test_marker_grid_is_capped():
    # This grid fits the frame, and nominal_grid would have asked for
    # over 16 TB; the model is refused before anything is allocated.
    with pytest.raises(ValueError, match="grid_rows x grid_cols is above "
                       "the cap of 10000 markers"):
        SensorModel(grid_rows=10**6, grid_cols=10**6, spacing=1e-4,
                    marker_radius=1e-5)
    at_cap = SensorModel(grid_rows=100, grid_cols=100, spacing=4.0,
                         marker_radius=1.0)
    assert at_cap.grid_rows * at_cap.grid_cols == \
        tacgrip.sensor_sim.MAX_MARKERS
    with pytest.raises(ValueError, match="above the cap"):
        dataclasses.replace(at_cap, grid_cols=101)


def test_frame_size_is_capped():
    # Ten million by ten million pixels: the first render would have asked
    # for a 10^14-byte coverage array. The model is refused when built,
    # and the scenario text at parse; nothing is rendered or allocated.
    with pytest.raises(ValidationError, match="width x height is above "
                       "the cap of 4194304 pixels"):
        parse_scenario_text("[sensor]\nwidth = 10000000\n"
                            "height = 10000000\n")
    cap = tacgrip.sensor_sim.MAX_FRAME_PIXELS
    at_cap = SensorModel(width=4096, height=cap // 4096)
    assert at_cap.width * at_cap.height == cap
    with pytest.raises(ValueError, match="above the cap"):
        dataclasses.replace(at_cap, height=at_cap.height + 1)


def _write_frames(directory, model, marker_sets, finger_id):
    """One finger's stream of marker sets, written to a directory with a
    capture time of 0.033 s per frame."""
    stream = FrameStream(model, finger_id, directory)
    for seq, markers in enumerate(marker_sets):
        stream.render(markers, 0.033 * seq)


def test_write_frames_and_truth_sidecar(tmp_path, nominal_model):
    stim = ContactStimulus(x=320.0, y=240.0, depth=2.0, radius=40.0)
    sets = [displace_markers(nominal_model, None),
            displace_markers(nominal_model, stim)]
    _write_frames(tmp_path, nominal_model, sets, finger_id=1)
    img = read_pgm(tmp_path / "frame_1_000000.pgm")
    assert img.shape == (nominal_model.height, nominal_model.width)
    truth = (tmp_path / "truth_1.csv").read_text().strip().splitlines()
    assert truth[0] == "seq,marker,x,y"
    assert len(truth) == 1 + 2 * len(sets[0])
    seq, marker, x, y = truth[1].split(",")
    assert (int(seq), int(marker)) == (0, 0)
    assert math.isclose(float(x), sets[0].centroids[0, 0], abs_tol=1e-6)


def _stamp_disk_loop(markers, model):
    """The per-marker stamping loop disk_coverage replaced, kept as its
    reference: each disk's clipped bounding box, supersampled 4x4 and
    max-composited one marker at a time."""
    coverage = np.zeros((model.height, model.width))
    h, w, radius = model.height, model.width, model.marker_radius
    for cx, cy in markers.centroids:
        x0 = max(int(np.floor(cx - radius - 1)), 0)
        x1 = min(int(np.ceil(cx + radius + 1)) + 1, w)
        y0 = max(int(np.floor(cy - radius - 1)), 0)
        y1 = min(int(np.ceil(cy + radius + 1)) + 1, h)
        if x0 >= x1 or y0 >= y1:
            continue
        sub_x = (np.arange(x0, x1)[:, None] + _SS[None, :]).ravel() - cx
        sub_y = (np.arange(y0, y1)[:, None] + _SS[None, :]).ravel() - cy
        inside = (sub_y[:, None] ** 2 + sub_x[None, :] ** 2) <= radius ** 2
        local = inside.reshape(y1 - y0, 4, x1 - x0, 4).mean(axis=(1, 3))
        np.maximum(coverage[y0:y1, x0:x1], local,
                   out=coverage[y0:y1, x0:x1])
    return coverage


def _layouts(model, rng):
    """Seeded marker layouts for the coverage and frame tests: the rest
    grid, no marker, contacts anywhere, deep narrow contacts that fold the
    field (disks overlap and cross), markers on and past the frame's edges
    and corners, and random overlapping sets, some wholly outside."""
    radius = model.marker_radius
    sets = [displace_markers(model, None), tg.MarkerSet(np.empty((0, 2)))]
    for _ in range(15):  # contacts anywhere, the grid edges included
        sets.append(displace_markers(model, ContactStimulus(
            x=rng.uniform(0, 640), y=rng.uniform(0, 480),
            depth=rng.uniform(0, 3.2), radius=40.0,
            shear_x=rng.uniform(-4, 4), shear_y=rng.uniform(-4, 4))))
    for _ in range(10):  # markers on and past the frame's edges and corners
        edge = rng.choice([0.0, 639.0, 479.0], size=(40, 2))
        sets.append(tg.MarkerSet(edge + rng.uniform(-radius - 2, radius + 2,
                                                    size=(40, 2))))
    for _ in range(10):  # random, overlapping, some wholly outside
        n = int(rng.integers(1, 400))
        sets.append(tg.MarkerSet(rng.uniform([-20, -20], [660, 500],
                                             size=(n, 2))))
    for _ in range(3):  # folded: depth * k * e^(-1/2) / R > 1
        sets.append(displace_markers(model, ContactStimulus(
            x=rng.uniform(200, 440), y=rng.uniform(150, 330),
            depth=rng.uniform(3.0, 4.5), radius=rng.uniform(14, 18))))
    return sets


def _coverage_image(covered, model):
    """The (height, width) uint8 count image of `disk_coverage`'s list,
    after checking the list: flat indices inside the frame, counts 1-16
    shifted to k << 8, and the same count each time a pixel is listed."""
    pixels, shifted = covered
    assert pixels.dtype == shifted.dtype == np.intp
    assert pixels.shape == shifted.shape and pixels.ndim == 1
    counts = shifted >> 8
    assert not (shifted & 0xFF).any()
    assert ((counts >= 1) & (counts <= 16)).all()
    image = np.zeros(model.height * model.width, dtype=np.uint8)
    image[pixels] = counts  # raises IndexError on an index past the frame
    assert (pixels >= 0).all()
    assert np.array_equal(image[pixels], counts)
    return image.reshape(model.height, model.width)


def _listed(coverage):
    """A count image's covered pixels in `disk_coverage`'s form, each
    listed once: the full-frame scan the stamp's own list replaced."""
    flat = coverage.ravel()
    covered = np.flatnonzero(flat)
    return covered, flat[covered].astype(np.intp) << 8


@pytest.mark.parametrize("radius", [2.5, 4.0, 6.3])
def test_disk_coverage_matches_per_marker_loop(radius):
    model = SensorModel(marker_radius=radius, spacing=15.0)
    for markers in _layouts(model, np.random.default_rng(int(radius * 10))):
        got = _coverage_image(disk_coverage(markers, model), model)
        want = _stamp_disk_loop(markers, model)
        assert got.shape == want.shape
        assert (got / 16.0).tobytes() == want.tobytes()


@pytest.mark.parametrize("radius", [0.05, 0.3, 0.53, 1.0, 4.0])
def test_disk_coverage_matches_per_marker_loop_on_the_eighth_pixel_grid(
        radius):
    # On centers of the 1/8 px grid, samples lie exactly on many disks'
    # edges, where the exact test decides; radii below the samples'
    # reach (0.375 * sqrt(2) px) have no pixel whose samples are all in.
    model = SensorModel(marker_radius=radius, spacing=15.0)
    rng = np.random.default_rng(int(radius * 100))
    for trial in range(12):
        n = int(rng.integers(1, 200))
        centers = np.round(rng.uniform(-8, [648, 488], (n, 2)) * 8) / 8
        if trial % 3 == 0:  # on and around the frame's edges and corners
            centers[: n // 2] = rng.choice([0.0, 639.0, 479.0],
                                           (n // 2, 2)) \
                + np.round(rng.uniform(-3, 3, (n // 2, 2)) * 8) / 8
        markers = tg.MarkerSet(centers)
        got = _coverage_image(disk_coverage(markers, model), model)
        assert (got / 16.0).tobytes() == \
            _stamp_disk_loop(markers, model).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_disk_coverage_over_several_chunks(seed):
    # 2,500 overlapping disks, anywhere on and past the frame, stamped in
    # more than one chunk of markers.
    model = SensorModel()
    size = int(np.ceil(2 * model.marker_radius + 2)) + 2
    per_chunk = tacgrip.sensor_sim._CHUNK_PIXELS // size ** 2
    rng = np.random.default_rng(seed)
    markers = tg.MarkerSet(rng.uniform([-8, -8], [648, 488], (2500, 2)))
    assert len(markers) > 2 * per_chunk
    got = _coverage_image(disk_coverage(markers, model), model)
    assert (got / 16.0).tobytes() == \
        _stamp_disk_loop(markers, model).tobytes()


def test_disk_coverage_of_no_marker_lists_no_pixel(nominal_model):
    pixels, shifted = disk_coverage(tg.MarkerSet(np.empty((0, 2))),
                                    nominal_model)
    assert pixels.dtype == shifted.dtype == np.intp
    assert len(pixels) == len(shifted) == 0
    frame = tg.render_frame(tg.MarkerSet(np.empty((0, 2))), nominal_model,
                            seq=4)
    assert frame.tobytes() == _float_render(
        tg.MarkerSet(np.empty((0, 2))), nominal_model, 1, 4).tobytes()


def test_overlapping_disks_list_a_shared_pixel_once_per_disk(nominal_model):
    # Two disks 3 px apart share pixels, each of which both list with the
    # pixel's maximum count; the frame equals the float reference.
    markers = tg.MarkerSet([[100.3, 200.6], [103.3, 200.1], [300.0, 300.0]])
    pixels, shifted = disk_coverage(markers, nominal_model)
    seen, times = np.unique(pixels, return_counts=True)
    shared = seen[times == 2]
    assert len(shared) > 10 and times.max() == 2
    image = _coverage_image((pixels, shifted), nominal_model)
    assert (image / 16.0).tobytes() == \
        _stamp_disk_loop(markers, nominal_model).tobytes()
    for pixel in shared:
        assert len(set(shifted[pixels == pixel].tolist())) == 1
    assert tg.render_frame(markers, nominal_model, seq=2).tobytes() == \
        _float_render(markers, nominal_model, 1, 2).tobytes()


def _float_render(markers, model, finger_id=1, seq=0):
    """The float rendering path that the count table replaced, kept as
    its reference: float coverage shares (`_stamp_disk_loop`, equal byte
    for byte to the float `disk_coverage` it replaced), a float32
    noise-free base image on the 0-255 scale, and the noise quantiles
    added to it in float32."""
    coverage = _stamp_disk_loop(markers, model)
    image = model.background - coverage * (model.background
                                           - model.marker_intensity)
    base = (255.0 * image).astype(np.float32)
    if model.noise_sigma > 0:
        rng = np.random.default_rng((model.seed, finger_id, seq))
        quantiles = ndtri((np.arange(256) + 0.5) / 256)
        table = (255.0 * model.noise_sigma * quantiles).astype(np.float32)
        noise = np.frombuffer(rng.bytes(base.size), dtype=np.uint8)
        image = table[noise].reshape(base.shape)
        image += base
    else:
        image = base.copy()
    np.rint(image, out=image)
    np.clip(image, 0.0, 255.0, out=image)
    return image.astype(np.uint8)


@pytest.mark.parametrize("radius", [2.5, 4.0, 6.3])
@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.6])
def test_render_frame_matches_float_reference(radius, sigma):
    rng = np.random.default_rng(int(radius * 10) + int(sigma * 1000))
    model = SensorModel(marker_radius=radius, noise_sigma=sigma, seed=5)
    darker = dataclasses.replace(model, background=0.71,
                                 marker_intensity=0.33)
    saturated = 0
    for i, markers in enumerate(_layouts(model, rng)[::2]):
        for m in (model, darker):
            finger, seq = 1 + i % 2, int(rng.integers(0, 10_000))
            frame = tg.render_frame(markers, m, finger_id=finger, seq=seq)
            want = _float_render(markers, m, finger, seq)
            assert frame.dtype == np.uint8
            assert frame.tobytes() == want.tobytes()
            stream = FrameStream(m, finger)
            stream.seq = seq  # the stream's next frame is this seq
            assert stream.render(markers, 0.0).tobytes() == want.tobytes()
            saturated += want.min() == 0 and want.max() == 255
    if sigma >= 0.5:  # the noise clips at both ends of the byte
        assert saturated >= 10


def test_render_frame_bytes_keyed_by_seed(nominal_model):
    stim = ContactStimulus(x=300.0, y=200.0, depth=2.0, radius=30.0)
    markers = displace_markers(nominal_model, stim)
    a = tg.render_frame(markers, nominal_model, finger_id=2, seq=11)
    b = tg.render_frame(markers, nominal_model, finger_id=2, seq=11)
    other = dataclasses.replace(nominal_model, seed=nominal_model.seed + 1)
    c = tg.render_frame(markers, other, finger_id=2, seq=11)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert c.tobytes() == _float_render(markers, other, 2, 11).tobytes()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 9, 1001, 307_200, 307_203])
def test_noise_bytes_are_the_generators_bytes(n):
    # The raw 64-bit draws of PCG64, read as little-endian bytes, are the
    # bytes Generator.bytes cuts from its 32-bit draws, also where the
    # length leaves part of the last draw unread.
    keys = [(0, 1, 0), (5, 2, 11), (123456789, 1, 9999), (7,)] \
        + [(seed, 1 + seed % 2, 3 * seed) for seed in range(20)]
    for key in keys:
        got = tacgrip.sensor_sim._noise_bytes(np.random.default_rng(key), n)
        want = np.frombuffer(np.random.default_rng(key).bytes(n), np.uint8)
        assert got.dtype == np.uint8
        assert got.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.6])
def test_lookup_table_frame_matches_the_table_gather(sigma):
    # Against the gather of every pixel's (k << 8) | noise byte that it
    # replaced (`_old_render_frame`). Coverage counts 0-16 anywhere, none
    # and everywhere, on the default levels and on others; at sigma 0.6
    # the noise clips at both ends.
    sim = tacgrip.sensor_sim
    rng = np.random.default_rng(int(sigma * 1000))
    base = SensorModel(width=96, height=64, grid_rows=2, grid_cols=2,
                       noise_sigma=sigma, seed=3)
    models = [base, dataclasses.replace(base, background=0.71,
                                        marker_intensity=0.33),
              dataclasses.replace(base, background=1.0,
                                  marker_intensity=0.0)]
    for trial in range(18):
        model = models[trial % 3]
        share = (0.0, 0.1, 0.5, 1.0)[trial % 4]
        coverage = np.where(rng.random((64, 96)) < share,
                            rng.integers(1, 17, (64, 96)), 0)
        coverage = coverage.astype(np.uint8)
        finger, seq = 1 + trial % 2, int(rng.integers(0, 10_000))
        got = sim._frame(sim._table(model), _listed(coverage), model,
                         finger, seq)
        want = _old_render_frame(None, model, finger, seq, coverage)
        assert got.dtype == np.uint8 and got.shape == (64, 96)
        assert got.tobytes() == want.tobytes()


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(markers, model):
        calls.append(markers.centroids.tobytes())
        return original(markers, model)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_grasp_computes_coverage_once_per_layout_change(monkeypatch):
    calls = _counting(monkeypatch, tacgrip.sensor_sim, "disk_coverage")
    rendered = {1: [], 2: []}
    render = FrameStream.render

    def recording(stream, markers, timestamp):
        seq = stream.seq
        frame = render(stream, markers, timestamp)
        rendered[stream.finger_id].append((seq, markers, stream.model, frame))
        return frame

    monkeypatch.setattr(FrameStream, "render", recording)
    # run_grasp's workers call these steps, one per finger and control
    # instant; here they run in this process, where the counters are.
    steps = tacgrip.episode.finger_steps(
        static_scenario(seed=1, duration=1.2))
    for tick in range(0, 1201, CONTROL_PERIOD_TICKS):  # a 1.2 s episode
        for finger in (1, 2):
            steps[finger](tick * TICK_S)
    stamped = len(calls)
    # at rest until the contact at 1 s, then held still: two layouts
    changes = 0
    for finger in (1, 2):
        seen = [markers.centroids.tobytes()
                for _, markers, _, _ in rendered[finger]]
        assert len(seen) == 37 and len(set(seen)) == 2
        changes += sum(a != b for a, b in zip([None] + seen, seen))
        for i, (seq, markers, model, frame) in enumerate(rendered[finger]):
            assert seq == i
            assert frame.tobytes() == tg.render_frame(
                markers, model, finger, seq).tobytes()
    assert changes == 4
    # one stamp per layout change, plus the one calibration frame
    assert stamped == changes + 1


def test_write_frames_computes_coverage_once_per_repeat(
        tmp_path, monkeypatch, nominal_model):
    calls = _counting(monkeypatch, tacgrip.sensor_sim, "disk_coverage")
    rest = displace_markers(nominal_model, None)
    touched = displace_markers(nominal_model, ContactStimulus(
        x=320.0, y=240.0, depth=2.0, radius=40.0))
    sets = [rest, rest, touched, touched, touched, rest]
    _write_frames(tmp_path, nominal_model, sets, finger_id=2)
    assert len(calls) == 3  # rest, touched, rest again
    for seq in (1, 4, 5):
        frame = tg.render_frame(sets[seq], nominal_model, finger_id=2,
                                seq=seq)
        write_pgm(tmp_path / "fresh.pgm", frame,
                  comment=f"t={0.033 * seq:.6f}")
        assert (tmp_path / f"frame_2_{seq:06d}.pgm").read_bytes() \
            == (tmp_path / "fresh.pgm").read_bytes()


# -- equivalence with the two frame streams FrameStream replaced ------------

def _old_render_frame(markers, model, finger_id, seq, coverage):
    """The render_frame body that took a caller's coverage, kept as the
    reference of the stream's frames."""
    share = np.arange(17) / 16.0
    levels = (255.0 * (model.background - share * (
        model.background - model.marker_intensity))).astype(np.float32)
    if model.noise_sigma > 0:
        rng = np.random.default_rng((model.seed, finger_id, seq))
        quantiles = ndtri((np.arange(256) + 0.5) / 256)
        noise = (255.0 * model.noise_sigma * quantiles).astype(np.float32)
        index = coverage.astype(np.uint16) << 8
        index |= np.frombuffer(rng.bytes(coverage.size),
                               dtype=np.uint8).reshape(coverage.shape)
    else:
        noise = np.zeros(1, dtype=np.float32)
        index = coverage
    table = np.rint(levels[:, None] + noise)
    np.clip(table, 0.0, 255.0, out=table)
    return np.take(table.astype(np.uint8).ravel(), index)


def _old_start_frame_stream(directory, finger_id):
    directory.mkdir(parents=True, exist_ok=True)
    truth_path = directory / f"truth_{finger_id}.csv"
    with open(truth_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["seq", "marker", "x", "y"])
    return truth_path


def _old_save_frame(directory, finger_id, seq, timestamp, markers, frame):
    write_pgm(directory / frame_filename(finger_id, seq), frame,
              comment=f"t={timestamp:.6f}")
    with open(directory / f"truth_{finger_id}.csv", "a", newline="") as fh:
        csv.writer(fh).writerows(
            [seq, idx, f"{mx:.4f}", f"{my:.4f}"]
            for idx, (mx, my) in enumerate(markers.centroids))


def _old_stream(model, finger_id, marker_sets, times, directory=None):
    """The last-layout cache that run_grasp and the frame writer each kept
    around the two calls above. Returns the frames and the stamp count."""
    if directory is not None:
        _old_start_frame_stream(directory, finger_id)
    last_layout, coverage, stamps, frames = None, None, 0, []
    for seq, (markers, t) in enumerate(zip(marker_sets, times)):
        layout = markers.centroids.tobytes()
        if layout != last_layout:
            last_layout = layout
            coverage = _coverage_image(disk_coverage(markers, model),
                                       model)
            stamps += 1
        frame = _old_render_frame(markers, model, finger_id, seq, coverage)
        if directory is not None:
            _old_save_frame(directory, finger_id, seq, t, markers, frame)
        frames.append(frame)
    return frames, stamps


def _layout_sequence(model, rng):
    """Rest, a contact, the same contact again, the contact shifted by
    1e-3 px and rest again, each held for one or two frames."""
    rest = displace_markers(model, None)
    stim = ContactStimulus(x=rng.uniform(40, 600), y=rng.uniform(40, 440),
                           depth=rng.uniform(0.5, 3.0), radius=40.0,
                           shear_x=rng.uniform(-4, 4))
    touched = displace_markers(model, stim)
    shifted = displace_markers(model, dataclasses.replace(stim,
                                                          x=stim.x + 1e-3))
    assert shifted.centroids.tobytes() != touched.centroids.tobytes()
    layouts = [rest, touched, displace_markers(model, stim), shifted, rest]
    return [m for m in layouts for _ in range(int(rng.integers(1, 3)))]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("to_disk", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.01])
@pytest.mark.parametrize("finger", [1, 2])
def test_frame_stream_matches_the_two_streams_it_replaced(
        tmp_path, monkeypatch, finger, sigma, to_disk):
    calls = _counting(monkeypatch, tacgrip.sensor_sim, "disk_coverage")
    model = SensorModel(noise_sigma=sigma, seed=7)
    rng = np.random.default_rng(100 * finger + int(sigma * 1000) + to_disk)
    for run in range(2):
        sets = _layout_sequence(model, rng)
        times = [0.033 * i for i in range(len(sets))]
        old_dir = tmp_path / f"old{run}" if to_disk else None
        new_dir = tmp_path / f"new{run}" if to_disk else None
        want, stamps = _old_stream(model, finger, sets, times, old_dir)
        del calls[:]
        stream = FrameStream(model, finger, new_dir)
        got = [stream.render(m, t) for m, t in zip(sets, times)]
        assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
        seen = [markers.centroids.tobytes() for markers in sets]
        changes = sum(a != b for a, b in zip([None] + seen, seen))
        assert len(calls) == stamps == changes == 4
        if to_disk:
            assert _files(new_dir) == _files(old_dir)
            assert len(_files(new_dir)) == len(sets) + 1
