"""Marker dropout: frames rendered without some markers of the grid.

One pipeline, calibrated on the noise-free rest frame, reads seed-1
frames whose grid lacks a few markers, none of them grid neighbours of
another. A lone missing marker lowers the density too little to cross
the threshold; a hole of neighbouring markers is a density dip, read as
contact like any other, and is not tested here.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from tacgrip import perception
from tacgrip.blobs import MarkerSet
from tacgrip.sensor_sim import ContactStimulus, displace_markers, render_frame


@pytest.fixture(scope="module")
def model(nominal_model):
    return dataclasses.replace(nominal_model, seed=1)


@pytest.fixture(scope="module")
def pipe(reference_frame):
    pipe = perception.FingerPipeline(1)
    pipe.calibrate(reference_frame)
    return pipe


def _grid_cell(model, index):
    return divmod(int(index), model.grid_cols)


def _on_ring(model, index):
    row, col = _grid_cell(model, index)
    return row in (0, model.grid_rows - 1) or col in (0, model.grid_cols - 1)


def _apart(model, drop):
    """No two dropped markers are grid neighbours, diagonals included."""
    for a, b in itertools.combinations(drop, 2):
        (ra, ca), (rb, cb) = _grid_cell(model, a), _grid_cell(model, b)
        if max(abs(ra - rb), abs(ca - cb)) <= 1:
            return False
    return True


def _sample_apart(model, rng, candidates, k):
    while True:
        drop = rng.choice(candidates, k, replace=False)
        if _apart(model, drop):
            return drop


def _render_without(markers, drop, model, seq):
    keep = np.setdiff1d(np.arange(len(markers)), drop)
    return render_frame(MarkerSet(markers.centroids[keep]), model,
                        finger_id=1, seq=seq)


def _reads_no_contact(pipe, model, drops):
    rest = displace_markers(model, None)
    for seq, drop in enumerate(drops, start=1):
        frame = _render_without(rest, drop, model, seq)
        report = pipe.process(frame)
        assert report.center is None, f"dropped {[int(i) for i in drop]}"


def test_rest_without_one_outer_ring_marker_reads_no_contact(pipe, model):
    ring = [i for i in range(model.grid_rows * model.grid_cols)
            if _on_ring(model, i)]
    assert len(ring) == 66
    _reads_no_contact(pipe, model, [[i] for i in ring])


def test_rest_without_one_interior_marker_reads_no_contact(pipe, model):
    interior = [i for i in range(model.grid_rows * model.grid_cols)
                if not _on_ring(model, i)]
    rng = np.random.default_rng(20)
    _reads_no_contact(pipe, model,
                      [[i] for i in rng.choice(interior, 30, replace=False)])


def test_rest_without_three_scattered_markers_reads_no_contact(pipe, model):
    rng = np.random.default_rng(21)
    everywhere = np.arange(model.grid_rows * model.grid_cols)
    _reads_no_contact(pipe, model,
                      [_sample_apart(model, rng, everywhere, 3)
                       for _ in range(40)])


def test_contact_center_unmoved_by_distant_dropout(pipe, model):
    # Three scattered markers dropped more than 100 px from a 3 mm
    # contact leave its center where it was.
    rng = np.random.default_rng(22)
    for seq in range(1, 31):
        stim = ContactStimulus(x=float(rng.uniform(200.0, 440.0)),
                               y=float(rng.uniform(160.0, 320.0)),
                               depth=3.0,
                               radius=float(rng.uniform(14.0, 30.0)))
        markers = displace_markers(model, stim)
        offset = markers.centroids - (stim.x, stim.y)
        far = np.flatnonzero(np.hypot(offset[:, 0], offset[:, 1]) > 100.0)
        drop = _sample_apart(model, rng, far, 3)
        centers = [pipe.process(_render_without(markers, dropped, model,
                                                seq)).center
                   for dropped in ([], drop)]
        assert centers[0] is not None
        assert centers[1] == centers[0], f"dropped {[int(i) for i in drop]}"
