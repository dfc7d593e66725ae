import numpy as np
import pytest

from tacgrip.density import KdeConfig
from tacgrip.errors import NonMonotonicTimeError
from tacgrip.tracking import (ContactTrack, read_track_csv, track_displacement,
                              write_track_csv)


CFG = KdeConfig(pixel_scale_s=0.1)


def test_three_four_five_triangle():
    track = ContactTrack()
    track_displacement(track, (100, 100), 0.0, CFG)
    track_displacement(track, (103, 104), 0.1, CFG)
    assert track.displacements == [pytest.approx(0.5, abs=1e-12)]


def test_identical_centers_zero_displacement():
    track = ContactTrack()
    track_displacement(track, (55.5, 60.25), 0.0, CFG)
    track_displacement(track, (55.5, 60.25), 0.1, CFG)
    assert track.displacements == [0.0]


def test_single_entry_has_no_displacement():
    track = track_displacement(ContactTrack(), (10, 20), 0.0, CFG)
    assert len(track) == 1
    assert track.displacements == []


def test_time_must_advance():
    track = ContactTrack()
    track_displacement(track, (0, 0), 1.0, CFG)
    with pytest.raises(NonMonotonicTimeError):
        track_displacement(track, (1, 1), 1.0, CFG)
    with pytest.raises(NonMonotonicTimeError):
        track_displacement(track, (1, 1), 0.5, CFG)
    # the failed appends must not corrupt the track
    assert len(track) == 1


@pytest.mark.parametrize("center", [(float("nan"), 1.0), (1.0, float("inf")),
                                    (-float("inf"), float("nan"))])
def test_center_must_be_finite(center):
    track = ContactTrack()
    track_displacement(track, (0, 0), 1.0, CFG)
    with pytest.raises(ValueError, match="not finite"):
        track_displacement(track, center, 2.0, CFG)
    # the failed append must not corrupt the track
    assert track.centers == [(0.0, 0.0)]
    assert track.displacements == []


def test_rigid_translation_invariance():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 640, (20, 2))
    shift = np.array([123.4, -56.7])
    a, b = ContactTrack(), ContactTrack()
    for i, p in enumerate(pts):
        track_displacement(a, tuple(p), i * 0.1 + 0.1, CFG)
        track_displacement(b, tuple(p + shift), i * 0.1 + 0.1, CFG)
    assert a.displacements == pytest.approx(b.displacements, abs=1e-9)


def test_csv_round_trip(tmp_path):
    track = ContactTrack(finger_id=2)
    for i, c in enumerate([(10, 20), (13, 24), (13, 24), (20, 20)]):
        track_displacement(track, c, 0.033 * (i + 1), CFG)
    path = tmp_path / "track.csv"
    write_track_csv(track, path)
    back = read_track_csv(path, finger_id=2)
    assert back.finger_id == 2
    assert back.centers == track.centers
    assert back.timestamps == pytest.approx(track.timestamps, abs=1e-6)
    assert back.displacements == pytest.approx(track.displacements, abs=1e-9)


def test_read_rejects_foreign_csv(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_track_csv(path)


@pytest.mark.parametrize("rows, bad_row, what", [
    (["0.1,1,1,", "0.1,2,2,0.1"], 3, "does not advance"),
    (["0.1,1,1,", "0.2,2,2,0.1", "0.15,3,3,0.1"], 4, "does not advance"),
    (["nan,1,1,", "0.2,2,2,0.1"], 2, "not finite"),
    (["0.1,1,1,", "inf,2,2,0.1"], 3, "not finite"),
    (["0.1,1,1,", "0.2,2"], 3, "need numeric"),
    (["0.1,1,1,", "0.2,2,2,abc"], 3, "need numeric"),
    # d_mm is what aligns displacements with rows
    (["0.1,1,1,7.0", "0.2,2,2,0.0"], 2, "d_mm must be empty on the first"),
    (["0.1,1,1,", "0.2,2,2,0.1", "0.3,3,3,"], 4, "present on every later"),
    # a NaN d_mm read as no violation, so the track classified stable
    (["0.1,1,1,", "0.2,2,2,nan"], 3, "d_mm nan is not finite"),
    (["0.1,1,1,", "0.2,2,2,0.1", "0.3,3,3,inf"], 4, "d_mm inf is not finite"),
    (["0.1,nan,1,", "0.2,2,2,0.1"], 2, "x nan is not finite"),
    (["0.1,1,1,", "0.2,2,-inf,0.1"], 3, "y -inf is not finite"),
])
def test_read_rejects_hostile_rows(tmp_path, rows, bad_row, what):
    path = tmp_path / "hostile.csv"
    path.write_text("t,x,y,d_mm\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=what) as err:
        read_track_csv(path)
    assert str(path) in str(err.value)
    assert f"row {bad_row}:" in str(err.value)
