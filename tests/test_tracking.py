import csv
import dataclasses
import math
import random

import numpy as np
import pytest

from tacgrip.density import KdeConfig
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
    with pytest.raises(ValueError, match="timestamp 1.0 does not advance"):
        track_displacement(track, (1, 1), 1.0, CFG)
    with pytest.raises(ValueError, match="timestamp 0.5 does not advance"):
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


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_timestamp_must_be_finite(t):
    track = ContactTrack()
    track_displacement(track, (0, 0), 1.0, CFG)
    with pytest.raises(ValueError, match="timestamp .* is not finite"):
        track_displacement(track, (1, 1), t, CFG)
    with pytest.raises(ValueError, match="timestamp .* is not finite"):
        track_displacement(ContactTrack(), (1, 1), t, CFG)
    assert track.timestamps == [1.0]
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


@pytest.mark.parametrize("header", ["t,x,y,foo", "t,x,y", "t,x,y,d_mm,note",
                                    ""])
def test_read_rejects_a_header_other_than_the_writers(tmp_path, header):
    # t,x,y,foo used to be taken for a track header
    path = tmp_path / "track.csv"
    path.write_text(header + "\n0.1,1,1,\n" if header else "")
    with pytest.raises(ValueError, match="not a track CSV header") as err:
        read_track_csv(path)
    assert f"{path}: row 1:" in str(err.value)


def test_read_names_the_file_and_row_of_bytes_that_are_not_text(tmp_path):
    # a bare UnicodeDecodeError named neither the file nor the row
    path = tmp_path / "track.csv"
    path.write_bytes(b"t,x,y,d_mm\n0.1,1,1,\n0.2,\xff2,2,0.1\n")
    with pytest.raises(ValueError, match="row 3: byte 0xff is not UTF-8") \
            as err:
        read_track_csv(path)
    assert str(err.value).startswith(f"{path}: row 3:")


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
    # numeric-literal spellings read as other values: 10.0, 3.0, 15.0, 1.0
    (["0.1,1_0,2,", "0.2,2,2,0.1"], 2, "need numeric"),
    (["0.1,1, 3 ,", "0.2,2,2,0.1"], 2, "need numeric"),
    (["0.1,1,1,", "0.2,2,2,1_5"], 3, "need numeric"),
    (["0.1,\u0661,1,", "0.2,2,2,0.1"], 2, "need numeric"),
    # a fifth cell used to be dropped without a word
    (["0.1,1,1,", "0.2,1,2,0.5,junk"], 3, "5 cells"),
    (["0.1,1,1,,"], 2, "5 cells"),
])
def test_read_rejects_hostile_rows(tmp_path, rows, bad_row, what):
    path = tmp_path / "hostile.csv"
    path.write_text("t,x,y,d_mm\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=what) as err:
        read_track_csv(path)
    assert str(path) in str(err.value)
    assert f"row {bad_row}:" in str(err.value)


# -- equivalence with the two growth paths ContactTrack.append replaced ----

def _old_track_displacement(track, new_center, timestamp, config):
    """track_displacement as it was before ContactTrack.append, with the
    deleted ContactTrack.last_timestamp written out and its time refusal
    raised as the ValueError it now is."""
    timestamp = float(timestamp)
    last = track.timestamps[-1] if track.timestamps else None
    if last is not None and timestamp <= last:
        raise ValueError(
            f"timestamp {timestamp} does not advance past {last}"
        )
    x, y = float(new_center[0]), float(new_center[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"contact center ({x}, {y}) is not finite")
    if track.centers:
        px, py = track.centers[-1]
        d = config.pixel_scale_s * float(np.hypot(x - px, y - py))
        track.displacements.append(d)
    track.centers.append((x, y))
    track.timestamps.append(timestamp)
    return track


def _old_read_track_csv(path, finger_id=1):
    """read_track_csv as it was before ContactTrack.append, with the
    deleted ContactTrack.last_timestamp written out."""
    track = ContactTrack(finger_id=finger_id)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["t", "x", "y"]:
            raise ValueError(f"{path}: not a track CSV (header {header})")
        for row in reader:
            if not row:
                continue
            where = f"{path}: row {reader.line_num}"
            try:
                t, x, y = float(row[0]), float(row[1]), float(row[2])
                d = float(row[3]) if len(row) > 3 and row[3] != "" else None
            except (ValueError, IndexError):
                raise ValueError(f"{where}: need numeric t, x, y[, d_mm], "
                                 f"got {row}")
            last = track.timestamps[-1] if track.timestamps else None
            if (d is None) != (last is None):
                raise ValueError(
                    f"{where}: d_mm must be empty on the first row and "
                    f"present on every later one, got {row}"
                )
            for name, value in (("timestamp", t), ("x", x), ("y", y),
                                ("d_mm", d)):
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{where}: {name} {value} is not finite")
            if last is not None and t <= last:
                raise ValueError(
                    f"{where}: timestamp {row[0]} does not advance past {last}"
                )
            track.timestamps.append(t)
            track.centers.append((x, y))
            if d is not None:
                track.displacements.append(d)
    return track


_FAULTS = ("equal time", "decreasing time", "nan", "inf", "-inf", "junk",
           "d on first row", "d missing later")


def _row_sequences(seed, count):
    """Seeded track rows, 1-6 each, as [t, x, y, d] cells: a float, None
    for an empty cell, or junk text. Most carry one or two faults."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.uniform(0.0, 10.0)
        rows = []
        for i in range(rng.randint(1, 6)):
            t += rng.uniform(0.001, 0.1)
            rows.append([t, rng.uniform(0.0, 640.0), rng.uniform(0.0, 480.0),
                         None if i == 0 else rng.uniform(0.0, 8.0)])
        for _ in range(rng.choice((0, 1, 1, 2))):
            fault = rng.choice(_FAULTS)
            i = rng.randrange(len(rows))
            if fault in ("equal time", "decreasing time", "d missing later"):
                if i == 0:
                    continue
                if fault == "d missing later":
                    rows[i][3] = None
                elif isinstance(rows[i - 1][0], float):
                    back = 0.0 if fault == "equal time" \
                        else rng.uniform(0.001, 1.0)
                    rows[i][0] = rows[i - 1][0] - back
            elif fault == "d on first row":
                rows[0][3] = rng.uniform(0.0, 8.0)
            elif fault == "junk":
                rows[i][rng.randrange(4)] = rng.choice(("abc", "1.2.3", " "))
            else:
                rows[i][rng.randrange(4)] = float(fault)
        yield rows


def _cell(value):
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _outcome(read, path):
    """The track read, or the class of the refusal and its message up to
    the offending row's text, which the old messages quoted."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc).split(", got ")[0]


def _step(grow, track, center, t):
    """None, or the class of the refusal and whether its message refuses
    the time, the one refusal that reads the same in the old and new
    wording."""
    try:
        grow(track, center, t, CFG)
    except ValueError as exc:
        return type(exc), "does not advance" in str(exc)
    return None


def test_append_matches_the_old_growth_paths(tmp_path):
    path = tmp_path / "track.csv"
    read_kinds, differences = set(), []
    for rows in _row_sequences(seed=5, count=2400):
        path.write_text("t,x,y,d_mm\n" + "".join(
            ",".join(_cell(v) for v in row) + "\n" for row in rows))
        old = _outcome(_old_read_track_csv, path)
        new = _outcome(read_track_csv, path)
        assert new == old
        if isinstance(new, ContactTrack):
            read_kinds.add("track")
        else:
            assert new[1].startswith(f"{path}: row ")
            read_kinds.add(new[0])

        old_track, new_track = ContactTrack(), ContactTrack()
        for t, x, y, _ in rows:
            if not all(isinstance(v, float) for v in (t, x, y)):
                continue
            last = new_track.timestamps[-1] if new_track.timestamps else None
            was = _step(_old_track_displacement, old_track, (x, y), t)
            now = _step(track_displacement, new_track, (x, y), t)
            if now == was:
                assert new_track == old_track
                continue
            # The two changes on purpose, after which the tracks differ.
            assert now == (ValueError, False)
            if not math.isfinite(t):
                differences.append("non-finite timestamp refused")
            else:
                assert was == (ValueError, True) and t <= last
                assert not (math.isfinite(x) and math.isfinite(y))
                differences.append("non-finite center reported first")
            break
    assert read_kinds == {"track", ValueError}
    assert set(differences) == {"non-finite timestamp refused",
                                "non-finite center reported first"}


# -- D through complex abs: libm hypot, bit for bit ---------------------------

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
            2.2250738585072014e-308, 1.0, -3.0, 1e308, -1e308,
            math.inf, -math.inf]


def test_complex_abs_is_numpys_hypot():
    """track_displacement's abs(complex(dx, dy)) and np.hypot(dx, dy) both
    call libm hypot; on a platform where they differ, D's bits change."""
    rng = np.random.default_rng(20261019)
    for scale in (1.0, 640.0, 1e-3, 1e150):
        pairs = rng.normal(0.0, scale, size=(250_000, 2))
        want = np.hypot(pairs[:, 0], pairs[:, 1])
        got = np.array([abs(complex(dx, dy)) for dx, dy in pairs.tolist()])
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (
            f"scale {scale}: {bad.size} pairs differ, first "
            f"{pairs[bad[0]].tolist()}: {got[bad[0]]!r} != {want[bad[0]]!r}")
    for dx in _SPECIAL:
        for dy in _SPECIAL:
            got = abs(complex(dx, dy))
            want = float(np.hypot(dx, dy))
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want, (dx, dy, got, want)


def test_overflowing_displacement_is_refused_as_before():
    track = track_displacement(ContactTrack(), (0.0, 0.0), 0.0, CFG)
    with pytest.raises(ValueError, match="d_mm inf is not finite"):
        track_displacement(track, (1.5e308, 1.5e308), 0.1, CFG)
    assert len(track) == 1


# -- the suffix-maximum index -------------------------------------------------

def _index_cases():
    rng = random.Random(77)
    yield [rng.choice([0.0, 0.25, 0.5, 1.0, 7.0]) for _ in range(300)]
    yield [rng.uniform(0.0, 3.0) for _ in range(300)]
    yield [0.5] * 200
    yield [float(300 - i) for i in range(300)]
    yield [float(i) for i in range(300)]
    yield [1.0]
    yield []


def _check_index(track, disps):
    for lo in range(len(disps) + 2):
        assert track.max_displacement_from(lo) == max(disps[lo:], default=None)


def test_max_displacement_from_is_the_suffix_max():
    for disps in _index_cases():
        n = len(disps)
        track = ContactTrack()
        for i in range(n + 1):
            track.append(0.1 * i, (320.0, 240.0), disps[i - 1] if i else None)
            if i == n // 2:
                # queried mid-growth, then grown on
                _check_index(track, disps[:i])
        _check_index(track, disps)


def test_append_is_the_one_way_into_a_track():
    with pytest.raises(TypeError, match="timestamps"):
        ContactTrack(finger_id=1, timestamps=[0.0])
    track = ContactTrack(finger_id=2)
    track.append(0.0, (320.0, 240.0))
    track.append(0.1, (320.0, 240.0), 0.0)
    for name in ("timestamps", "centers", "displacements"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(track, name, [])
    # a NaN displacement is refused, so it cannot hide a violation from
    # the window check
    with pytest.raises(ValueError, match="d_mm nan is not finite"):
        track.append(0.2, (320.0, 240.0), math.nan)
    assert track.displacements == [0.0]
    assert track.max_displacement_from(0) == 0.0
