import re

import numpy as np
import pytest

from tacgrip.pgm import frame_filename, iter_frame_files, read_pgm, write_pgm


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 1.0, (48, 64))
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert back.shape == (48, 64)
    # 8-bit quantization: half a level either way
    assert np.abs(back / 255.0 - img).max() <= 0.5 / 255 + 1e-12


def test_integer_input_written_verbatim(tmp_path):
    img = np.arange(12, dtype=np.int64).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_binary_p5_header_and_comment(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(path, np.zeros((4, 6)), comment="range 0..1")
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    assert b"# range 0..1\n" in raw
    assert b"6 4\n255\n" in raw
    assert np.array_equal(read_pgm(path), np.zeros((4, 6), dtype=np.uint8))


def test_extremes_map_to_full_range(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(path, np.array([[0.0, 1.0]]))
    back = read_pgm(path)
    assert back[0, 0] == 0
    assert back[0, 1] == 255


def test_integer_out_of_byte_range_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[300]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_pixels_rejected_with_count(tmp_path, bad):
    img = np.full((3, 4), 0.5)
    img[0, 1] = img[2, 3] = bad
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match=r"2 non-finite pixel"):
        write_pgm(path, img)
    assert not path.exists()


def test_non_finite_float32_pixel_rejected(tmp_path):
    img = np.zeros((2, 2), dtype=np.float32)
    img[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"1 non-finite pixel"):
        write_pgm(tmp_path / "x.pgm", img)


@pytest.mark.parametrize("img", [np.zeros((0, 4), dtype=np.uint8),
                                 np.zeros((3, 0)),
                                 np.zeros((0, 0), dtype=np.int64)])
def test_image_without_pixels_rejected_with_shape(tmp_path, img):
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match=re.escape(str(img.shape))):
        write_pgm(path, img)
    assert not path.exists()


def test_frame_filename_format():
    assert frame_filename(1, 0) == "frame_1_000000.pgm"
    assert frame_filename(2, 123) == "frame_2_000123.pgm"


def test_iter_frame_files_ordering(tmp_path):
    img = np.zeros((2, 2))
    for seq in (3, 0, 11):
        write_pgm(tmp_path / frame_filename(1, seq), img)
    write_pgm(tmp_path / frame_filename(2, 5), img)
    (tmp_path / "notes.txt").write_text("ignored")
    got = iter_frame_files(tmp_path)
    assert [(f, s) for f, s, _ in got] == [(1, 0), (1, 3), (1, 11), (2, 5)]


def test_iter_frame_files_refuses_two_names_for_one_frame(tmp_path):
    img = np.zeros((2, 2))
    for name in ("frame_1_000000.pgm", "frame_1_000001.pgm", "frame_1_1.pgm"):
        write_pgm(tmp_path / name, img)
    with pytest.raises(ValueError, match="both frame 1 of finger 1") as err:
        iter_frame_files(tmp_path)
    assert "frame_1_000001.pgm" in str(err.value)
    assert "frame_1_1.pgm" in str(err.value)


def test_iter_frame_files_reads_ascii_digits_only(tmp_path):
    img = np.zeros((2, 2))
    write_pgm(tmp_path / frame_filename(1, 0), img)
    # Arabic-Indic digit one, and a fullwidth digit in the sequence
    write_pgm(tmp_path / "frame_\u0661_000000.pgm", img)
    write_pgm(tmp_path / "frame_2_00000\uff11.pgm", img)
    got = iter_frame_files(tmp_path)
    assert [(f, s, p.name) for f, s, p in got] == [(1, 0, "frame_1_000000.pgm")]


def test_read_rejects_non_p5(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_read_rejects_wide_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_read_rejects_truncated_pixels(tmp_path):
    path = tmp_path / "short.pgm"
    write_pgm(path, np.zeros((4, 6)))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match=r"short\.pgm.*expected 24 bytes, got 19"):
        read_pgm(path)


@pytest.mark.parametrize("raw", [b"P5", b"P5\n6 4", b"P5\n6 4\n# comment"])
def test_read_rejects_truncated_header(tmp_path, raw):
    path = tmp_path / "head.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=rf"head\.pgm.*{len(raw)} bytes"):
        read_pgm(path)


@pytest.mark.parametrize("header", [
    b"P5\n6 x4\n255\n", b"P5\n0 4\n255\n",
    # read as a 10x2 image of maxval 255
    b"P5\n1_0 2\n2_55\n", b"P5\n6 4\n2_55\n"])
def test_read_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "junk.pgm"
    path.write_bytes(header + bytes(24))
    with pytest.raises(ValueError, match=r"junk\.pgm"):
        read_pgm(path)
