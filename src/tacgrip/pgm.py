"""Tactile frames, and binary PGM (P5, 8-bit) reading and writing.

A frame is a (height, width) uint8 array of grayscale intensities, as a
camera delivers it, of a fixed working size (640x480 by default). It
carries no time or finger: each finger's pipeline reads its own camera,
and the caller knows when it asked for the frame.

Frame streams on disk are directories of files named
``frame_<finger>_<seq>.pgm``; density heatmaps use the same container with
the value range recorded in a comment line.
"""

import re
from pathlib import Path

import numpy as np

from .errors import plain_int

FRAME_WIDTH = 640
FRAME_HEIGHT = 480

# ASCII digits only, as plain_int reads a number everywhere else.
_FRAME_RE = re.compile(r"frame_([0-9]+)_([0-9]+)\.pgm")


def check_frame(pixels):
    """Raise ValueError unless `pixels` is a 2-D uint8 array with at
    least one pixel."""
    if pixels.ndim != 2:
        raise ValueError("frame pixels must be 2-D")
    # A float frame would be read on the wrong scale, and its NaN or
    # out-of-range values have no byte to stand for them.
    if pixels.dtype != np.uint8:
        raise ValueError(f"frame pixels must be uint8 intensities, got "
                         f"dtype {pixels.dtype}")
    if pixels.size == 0:
        raise ValueError(f"frame has no pixel: its shape is {pixels.shape}")


def write_pgm(path, image, comment=None):
    """Write a 2-D array as binary PGM (P5, maxval 255).

    Float input is interpreted on [0, 1] and quantized, and must be
    finite; integer input is written as-is and must fit in a byte.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {image.shape}")
    if image.size == 0:
        raise ValueError(f"PGM needs at least one pixel, got shape "
                         f"{image.shape}")
    if np.issubdtype(image.dtype, np.floating):
        bad = image.size - int(np.count_nonzero(np.isfinite(image)))
        if bad:
            raise ValueError(f"float image has {bad} non-finite pixel(s) "
                             "(NaN or inf)")
        data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    else:
        if image.min() < 0 or image.max() > 255:
            raise ValueError("integer image out of byte range")
        data = image.astype(np.uint8)
    h, w = data.shape
    header = bytearray(b"P5\n")
    if comment:
        for line in str(comment).splitlines():
            header += f"# {line}\n".encode("ascii")
    header += f"{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(bytes(header))
        f.write(data.tobytes())


def read_pgm(path):
    """Read a binary PGM file, returning a uint8 array of shape (h, w).

    Raises ValueError naming the file for a malformed or truncated file.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary (P5) PGM file")
    # Header tokens: magic, width, height, maxval; comments run to end of line.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header: its "
                             f"{len(blob)} bytes end before width, height "
                             "and maxval")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        w, h, maxval = (plain_int(t.decode()) for t in tokens)
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header {tokens}") from None
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}: bad PGM size {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    available = max(len(blob) - pos, 0)
    if available < w * h:
        raise ValueError(f"{path}: truncated PGM pixel data: expected "
                         f"{w * h} bytes, got {available}")
    data = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    return data.reshape(h, w).copy()


def frame_filename(finger_id, seq):
    return f"frame_{finger_id}_{seq:06d}.pgm"


def iter_frame_files(directory):
    """Return the (finger_id, seq, path) of each frame PGM in a directory,
    as a list sorted by (finger_id, seq) so streams replay in capture
    order. Raises ValueError naming both files when two names read as one
    frame (`frame_1_1.pgm` and `frame_1_000001.pgm`).
    """
    entries = []
    for p in Path(directory).iterdir():
        m = _FRAME_RE.fullmatch(p.name)
        if m:
            entries.append((int(m.group(1)), int(m.group(2)), p))
    entries.sort()
    for (f1, s1, p1), (f2, s2, p2) in zip(entries, entries[1:]):
        if (f1, s1) == (f2, s2):
            raise ValueError(f"{p1} and {p2} are both frame {s1} of "
                             f"finger {f1}")
    return entries
