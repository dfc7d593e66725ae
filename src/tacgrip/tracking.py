"""Contact-center time series and inter-frame displacement.

The displacement D(t) between consecutive contact centers, converted to
mm through the pixel scale, is the controller's core signal.
"""

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

from .errors import plain_float


@dataclass(frozen=True)
class ContactTrack:
    """Per-finger time series of contact centers and displacements.

    displacements[i] is the mm distance between centers[i] and
    centers[i+1], so it belongs to timestamps[i+1]. A single-entry track
    has no displacement yet. Values are finite and timestamps strictly
    increase: append, the one way a sample gets in, enforces both. The
    constructor takes the finger alone, and the frozen fields cannot be
    rebound to lists that skipped those checks.
    """

    finger_id: int = 1
    timestamps: List[float] = field(default_factory=list, init=False)
    centers: List[Tuple[float, float]] = field(default_factory=list,
                                               init=False)
    displacements: List[float] = field(default_factory=list, init=False)
    # Suffix-maximum index, kept by append: the indices of the
    # displacements greater than every later one, so their values
    # strictly decrease.
    _peaks: List[int] = field(default_factory=list, init=False, repr=False,
                              compare=False)

    def __len__(self):
        return len(self.centers)

    def append(self, timestamp, center, displacement=None):
        """Add a sample; displacement is None on the first, given on
        every later one. Raises ValueError, changing nothing, on a
        misaligned or non-finite value, then on a time that does not
        advance."""
        t = float(timestamp)
        x, y = float(center[0]), float(center[1])
        d = None if displacement is None else float(displacement)
        last = self.timestamps[-1] if self.timestamps else None
        if (d is None) != (last is None):
            raise ValueError("d_mm must be empty on the first row and "
                             "present on every later one")
        # A sum of finite terms is finite unless it overflows.
        if not math.isfinite(t + x + y + (d or 0.0)):
            for name, v in zip(("timestamp", "x", "y", "d_mm"), (t, x, y, d)):
                if v is not None and not math.isfinite(v):
                    raise ValueError(f"{name} {v} is not finite")
        if last is not None and t <= last:
            raise ValueError(
                f"timestamp {t} does not advance past {last}")
        self.timestamps.append(t)
        self.centers.append((x, y))
        if d is not None:
            disps, peaks = self.displacements, self._peaks
            while peaks and disps[peaks[-1]] <= d:
                peaks.pop()
            peaks.append(len(disps))
            disps.append(d)

    def max_displacement_from(self, lo):
        """max(displacements[lo:]) for lo >= 0, or None when that slice
        is empty, in O(log N): the first suffix maximum at or after lo
        is the largest value there."""
        peaks = self._peaks
        k = bisect_left(peaks, lo)
        return self.displacements[peaks[k]] if k < len(peaks) else None


def track_displacement(track, new_center, timestamp, config):
    """Append a center with D = pixel_scale_s * |new - prev| mm to the
    previous one, by ContactTrack.append. Returns the track."""
    x, y = float(new_center[0]), float(new_center[1])
    d = None
    if track.centers:
        px, py = track.centers[-1]
        # CPython's complex abs calls libm hypot, as np.hypot does, so D
        # has the same bits without numpy's scalar overhead; math.hypot
        # has its own algorithm and differs in the last bit on some pairs.
        # Where hypot overflows, np.hypot gives inf, which append refuses;
        # complex abs raises instead.
        try:
            d = config.pixel_scale_s * abs(complex(x - px, y - py))
        except OverflowError:
            d = math.inf
    track.append(timestamp, (x, y), d)
    return track


def write_track_csv(track, path):
    """Track CSV: t, x, y, d_mm (d_mm empty on the first row)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "d_mm"])
        for i, (t, (x, y)) in enumerate(zip(track.timestamps, track.centers)):
            d = f"{track.displacements[i - 1]:.9f}" if i > 0 else ""
            writer.writerow([f"{t:.6f}", f"{x:.4f}", f"{y:.4f}", d])


def read_track_csv(path, finger_id=1):
    """Read a track CSV written by write_track_csv. Raises ValueError
    naming the file and row for bytes that are not UTF-8 text, another
    header, a row of over four cells or one that does not parse as
    numbers or that append refuses."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: row {row}: byte {data[exc.start]:#04x} "
                         f"is not UTF-8 text") from None
    track = ContactTrack(finger_id=finger_id)
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "x", "y", "d_mm"]:
            raise ValueError(f"{path}: row 1: not a track CSV header "
                             f"t,x,y,d_mm, got {header}")
        for row in reader:
            if not row:
                continue
            where = f"{path}: row {reader.line_num}"
            if len(row) > 4:
                raise ValueError(f"{where}: {len(row)} cells, want at most "
                                 f"t, x, y, d_mm, got {row}")
            try:
                t, x, y = (plain_float(cell) for cell in row[:3])
                d = plain_float(row[3]) if len(row) > 3 and row[3] != "" else None
            except ValueError:
                raise ValueError(f"{where}: need numeric t, x, y[, d_mm], "
                                 f"got {row}")
            try:
                track.append(t, (x, y), d)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return track
