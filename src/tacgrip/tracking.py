"""Contact-center time series and inter-frame displacement.

The displacement D(t) between consecutive contact centers, converted to
mm through the pixel scale, is the controller's core signal.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import NonMonotonicTimeError


@dataclass
class ContactTrack:
    """Per-finger time series of contact centers and displacements.

    displacements[i] is the mm distance between centers[i] and
    centers[i+1], so it belongs to timestamps[i+1]. A single-entry track
    has no displacement yet. Timestamps strictly increase, which the
    classifier's bisection relies on.
    """

    finger_id: int = 1
    timestamps: List[float] = field(default_factory=list)
    centers: List[Tuple[float, float]] = field(default_factory=list)
    displacements: List[float] = field(default_factory=list)

    def __len__(self):
        return len(self.centers)

    @property
    def last_timestamp(self):
        return self.timestamps[-1] if self.timestamps else None

    @property
    def latest_displacement(self):
        return self.displacements[-1] if self.displacements else None


def track_displacement(track, new_center, timestamp, config):
    """Append a center, computing the displacement to the previous one.

    D = pixel_scale_s * |new - prev| in mm. Mutates and returns the
    track. Raises NonMonotonicTime if the timestamp does not advance.
    """
    timestamp = float(timestamp)
    last = track.last_timestamp
    if last is not None and timestamp <= last:
        raise NonMonotonicTimeError(
            f"timestamp {timestamp} does not advance past {last}"
        )
    x, y = float(new_center[0]), float(new_center[1])
    if track.centers:
        px, py = track.centers[-1]
        d = config.pixel_scale_s * float(np.hypot(x - px, y - py))
        track.displacements.append(d)
    track.centers.append((x, y))
    track.timestamps.append(timestamp)
    return track


def write_track_csv(track, path):
    """Track CSV: t, x, y, d_mm (d_mm empty on the first row)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "d_mm"])
        for i, (t, (x, y)) in enumerate(zip(track.timestamps, track.centers)):
            d = f"{track.displacements[i - 1]:.9f}" if i > 0 else ""
            writer.writerow([f"{t:.6f}", f"{x:.4f}", f"{y:.4f}", d])


def read_track_csv(path, finger_id=1):
    """Read a track CSV written by write_track_csv.

    Raises ValueError naming the file and row for a row that does not
    parse as numbers, whose timestamp is not finite or does not advance
    past the previous row's (track_displacement rejects the same; the
    classifier bisects over the timestamps), or whose d_mm breaks the
    row alignment: the first row has none, every later row has one.
    """
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
            last = track.last_timestamp
            if (d is None) != (last is None):
                raise ValueError(
                    f"{where}: d_mm must be empty on the first row and "
                    f"present on every later one, got {row}"
                )
            if not math.isfinite(t):
                raise ValueError(f"{where}: timestamp {row[0]} is not finite")
            if last is not None and t <= last:
                raise ValueError(
                    f"{where}: timestamp {row[0]} does not advance past {last}"
                )
            track.timestamps.append(t)
            track.centers.append((x, y))
            if d is not None:
                track.displacements.append(d)
    return track
