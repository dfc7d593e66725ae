"""Constant-curvature finger kinematics and workspace estimation.

Each pneumatic joint maps chamber pressures linearly to a bend angle
(and, for the 3-chamber dexterous joint, an extension), giving a
constant-curvature arc segment. A finger chain is its joints in
assembly order, and forward kinematics composes their transforms in
that order; the workspace is the convex hull of tip positions over a
gridded pressure box.
"""

import csv
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import check_range
from .plant import PRESSURE_MAX, PRESSURE_MIN


# Joint geometry, mm. A joint is one connector plate of thickness t and
# an actuator of length h; the chain adds a final tip plate, so a
# two-joint finger rests at 3t + 2h.
CONNECTOR_THICKNESS_T = 2.0
ACTUATOR_LENGTH_H = 26.0
SEGMENT_LENGTH = CONNECTOR_THICKNESS_T + ACTUATOR_LENGTH_H

# Symmetric clamp on a joint's bend angle, degrees.
ANGLE_LIMIT_DEG = 90.0

# Samples per forward-kinematics block in `workspace`, and rows per
# block of a joint's arc stack. Each (n, 4, 4) stack of a block is
# 128 kB, so its temporaries stay under ~1 MB however large the grid.
FK_BLOCK = 1024

# Largest pressure grid `workspace` evaluates: 64 samples per axis on a
# 4-chamber chain, whose (K, 3) tip cloud alone takes 403 MB. The arc
# stacks it holds whole, one per joint after the base, are then at most
# one 3-chamber joint's: 64^3 x 128 B = 33.5 MB.
MAX_WORKSPACE_SAMPLES = 2 ** 24

# Largest |gain| of a joint per kPa: it reaches the 90 degree clamp at
# 9e-5 kPa, and gain x 57 kPa stays finite (1e308 overflowed at 10 kPa).
_MAX_GAIN = 1e6


@dataclass(frozen=True)
class JointModel:
    """Linear pressure-to-curvature model for one joint.

    kind "rot": 1 chamber bending in the fixed x-z plane.
    kind "dex": 3 chambers; chambers 0 and 1 bend about orthogonal axes
    and the mean of all three drives extension.
    """

    kind: str
    pressure_to_angle_gain: float  # degrees per kPa, per actuated axis
    pressure_to_extension_gain: float = 0.0  # mm per kPa (dex only)

    def __post_init__(self):
        if self.kind not in ("rot", "dex"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        for name in ("pressure_to_angle_gain", "pressure_to_extension_gain"):
            check_range(name, getattr(self, name), lo=-_MAX_GAIN, hi=_MAX_GAIN)

    @property
    def chamber_count(self):
        return 3 if self.kind == "dex" else 1


def rot_joint(gain=1.2):
    return JointModel(kind="rot", pressure_to_angle_gain=gain)


def dex_joint(gain=0.9, extension_gain=0.1):
    return JointModel(kind="dex", pressure_to_angle_gain=gain,
                      pressure_to_extension_gain=extension_gain)


@dataclass(frozen=True)
class FingerChain:
    """A finger's joints in assembly order, base to tip."""

    joints: Tuple[JointModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        if not self.joints:
            raise ValueError("a finger chain needs at least one joint")
        for i, joint in enumerate(self.joints):
            if not isinstance(joint, JointModel):
                raise ValueError(f"joint {i} of a finger chain is a "
                                 f"{type(joint).__name__}, not a JointModel")

    @property
    def chamber_count(self):
        return sum(j.chamber_count for j in self.joints)


def dex_rot_chain():
    return FingerChain(joints=[dex_joint(), rot_joint()])


def rot_dex_chain():
    return FingerChain(joints=[rot_joint(), dex_joint()])


def _joint_arcs(joint, pressures):
    """(kappa 1/mm, phi rad, length mm) arrays of one joint's arcs for an
    (N, chamber_count) pressure array (kPa). Bend angles clamp to
    ANGLE_LIMIT_DEG; zero pressure gives a straight segment of
    SEGMENT_LENGTH. A pressure outside [PRESSURE_MIN, PRESSURE_MAX], NaN
    and infinities included, raises ValueError."""
    inside = (pressures >= PRESSURE_MIN) & (pressures <= PRESSURE_MAX)
    if not inside.all():
        p = pressures[~inside][0]
        raise ValueError(
            f"chamber pressure {p} kPa outside "
            f"[{PRESSURE_MIN}, {PRESSURE_MAX}]")

    gain = joint.pressure_to_angle_gain
    if joint.kind == "rot":
        theta_deg = np.clip(gain * pressures[:, 0],
                            -ANGLE_LIMIT_DEG, ANGLE_LIMIT_DEG)
        phi = np.zeros_like(theta_deg)
        length = np.full_like(theta_deg, SEGMENT_LENGTH)
    else:
        tx = gain * pressures[:, 0]
        ty = gain * pressures[:, 1]
        theta_deg = np.minimum(np.hypot(tx, ty), ANGLE_LIMIT_DEG)
        # atan2 of signed zeros is 0 or +-pi; a straight segment has phi 0.
        phi = np.where(theta_deg != 0.0, np.arctan2(ty, tx), 0.0)
        extension = joint.pressure_to_extension_gain * pressures.mean(axis=1)
        length = SEGMENT_LENGTH + extension
        if (length <= 0).any():
            raise ValueError("extension collapsed the segment length")
    return np.radians(theta_deg) / length, phi, length


def _rot_z(angle):
    """(N, 4, 4) rotations about z, one per angle."""
    c, s = np.cos(angle), np.sin(angle)
    t = np.zeros((len(angle), 4, 4))
    t[:, 0, 0] = t[:, 1, 1] = c
    t[:, 0, 1], t[:, 1, 0] = -s, s
    t[:, 2, 2] = t[:, 3, 3] = 1.0
    return t


def translation(x, y, z):
    t = np.eye(4)
    t[:3, 3] = (x, y, z)
    return t


def _arc_transforms(kappa, phi, length):
    """(N, 4, 4) transforms of N arcs given as arrays: rotate the bending
    plane into x-z, sweep a circular arc of angle kappa*length, rotate
    back. Where |kappa*length| < 1e-6 the chord terms switch to a
    4th-order series, so the straight-segment limit is smooth."""
    theta = kappa * length
    ct, st = np.cos(theta), np.sin(theta)
    small = np.abs(theta) < 1e-6
    # Series of (1-cos t)/kappa and sin t / kappa around t = 0.
    safe_kappa = np.where(small, 1.0, kappa)
    x = np.where(small, length * (theta / 2.0 - theta ** 3 / 24.0),
                 (1.0 - ct) / safe_kappa)
    z = np.where(small,
                 length * (1.0 - theta ** 2 / 6.0 + theta ** 4 / 120.0),
                 st / safe_kappa)

    arc = np.zeros((len(theta), 4, 4))
    arc[:, 0, 0] = arc[:, 2, 2] = ct
    arc[:, 0, 2], arc[:, 2, 0] = st, -st
    arc[:, 0, 3], arc[:, 2, 3] = x, z
    arc[:, 1, 1] = arc[:, 3, 3] = 1.0
    return _rot_z(phi) @ arc @ _rot_z(-phi)


def split_pressures(chain, pressures):
    """Column blocks of an (N, chamber_count) pressure array, one per
    joint in chain order."""
    pressures = np.asarray(pressures, dtype=np.float64)
    if pressures.ndim != 2 or pressures.shape[1] != chain.chamber_count:
        raise ValueError(f"expected an (N, {chain.chamber_count}) pressure "
                         f"array, got shape {pressures.shape}")
    out, k = [], 0
    for joint in chain.joints:
        out.append(pressures[:, k : k + joint.chamber_count])
        k += joint.chamber_count
    return out


def finger_fk_batch(chain, pressures):
    """Tip poses (N, 4, 4) for an (N, chamber_count) pressure array whose
    rows are flat pressure vectors in chain order."""
    return _compose([_arc_transforms(*_joint_arcs(joint, p)) for joint, p
                     in zip(chain.joints, split_pressures(chain, pressures))])


def _compose(stacks):
    """Tip poses (N, 4, 4) from each joint's (N, 4, 4) arc transforms in
    chain order: the base frame, each arc in turn, then the tip plate."""
    t = np.eye(4)
    for arcs in stacks:
        t = t @ arcs
    # Final tip connector plate.
    return t @ translation(0.0, 0.0, CONNECTOR_THICKNESS_T)


def tip_position(chain, pressures):
    """Tip position (3,) for a flat pressure vector in chain order. Only
    perfbench's `workspace` speed probe calls it, by name; it goes when
    the benchmark refresh (ROADMAP item 1) hooks finger_fk_batch."""
    return finger_fk_batch(chain, np.reshape(pressures, (1, -1)))[0, :3, 3]


@dataclass
class WorkspaceResult:
    points: np.ndarray  # (K, 3) tip positions, mm
    hull_volume: float  # mm^3, 0 for degenerate clouds


def workspace(chain, samples_per_axis=9):
    """Grid the pressure box, run FK everywhere, hull the tip cloud.

    A joint's arc depends on its own chambers alone, so the grid is the
    product of the joints' own grids, in row-major order. The joints
    after the base are evaluated once each over their own grid; the base
    joint, whose index changes slowest, over the few indices each
    FK_BLOCK of samples spans. Each block then gathers its arcs by index
    and composes them as finger_fk_batch does, so every point is the
    bytes finger_fk_batch gives for that sample. The grid is never held
    whole; grids above MAX_WORKSPACE_SAMPLES are refused before anything
    is allocated.
    """
    try:
        n = operator.index(samples_per_axis)
    except TypeError:
        raise ValueError("samples_per_axis must be an integer, got "
                         f"{samples_per_axis!r}") from None
    if n < 2:
        raise ValueError("samples_per_axis must be >= 2")
    count = n ** chain.chamber_count
    if count > MAX_WORKSPACE_SAMPLES:
        raise ValueError(
            f"{n} samples per axis over {chain.chamber_count} chambers is "
            f"{count} samples, above the cap of {MAX_WORKSPACE_SAMPLES}")

    axis = np.linspace(PRESSURE_MIN, PRESSURE_MAX, n)
    base, *rest = chain.joints
    sizes = [n ** joint.chamber_count for joint in chain.joints]
    stacks = [_grid_arcs(joint, axis, 0, size)
              for joint, size in zip(rest, sizes[1:])]
    points = np.empty((count, 3))
    for start in range(0, count, FK_BLOCK):
        stop = min(start + FK_BLOCK, count)
        first, *index = np.unravel_index(np.arange(start, stop), sizes)
        base_arcs = _grid_arcs(base, axis, first[0], first[-1] + 1)
        poses = _compose([base_arcs[first - first[0]]]
                         + [arcs[i] for arcs, i in zip(stacks, index)])
        points[start:stop] = poses[:, :3, 3]
    return WorkspaceResult(points=points, hull_volume=hull_volume(points))


def _grid_arcs(joint, axis, start, stop):
    """(stop - start, 4, 4) arc transforms of one joint at the flat
    indices start..stop-1 of its own row-major grid of `axis` pressures
    per chamber, built FK_BLOCK rows at a time."""
    shape = (len(axis),) * joint.chamber_count
    arcs = np.empty((stop - start, 4, 4))
    for lo in range(start, stop, FK_BLOCK):
        hi = min(lo + FK_BLOCK, stop)
        index = np.unravel_index(np.arange(lo, hi), shape)
        arcs[lo - start:hi - start] = _arc_transforms(
            *_joint_arcs(joint, axis[np.stack(index, axis=1)]))
    return arcs


def hull_volume(points):
    """Convex-hull volume; 0 for fewer than four points or when Qhull
    finds the cloud flat (a line, a plane). Qhull takes coincident
    points as they are, and may give a sliver of volume, not 0, to a
    plane whose points stray from it by rounding error."""
    if points.shape[0] < 4:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def write_workspace_csv(points, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z"])
        for x, y, z in points:
            writer.writerow([f"{x:.6f}", f"{y:.6f}", f"{z:.6f}"])
