"""Constant-curvature finger kinematics and workspace estimation.

Each pneumatic joint maps chamber pressures linearly to a bend angle
(and, for the 3-chamber dexterous joint, an extension), giving a
constant-curvature arc segment. A finger chain is its joints in
assembly order, and forward kinematics composes their transforms in
that order; the workspace is the convex hull of tip positions over a
gridded pressure box.
"""

import csv
import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import PressureOutOfRangeError
from .plant import PRESSURE_MAX, PRESSURE_MIN


# Joint geometry, mm. A joint is one connector plate of thickness t and
# an actuator of length h; the chain adds a final tip plate, so a
# two-joint finger rests at 3t + 2h.
CONNECTOR_THICKNESS_T = 2.0
ACTUATOR_LENGTH_H = 26.0
SEGMENT_LENGTH = CONNECTOR_THICKNESS_T + ACTUATOR_LENGTH_H

# Symmetric clamp on a joint's bend angle, degrees.
ANGLE_LIMIT_DEG = 90.0


@dataclass
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

    @property
    def chamber_count(self):
        return 3 if self.kind == "dex" else 1


@dataclass(frozen=True)
class CcSegment:
    """One constant-curvature arc: curvature 1/mm, bending-plane angle
    rad, arc length mm."""

    kappa: float
    phi: float
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("segment length must be positive")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


def rot_joint(gain=1.2):
    return JointModel(kind="rot", pressure_to_angle_gain=gain)


def dex_joint(gain=0.9, extension_gain=0.1):
    return JointModel(kind="dex", pressure_to_angle_gain=gain,
                      pressure_to_extension_gain=extension_gain)


@dataclass
class FingerChain:
    """A finger's joints in assembly order, base to tip."""

    joints: List[JointModel]

    @property
    def chamber_count(self):
        return sum(j.chamber_count for j in self.joints)


def dex_rot_chain():
    return FingerChain(joints=[dex_joint(), rot_joint()])


def rot_dex_chain():
    return FingerChain(joints=[rot_joint(), dex_joint()])


def pressure_to_cc(joint, pressures):
    """Map chamber pressures (kPa) to a constant-curvature segment.

    Bend angles clamp to ANGLE_LIMIT_DEG; zero pressure gives a straight
    segment of SEGMENT_LENGTH.
    """
    pressures = np.atleast_1d(np.asarray(pressures, dtype=np.float64))
    if pressures.shape != (joint.chamber_count,):
        raise ValueError(
            f"{joint.kind} joint takes {joint.chamber_count} pressures, "
            f"got {pressures.shape}"
        )
    for p in pressures:
        if p < PRESSURE_MIN or p > PRESSURE_MAX:
            raise PressureOutOfRangeError(
                f"chamber pressure {p} kPa outside "
                f"[{PRESSURE_MIN}, {PRESSURE_MAX}]")

    if joint.kind == "rot":
        theta_deg = float(np.clip(joint.pressure_to_angle_gain * pressures[0],
                                  -ANGLE_LIMIT_DEG, ANGLE_LIMIT_DEG))
        phi = 0.0
        length = SEGMENT_LENGTH
    else:
        tx = joint.pressure_to_angle_gain * pressures[0]
        ty = joint.pressure_to_angle_gain * pressures[1]
        theta_deg = min(float(np.hypot(tx, ty)), ANGLE_LIMIT_DEG)
        phi = math.atan2(ty, tx) if theta_deg != 0.0 else 0.0
        extension = joint.pressure_to_extension_gain * float(pressures.mean())
        length = SEGMENT_LENGTH + extension
        if length <= 0:
            raise ValueError("extension collapsed the segment length")

    theta = math.radians(theta_deg)
    kappa = theta / length
    return CcSegment(kappa=kappa, phi=phi, length=length)


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0, 0.0],
                     [s, c, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def translation(x, y, z):
    t = np.eye(4)
    t[:3, 3] = (x, y, z)
    return t


def cc_transform(segment):
    """Homogeneous transform of one arc: rotate the bending plane into
    x-z, sweep a circular arc of angle kappa*length, rotate back.

    Near kappa = 0 the chord terms switch to a 4th-order series, so the
    straight-segment limit is smooth.
    """
    theta = segment.kappa * segment.length
    if abs(theta) < 1e-6:
        # Series of (1-cos t)/kappa and sin t / kappa around t = 0.
        x = segment.length * (theta / 2.0 - theta ** 3 / 24.0)
        z = segment.length * (1.0 - theta ** 2 / 6.0 + theta ** 4 / 120.0)
    else:
        x = (1.0 - math.cos(theta)) / segment.kappa
        z = math.sin(theta) / segment.kappa

    ct, st = math.cos(theta), math.sin(theta)
    arc = np.array([[ct, 0.0, st, x],
                    [0.0, 1.0, 0.0, 0.0],
                    [-st, 0.0, ct, z],
                    [0.0, 0.0, 0.0, 1.0]])
    return _rot_z(segment.phi) @ arc @ _rot_z(-segment.phi)


def split_pressures(chain, pressures):
    """Split a flat pressure vector into per-joint arrays in chain order."""
    pressures = np.asarray(pressures, dtype=np.float64).ravel()
    if pressures.shape != (chain.chamber_count,):
        raise ValueError(
            f"chain takes {chain.chamber_count} pressures, got {len(pressures)}"
        )
    out, k = [], 0
    for joint in chain.joints:
        out.append(pressures[k : k + joint.chamber_count])
        k += joint.chamber_count
    return out


def finger_fk(chain, pressures):
    """Tip pose (4x4) for a flat pressure vector in chain order."""
    t = np.eye(4)
    for joint, p in zip(chain.joints, split_pressures(chain, pressures)):
        t = t @ cc_transform(pressure_to_cc(joint, p))
    # Final tip connector plate.
    return t @ translation(0.0, 0.0, CONNECTOR_THICKNESS_T)


def tip_position(chain, pressures):
    return finger_fk(chain, pressures)[:3, 3]


@dataclass
class WorkspaceResult:
    points: np.ndarray  # (K, 3) tip positions, mm
    hull_volume: float  # mm^3, 0 for degenerate clouds


def workspace(chain, samples_per_axis=9):
    """Grid the pressure box, run FK everywhere, hull the tip cloud."""
    if samples_per_axis < 2:
        raise ValueError("samples_per_axis must be >= 2")
    axes = [np.linspace(PRESSURE_MIN, PRESSURE_MAX, samples_per_axis)] \
        * chain.chamber_count
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    points = np.empty((flat.shape[0], 3))
    for i, pressures in enumerate(flat):
        points[i] = tip_position(chain, pressures)
    return WorkspaceResult(points=points, hull_volume=hull_volume(points))


def hull_volume(points):
    """Convex-hull volume; 0 when the cloud has no 3-D extent."""
    unique = np.unique(points.round(decimals=9), axis=0)
    if unique.shape[0] < 4:
        return 0.0
    if np.linalg.matrix_rank(unique - unique[0], tol=1e-9) < 3:
        return 0.0
    try:
        return float(ConvexHull(unique).volume)
    except QhullError:
        return 0.0


def write_workspace_csv(points, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z"])
        for x, y, z in points:
            writer.writerow([f"{x:.6f}", f"{y:.6f}", f"{z:.6f}"])
