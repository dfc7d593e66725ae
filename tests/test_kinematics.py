import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from tacgrip import kinematics
from tacgrip.kinematics import (ACTUATOR_LENGTH_H, ANGLE_LIMIT_DEG,
                                CONNECTOR_THICKNESS_T, FK_BLOCK,
                                MAX_WORKSPACE_SAMPLES, SEGMENT_LENGTH,
                                FingerChain, JointModel, dex_joint,
                                dex_rot_chain, finger_fk_batch, hull_volume,
                                rot_dex_chain, rot_joint, split_pressures,
                                tip_position, workspace, write_workspace_csv)
from tacgrip.plant import PRESSURE_MAX, PRESSURE_MIN


def test_zero_pressure_segment_is_straight():
    kappa, phi, length = kinematics._joint_arcs(rot_joint(), np.zeros((1, 1)))
    assert (kappa[0], phi[0], length[0]) == (0.0, 0.0, SEGMENT_LENGTH)
    t = kinematics._arc_transforms(kappa, phi, length)[0]
    assert np.allclose(t[:3, :3], np.eye(3), atol=1e-15)
    assert np.allclose(t[:3, 3], [0.0, 0.0, SEGMENT_LENGTH], atol=1e-15)


def test_quarter_circle_chord():
    # kappa*length = pi/2 bends the arc to x = z = 2L/pi exactly
    length = SEGMENT_LENGTH
    tip = kinematics._arc_transforms(np.array([(math.pi / 2.0) / length]),
                                     np.zeros(1), np.array([length]))[0, :3, 3]
    expect = np.array([2.0 * length / math.pi, 0.0, 2.0 * length / math.pi])
    assert np.abs(tip - expect).max() < 1e-6


def test_rotation_blocks_orthonormal():
    rng = np.random.default_rng(11)
    poses = finger_fk_batch(dex_rot_chain(), rng.uniform(-57.0, 50.0, (50, 4)))
    for r in poses[:, :3, :3]:
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


def test_series_branch_continuous_at_cutoff():
    # row 0 bends by theta, row 1 is straight
    length, phi = np.full(2, 28.0), np.full(2, 0.3)
    for theta in (9.999e-7, 1.001e-6):
        t = kinematics._arc_transforms(np.array([theta / 28.0, 0.0]), phi,
                                       length)
        assert np.linalg.norm(t[0, :3, 3] - t[1, :3, 3]) < 1e-4


def test_phi_rotates_bending_plane():
    t0, t90 = kinematics._arc_transforms(
        np.full(2, 0.02), np.array([0.0, math.pi / 2.0]),
        np.full(2, 28.0))[:, :3, 3]
    # same arc swept in the y-z plane instead of x-z
    assert t90[0] == pytest.approx(0.0, abs=1e-12)
    assert t90[1] == pytest.approx(t0[0], abs=1e-12)
    assert t90[2] == pytest.approx(t0[2], abs=1e-12)


def test_rot_joint_gain_and_clamp():
    # 30 deg, then 120 deg requested
    kappa, _, length = kinematics._joint_arcs(rot_joint(gain=3.0),
                                              np.array([[10.0], [40.0]]))
    assert kappa[0] * length[0] == pytest.approx(math.radians(30.0))
    assert kappa[1] * length[1] == pytest.approx(math.radians(90.0))


def test_dex_joint_two_axis_bend_and_extension():
    joint = dex_joint(gain=0.9, extension_gain=0.1)
    kappa, phi, length = kinematics._joint_arcs(joint,
                                                np.array([[30.0, 40.0, 0.0]]))
    theta = math.degrees(kappa[0] * length[0])
    assert theta == pytest.approx(0.9 * 50.0)  # hypot(27, 36) = 45
    assert phi[0] == pytest.approx(math.atan2(36.0, 27.0))
    assert length[0] == pytest.approx(SEGMENT_LENGTH + 0.1 * (70.0 / 3.0))


def test_dex_pure_extension():
    joint = dex_joint(extension_gain=0.1)
    kappa, _, length = kinematics._joint_arcs(joint,
                                              np.array([[0.0, 0.0, 30.0]]))
    assert kappa[0] == 0.0
    assert length[0] == pytest.approx(SEGMENT_LENGTH + 1.0)


def test_pressure_limits_enforced():
    with pytest.raises(ValueError, match="chamber pressure 50.1 kPa outside"):
        kinematics._joint_arcs(rot_joint(), np.array([[50.1]]))
    with pytest.raises(ValueError, match="chamber pressure -57.1 kPa outside"):
        kinematics._joint_arcs(dex_joint(), np.array([[0.0, -57.1, 0.0]]))


def test_chamber_count_enforced():
    with pytest.raises(ValueError, match=re.escape("(N, 1) pressure array")):
        finger_fk_batch(FingerChain([rot_joint()]), np.ones((1, 2)))
    with pytest.raises(ValueError, match=re.escape("(N, 3) pressure array")):
        finger_fk_batch(FingerChain([dex_joint()]), np.ones((1, 1)))


def test_extension_cannot_collapse_segment():
    joint = dex_joint(gain=0.0, extension_gain=1.0)
    with pytest.raises(ValueError, match="collapsed"):
        kinematics._joint_arcs(joint, np.full((1, 3), -57.0))


def test_a_chain_needs_a_joint_and_cannot_change():
    with pytest.raises(ValueError, match="at least one joint"):
        FingerChain([])
    joints = [dex_joint(), rot_joint()]
    chain = FingerChain(joints)
    joints.append(rot_joint())
    assert chain.joints == (dex_joint(), rot_joint())
    assert chain.chamber_count == 4
    with pytest.raises(AttributeError):
        chain.joints.append(rot_joint())
    with pytest.raises(dataclasses.FrozenInstanceError):
        chain.joints = joints


@pytest.mark.parametrize("joints, message", [
    (["rot"], "joint 0 of a finger chain is a str"),
    ([rot_joint(), None], "joint 1 of a finger chain is a NoneType"),
    ([dex_joint(), rot_dex_chain()], "joint 1 of a finger chain is a "
                                     "FingerChain"),
])
def test_a_chain_refuses_a_joint_that_is_not_a_joint_model(joints, message):
    # FingerChain(["rot"]) built, and workspace then failed with "'str'
    # object has no attribute 'chamber_count'".
    with pytest.raises(ValueError, match=f"^{message}, not a JointModel$"):
        FingerChain(joints)


@pytest.mark.parametrize("field, value", [
    ("pressure_to_extension_gain", math.nan),
    ("pressure_to_angle_gain", math.nan),
    ("pressure_to_angle_gain", math.inf),
    ("pressure_to_angle_gain", 1e308)])
def test_joint_gains_are_checked(field, value):
    # Each gain once went through: NaN tips, NaN points that failed in
    # Qhull, inf * 0 at 0 kPa, an overflow at 10 kPa.
    with pytest.raises(ValueError, match=re.escape(
            f"{field} = {value!r} is not a finite number in "
            "[-1e+06, 1e+06]")):
        JointModel("dex", **{"pressure_to_angle_gain": 0.9, field: value})


def test_the_largest_gains_keep_every_arc_finite():
    for gain in (1e6, -1e6):
        chain = FingerChain([dex_joint(gain=gain, extension_gain=0.0),
                             rot_joint(gain=gain)])
        poses = finger_fk_batch(chain, np.array([
            [PRESSURE_MIN, PRESSURE_MAX, 0.0, PRESSURE_MIN],
            [9e-5, 0.0, 0.0, -9e-5], [0.0, 0.0, 0.0, 0.0]]))
        assert np.isfinite(poses).all()
        assert np.isfinite(workspace(chain, samples_per_axis=2).hull_volume)


def test_split_pressures_orders_by_chain():
    chain = dex_rot_chain()
    dex_p, rot_p = split_pressures(chain, [[1.0, 2.0, 3.0, 4.0]])
    assert dex_p.tolist() == [[1.0, 2.0, 3.0]]
    assert rot_p.tolist() == [[4.0]]
    chain = rot_dex_chain()
    rot_p, dex_p = split_pressures(chain, [[1.0, 2.0, 3.0, 4.0]])
    assert rot_p.tolist() == [[1.0]]
    assert dex_p.tolist() == [[2.0, 3.0, 4.0]]
    for bad in ([[1.0, 2.0]], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match="pressure array"):
            split_pressures(chain, bad)


def test_rest_stack_height_independent_of_order():
    rest = np.array([0.0, 0.0,
                     3 * CONNECTOR_THICKNESS_T + 2 * ACTUATOR_LENGTH_H])
    zero = np.zeros(4)
    assert np.allclose(tip_position(dex_rot_chain(), zero), rest, atol=1e-12)
    assert np.allclose(tip_position(rot_dex_chain(), zero), rest, atol=1e-12)


def test_joint_order_changes_the_tip():
    # the transforms do not commute once either joint bends
    p = [20.0, -10.0, 5.0, 30.0]
    a = tip_position(dex_rot_chain(), p)
    b = tip_position(rot_dex_chain(), [30.0, 20.0, -10.0, 5.0])
    assert np.linalg.norm(a - b) > 1.0


def test_workspace_ordering_dexrot_exceeds_rotdex():
    dexrot = workspace(dex_rot_chain(), samples_per_axis=5)
    rotdex = workspace(rot_dex_chain(), samples_per_axis=5)
    assert dexrot.hull_volume > 0.0
    assert rotdex.hull_volume > 0.0
    assert rotdex.hull_volume < dexrot.hull_volume


def test_workspace_hull_volumes_pinned():
    # The 9-per-axis hull volumes of both chains, in mm^3.
    dexrot = workspace(dex_rot_chain(), samples_per_axis=9)
    rotdex = workspace(rot_dex_chain(), samples_per_axis=9)
    assert dexrot.hull_volume == pytest.approx(137602.63592700212, rel=1e-12)
    assert rotdex.hull_volume == pytest.approx(67219.12613204027, rel=1e-12)


def test_hull_volume_takes_coincident_points():
    cube = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                     for z in (0.0, 1.0)])
    assert hull_volume(np.repeat(cube, 3, axis=0)) == pytest.approx(1.0,
                                                                   rel=1e-12)
    assert hull_volume(np.tile([[1.0, 2.0, 3.0]], (10, 1))) == 0.0


def test_hull_volume_ignores_point_order():
    points = workspace(dex_rot_chain(), samples_per_axis=9).points
    permuted = np.random.default_rng(7).permutation(points)
    assert hull_volume(permuted) == pytest.approx(hull_volume(points),
                                                  rel=1e-10)


def test_workspace_deterministic():
    a = workspace(dex_rot_chain(), samples_per_axis=3)
    b = workspace(dex_rot_chain(), samples_per_axis=3)
    assert np.array_equal(a.points, b.points)
    assert a.hull_volume == b.hull_volume


def test_workspace_sample_validation():
    with pytest.raises(ValueError):
        workspace(dex_rot_chain(), samples_per_axis=1)


def test_hull_volume_degenerate_clouds():
    assert hull_volume(np.zeros((3, 3))) == 0.0
    line = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    assert hull_volume(line) == 0.0
    plane = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert hull_volume(plane) == 0.0
    cube = np.array([[float(x), float(y), float(z)]
                     for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert hull_volume(cube) == pytest.approx(1.0, rel=1e-12)


def test_write_workspace_csv(tmp_path):
    pts = np.array([[1.25, -2.5, 3.0], [0.0, 0.0, 0.0]])
    path = tmp_path / "ws.csv"
    write_workspace_csv(pts, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z"
    assert lines[1].startswith("1.250000,-2.500000,3.000000")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind,chamber", [("rot", 0), ("dex", 0), ("dex", 1),
                                          ("dex", 2)])
def test_non_finite_pressure_rejected(kind, chamber, value):
    joint = rot_joint() if kind == "rot" else dex_joint()
    pressures = [0.0] * joint.chamber_count
    pressures[chamber] = value
    with pytest.raises(ValueError,
                       match=re.escape(f"pressure {value} kPa outside")):
        kinematics._joint_arcs(joint, np.array([pressures]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 50.5])
def test_batch_rejects_one_bad_row(value):
    batch = np.zeros((8, 4))
    batch[5, 2] = value
    for chain in (dex_rot_chain(), rot_dex_chain()):
        with pytest.raises(ValueError,
                           match=re.escape(f"pressure {value} kPa outside")):
            finger_fk_batch(chain, batch)


@pytest.mark.parametrize("samples", [2.5, "9", None])
def test_workspace_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="integer"):
        workspace(dex_rot_chain(), samples_per_axis=samples)


def test_workspace_sample_cap():
    # 10^4 per axis is 10^16 samples: refused from the Python-int count
    # alone, before any array is allocated.
    assert (10 ** 4) ** 4 > MAX_WORKSPACE_SAMPLES
    with pytest.raises(ValueError, match="cap"):
        workspace(dex_rot_chain(), samples_per_axis=10 ** 4)


# -- reference: the per-sample forward kinematics the batched path replaced --

def _ref_segment(joint, pressures):
    """(kappa, phi, length) of one joint for one in-range vector."""
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
    return math.radians(theta_deg) / length, phi, length


def _ref_rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0, 0.0],
                     [s, c, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def _ref_transform(kappa, phi, length):
    theta = kappa * length
    if abs(theta) < 1e-6:
        x = length * (theta / 2.0 - theta ** 3 / 24.0)
        z = length * (1.0 - theta ** 2 / 6.0 + theta ** 4 / 120.0)
    else:
        x = (1.0 - math.cos(theta)) / kappa
        z = math.sin(theta) / kappa
    ct, st = math.cos(theta), math.sin(theta)
    arc = np.array([[ct, 0.0, st, x],
                    [0.0, 1.0, 0.0, 0.0],
                    [-st, 0.0, ct, z],
                    [0.0, 0.0, 0.0, 1.0]])
    return _ref_rot_z(phi) @ arc @ _ref_rot_z(-phi)


def _ref_fk(chain, pressures):
    pressures = np.asarray(pressures, dtype=np.float64)
    t, k = np.eye(4), 0
    for joint in chain.joints:
        p = pressures[k : k + joint.chamber_count]
        t = t @ _ref_transform(*_ref_segment(joint, p))
        k += joint.chamber_count
    tip = np.eye(4)
    tip[2, 3] = CONNECTOR_THICKNESS_T
    return t @ tip


def _ref_grid(chain, n):
    axes = [np.linspace(PRESSURE_MIN, PRESSURE_MAX, n)] * chain.chamber_count
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# Default gains never reach the 90 degree clamp inside the pressure box;
# these do, on both joint kinds.
def _clamping_chains():
    return [FingerChain(joints=[dex_joint(gain=2.0), rot_joint(gain=3.0)]),
            FingerChain(joints=[rot_joint(gain=3.0), dex_joint(gain=2.0)])]


# Per-joint edge cases: theta = 0 (signed zeros too, where atan2 is
# +-pi), theta inside the |theta| < 1e-6 series branch and just past it,
# the box ends, which clamp under the clamping gains, and pure extension.
_EDGE = {
    "rot": [[0.0], [-0.0], [1e-7], [-1e-7], [4.3e-5], [4.8e-5],
            [PRESSURE_MAX], [PRESSURE_MIN], [40.0]],
    "dex": [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, 5.0],
            [-0.0, -0.0, -0.0], [1e-7, 0.0, 0.0], [0.0, -1e-7, 0.0],
            [1e-7, 1e-7, 1e-7], [PRESSURE_MAX, PRESSURE_MAX, 0.0],
            [PRESSURE_MIN, 0.0, 0.0], [0.0, 0.0, 30.0],
            [0.0, 0.0, PRESSURE_MIN]],
}


def _property_vectors(chain, seed):
    rows = [sum(combo, []) for combo in itertools.product(
        *(_EDGE[j.kind] for j in chain.joints))]
    rows += [list(c) for c in itertools.product(
        (PRESSURE_MIN, PRESSURE_MAX), repeat=chain.chamber_count)]
    rng = np.random.default_rng(seed)
    rows += rng.uniform(PRESSURE_MIN, PRESSURE_MAX,
                        (200, chain.chamber_count)).tolist()
    return np.array(rows)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_workspace_matches_per_sample_reference(n):
    for chain in (dex_rot_chain(), rot_dex_chain()):
        expect = np.array([_ref_fk(chain, p)[:3, 3]
                           for p in _ref_grid(chain, n)])
        got = workspace(chain, samples_per_axis=n).points
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() < 1e-12


def _three_joint_chain():
    return FingerChain(joints=[rot_joint(), dex_joint(), rot_joint()])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("chain_index", range(5))
def test_workspace_is_the_whole_grid_batch_bit_for_bit(chain_index, n):
    # workspace evaluates each joint's arcs once on its own grid and
    # composes them by index; every point must keep the bytes of the
    # plain batch over the whole grid, in the same order.
    chain = ([dex_rot_chain(), rot_dex_chain()] + _clamping_chains()
             + [_three_joint_chain()])[chain_index]
    expect = finger_fk_batch(chain, _ref_grid(chain, n))[:, :3, 3]
    assert np.array_equal(workspace(chain, samples_per_axis=n).points, expect)


@pytest.mark.parametrize("chain, n", [
    (dex_rot_chain(), 20), (rot_dex_chain(), 20),
    (FingerChain(joints=[dex_joint()]), 40), (_three_joint_chain(), 8)])
def test_workspace_never_holds_the_grid(chain, n):
    # Beyond its tip cloud, workspace, hull volume included, holds one
    # arc stack per joint after the base, each on that joint's own grid,
    # and FK_BLOCK-row temporaries.
    stacks = sum(n ** j.chamber_count for j in chain.joints[1:]) * 128
    tracemalloc.start()
    try:
        points = workspace(chain, samples_per_axis=n).points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) > 2 * FK_BLOCK
    assert peak - points.nbytes <= stacks + 2 ** 21


@pytest.mark.parametrize("chain_index", range(4))
def test_batch_matches_per_sample_reference(chain_index):
    chain = ([dex_rot_chain(), rot_dex_chain()]
             + _clamping_chains())[chain_index]
    vectors = _property_vectors(chain, seed=chain_index)
    assert len(vectors) >= 200 + 16
    poses = finger_fk_batch(chain, vectors)
    for p, pose in zip(vectors, poses):
        assert np.abs(pose - _ref_fk(chain, p)).max() < 1e-12, p
    for joint, block in zip(chain.joints, split_pressures(chain, vectors)):
        arcs = np.stack(kinematics._joint_arcs(joint, block), axis=1)
        for jp, arc in zip(block, arcs):
            assert np.abs(arc - _ref_segment(joint, jp)).max() < 1e-12, \
                (joint.kind, jp)


def test_clamping_chains_reach_the_clamp():
    for chain in _clamping_chains():
        for joint in chain.joints:
            top = np.full((1, joint.chamber_count), PRESSURE_MAX)
            kappa, _, length = kinematics._joint_arcs(joint, top)
            assert math.degrees(kappa[0] * length[0]) == \
                pytest.approx(ANGLE_LIMIT_DEG)


def test_single_vector_fk_is_a_batch_row():
    rng = np.random.default_rng(17)
    for chain in (dex_rot_chain(), rot_dex_chain()):
        batch = rng.uniform(PRESSURE_MIN, PRESSURE_MAX, (50, 4))
        poses = finger_fk_batch(chain, batch)
        for p, pose in zip(batch, poses):
            assert np.abs(tip_position(chain, p) - pose[:3, 3]).max() < 1e-12
