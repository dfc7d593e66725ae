import math

import numpy as np
import pytest

from tacgrip.errors import PressureOutOfRangeError
from tacgrip.kinematics import (ACTUATOR_LENGTH_H, CONNECTOR_THICKNESS_T,
                                SEGMENT_LENGTH, CcSegment, cc_transform,
                                dex_joint, dex_rot_chain, finger_fk,
                                hull_volume, pressure_to_cc, rot_dex_chain,
                                rot_joint, split_pressures, tip_position,
                                workspace, write_workspace_csv)


def test_zero_pressure_segment_is_straight():
    seg = pressure_to_cc(rot_joint(), [0.0])
    assert seg.kappa == 0.0
    assert seg.phi == 0.0
    assert seg.length == SEGMENT_LENGTH
    t = cc_transform(seg)
    assert np.allclose(t[:3, :3], np.eye(3), atol=1e-15)
    assert np.allclose(t[:3, 3], [0.0, 0.0, seg.length], atol=1e-15)


def test_quarter_circle_chord():
    # kappa*length = pi/2 bends the arc to x = z = 2L/pi exactly
    length = SEGMENT_LENGTH
    seg = CcSegment(kappa=(math.pi / 2.0) / length, phi=0.0, length=length)
    tip = cc_transform(seg)[:3, 3]
    expect = np.array([2.0 * length / math.pi, 0.0, 2.0 * length / math.pi])
    assert np.abs(tip - expect).max() < 1e-6


def test_rotation_blocks_orthonormal():
    rng = np.random.default_rng(11)
    chain = dex_rot_chain()
    for _ in range(50):
        p = rng.uniform(-57.0, 50.0, 4)
        r = finger_fk(chain, p)[:3, :3]
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


def test_series_branch_continuous_at_cutoff():
    length = 28.0
    for theta in (9.999e-7, 1.001e-6):
        seg = CcSegment(kappa=theta / length, phi=0.3, length=length)
        straight = CcSegment(kappa=0.0, phi=0.3, length=length)
        delta = cc_transform(seg)[:3, 3] - cc_transform(straight)[:3, 3]
        assert np.linalg.norm(delta) < 1e-4


def test_phi_rotates_bending_plane():
    seg0 = CcSegment(kappa=0.02, phi=0.0, length=28.0)
    seg90 = CcSegment(kappa=0.02, phi=math.pi / 2.0, length=28.0)
    t0, t90 = cc_transform(seg0)[:3, 3], cc_transform(seg90)[:3, 3]
    # same arc swept in the y-z plane instead of x-z
    assert t90[0] == pytest.approx(0.0, abs=1e-12)
    assert t90[1] == pytest.approx(t0[0], abs=1e-12)
    assert t90[2] == pytest.approx(t0[2], abs=1e-12)


def test_rot_joint_gain_and_clamp():
    joint = rot_joint(gain=3.0)
    seg = pressure_to_cc(joint, [10.0])
    assert seg.kappa * seg.length == pytest.approx(math.radians(30.0))
    clamped = pressure_to_cc(joint, [40.0])  # 120 deg requested
    assert clamped.kappa * clamped.length == pytest.approx(math.radians(90.0))


def test_dex_joint_two_axis_bend_and_extension():
    joint = dex_joint(gain=0.9, extension_gain=0.1)
    seg = pressure_to_cc(joint, [30.0, 40.0, 0.0])
    theta = math.degrees(seg.kappa * seg.length)
    assert theta == pytest.approx(0.9 * 50.0)  # hypot(27, 36) = 45
    assert seg.phi == pytest.approx(math.atan2(36.0, 27.0))
    assert seg.length == pytest.approx(
        SEGMENT_LENGTH + 0.1 * (70.0 / 3.0))


def test_dex_pure_extension():
    joint = dex_joint(extension_gain=0.1)
    seg = pressure_to_cc(joint, [0.0, 0.0, 30.0])
    assert seg.kappa == 0.0
    assert seg.length == pytest.approx(SEGMENT_LENGTH + 1.0)


def test_pressure_limits_enforced():
    with pytest.raises(PressureOutOfRangeError):
        pressure_to_cc(rot_joint(), [50.1])
    with pytest.raises(PressureOutOfRangeError):
        pressure_to_cc(dex_joint(), [0.0, -57.1, 0.0])


def test_chamber_count_enforced():
    with pytest.raises(ValueError):
        pressure_to_cc(rot_joint(), [1.0, 2.0])
    with pytest.raises(ValueError):
        pressure_to_cc(dex_joint(), [1.0])


def test_extension_cannot_collapse_segment():
    joint = dex_joint(gain=0.0, extension_gain=1.0)
    with pytest.raises(ValueError):
        pressure_to_cc(joint, [-57.0, -57.0, -57.0])


def test_segment_validation():
    with pytest.raises(ValueError):
        CcSegment(kappa=0.0, phi=0.0, length=0.0)
    with pytest.raises(ValueError):
        CcSegment(kappa=float("nan"), phi=0.0, length=10.0)


def test_split_pressures_orders_by_chain():
    chain = dex_rot_chain()
    dex_p, rot_p = split_pressures(chain, [1.0, 2.0, 3.0, 4.0])
    assert list(dex_p) == [1.0, 2.0, 3.0]
    assert list(rot_p) == [4.0]
    chain = rot_dex_chain()
    rot_p, dex_p = split_pressures(chain, [1.0, 2.0, 3.0, 4.0])
    assert list(rot_p) == [1.0]
    assert list(dex_p) == [2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        split_pressures(chain, [1.0, 2.0])


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
    assert dexrot.hull_volume == pytest.approx(137602.6359271968, rel=1e-12)
    assert rotdex.hull_volume == pytest.approx(67219.12613113047, rel=1e-12)


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
