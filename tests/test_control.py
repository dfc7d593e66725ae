import pytest

from tacgrip.control import (CONTROL_PERIOD_S, CONTROL_PERIOD_TICKS,
                             DEFAULT_GRASP_MASK, FRAME_SYNC, MAX_REGRASPS,
                             REGRASP_PAUSE_S, REGRASP_RELEASE_S, CommandKind,
                             ControlThresholds, FlagKind, GraspPhase,
                             GraspSupervisor, GuardAction, McuCommand,
                             McuEmulator, PerceptionFlag, Phase, arbitrate,
                             classify_frame, decode_frame, edge_guard,
                             encode_frame, is_fresh, mask_chambers,
                             measure_valve_response)
from tacgrip.errors import NoDisturbanceError, StaleFlagsError
from tacgrip.plant import PneumaticPlant
from tacgrip.tracking import ContactTrack

TH = ControlThresholds()
DT = CONTROL_PERIOD_S


def make_track(disps, dt=DT, start=0.0, finger=1):
    """Track with len(disps)+1 centers spaced dt apart."""
    n = len(disps) + 1
    track = ContactTrack(finger_id=finger)
    track.timestamps = [start + i * dt for i in range(n)]
    track.centers = [(320.0, 240.0)] * n
    track.disp_timestamps = track.timestamps[1:]
    track.displacements = list(disps)
    return track


def stable_track(last_d=0.0, n=95):
    return make_track([0.0] * (n - 1) + [last_d])


def classify_d(last_d):
    track = stable_track(last_d)
    return classify_frame(track, TH, track.timestamps[-1] + DT).kind


# -- classification -----------------------------------------------------------


def test_partition_boundaries():
    assert classify_d(0.0) == FlagKind.STABLE_GRASP
    assert classify_d(0.5) == FlagKind.STABLE_GRASP      # D <= T1
    assert classify_d(0.5 + 1e-9) == FlagKind.DISTURBANCE_OCCURED
    assert classify_d(3.0) == FlagKind.DISTURBANCE_OCCURED
    assert classify_d(5.0) == FlagKind.DISTURBANCE_OCCURED  # D <= T2
    assert classify_d(5.0 + 1e-9) == FlagKind.REGRASP
    assert classify_d(100.0) == FlagKind.REGRASP


def test_empty_track_is_no_contact():
    flag = classify_frame(ContactTrack(), TH, 1.0)
    assert flag.kind == FlagKind.NO_CONTACT


def test_stale_track_is_no_contact_even_if_slipping():
    track = stable_track(50.0)
    now = track.timestamps[-1] + 3 * DT
    assert classify_frame(track, TH, now).kind == FlagKind.NO_CONTACT


def test_unfilled_window_is_no_contact():
    track = make_track([0.0] * 30)  # ~1 s of track, window needs 3 s
    now = track.timestamps[-1] + DT
    assert classify_frame(track, TH, now).kind == FlagKind.NO_CONTACT


def test_sparse_window_fails_coverage():
    # spans 5 s but only one sample per 0.5 s; freshness keyed on the
    # last sample so only the coverage guard can reject it
    track = make_track([0.0] * 10, dt=0.5)
    now = track.timestamps[-1] + DT
    assert classify_frame(track, TH, now).kind == FlagKind.NO_CONTACT


def test_violation_inside_window_blocks_stability():
    disps = [0.0] * 95
    disps[70] = 1.0  # within the trailing 3 s
    track = make_track(disps)
    now = track.timestamps[-1] + DT
    assert classify_frame(track, TH, now).kind == FlagKind.NO_CONTACT


def test_violation_ages_out_of_window():
    disps = [0.0] * 140
    disps[10] = 1.0  # ~4.3 s before the end
    track = make_track(disps)
    now = track.timestamps[-1] + DT
    assert classify_frame(track, TH, now).kind == FlagKind.STABLE_GRASP


def test_restart_window_mode():
    th = ControlThresholds(window_mode="restart")
    disps = [0.0] * 140
    disps[10] = 1.0
    track = make_track(disps)
    now = track.timestamps[-1] + DT
    assert classify_frame(track, th, now).kind == FlagKind.STABLE_GRASP
    with pytest.raises(ValueError):
        ControlThresholds(window_mode="jumping")


def test_threshold_validation():
    with pytest.raises(ValueError):
        ControlThresholds(t1_mm=5.0, t2_mm=0.5)
    with pytest.raises(ValueError):
        ControlThresholds(t1_mm=0.0)
    with pytest.raises(ValueError):
        ControlThresholds(stability_window_s=0.0)


# -- arbitration --------------------------------------------------------------


def _flag(kind, finger=1, t=10.0):
    return PerceptionFlag(finger, kind, t)


def _phase(state, entered=0.0):
    return GraspPhase(state, entered)


def test_regrasp_outranks_everything():
    for other in FlagKind:
        cmd = arbitrate(_flag(FlagKind.REGRASP), _flag(other, 2),
                        _phase(Phase.STABLE), TH, now=10.0)
        assert cmd == CommandKind.REGRASP


def test_disturbance_outranks_stability():
    cmd = arbitrate(_flag(FlagKind.DISTURBANCE_OCCURED),
                    _flag(FlagKind.STABLE_GRASP, 2),
                    _phase(Phase.STABLE), TH, now=10.0)
    assert cmd == CommandKind.REOPEN_VALVES


def test_dual_stability_closes_valves():
    cmd = arbitrate(_flag(FlagKind.STABLE_GRASP),
                    _flag(FlagKind.STABLE_GRASP, 2),
                    _phase(Phase.CONTACTED), TH, now=10.0)
    assert cmd == CommandKind.CLOSE_VALVES


def test_single_stability_changes_nothing():
    cmd = arbitrate(_flag(FlagKind.STABLE_GRASP),
                    _flag(FlagKind.NO_CONTACT, 2),
                    _phase(Phase.CONTACTED), TH, now=10.0)
    assert cmd is None


def test_no_contact_timeout_only_while_closing():
    f1, f2 = _flag(FlagKind.NO_CONTACT), _flag(FlagKind.NO_CONTACT, 2)
    assert arbitrate(f1, f2, _phase(Phase.CLOSING, 0.0), TH,
                     now=10.0) == CommandKind.RELEASE
    assert arbitrate(f1, f2, _phase(Phase.CLOSING, 5.0), TH, now=10.0) is None
    assert arbitrate(f1, f2, _phase(Phase.STABLE, 0.0), TH, now=10.0) is None


def test_stale_flags_rejected():
    with pytest.raises(StaleFlagsError):
        arbitrate(_flag(FlagKind.STABLE_GRASP, t=1.0),
                  _flag(FlagKind.STABLE_GRASP, 2, t=10.0),
                  _phase(Phase.STABLE), TH, now=10.0)


def test_fresh_is_two_periods_inclusive():
    assert CONTROL_PERIOD_S == CONTROL_PERIOD_TICKS * 0.001 == 0.033
    assert is_fresh(2 * DT, DT)
    assert not is_fresh(2 * DT + 1e-6, DT)
    # a flag exactly two periods old is still accepted
    assert arbitrate(_flag(FlagKind.NO_CONTACT, t=1.0),
                     _flag(FlagKind.NO_CONTACT, 2, t=1.0 + 2 * DT),
                     _phase(Phase.STABLE), TH,
                     now=1.0 + 2 * DT) is None


# -- supervisor ---------------------------------------------------------------


STABLE = FlagKind.STABLE_GRASP
NOTHING = FlagKind.NO_CONTACT


def drive(sup, kind1, kind2, now):
    return sup.update(PerceptionFlag(1, kind1, now),
                      PerceptionFlag(2, kind2, now), now)


def settled_supervisor(now=0.0):
    """Supervisor brought to a sealed Stable grasp at time `now`."""
    sup = GraspSupervisor()
    sup.start(now)
    drive(sup, STABLE, STABLE, now + DT)       # contact
    cmds = drive(sup, STABLE, STABLE, now + 2 * DT)  # seal
    assert sup.phase.state == Phase.STABLE
    assert [c.kind for c in cmds] == [CommandKind.CLOSE_VALVES]
    return sup


def test_start_emits_reopen():
    sup = GraspSupervisor()
    cmds = sup.start(0.0)
    assert sup.phase.state == Phase.CLOSING
    assert [c.kind for c in cmds] == [CommandKind.REOPEN_VALVES]
    assert cmds[0].valve_mask == DEFAULT_GRASP_MASK


def test_update_is_inert_before_start():
    sup = GraspSupervisor()
    assert drive(sup, STABLE, STABLE, 1.0) == []
    assert sup.phase.state == Phase.IDLE


def test_double_start_is_illegal():
    sup = GraspSupervisor()
    sup.start(0.0)
    with pytest.raises(RuntimeError):
        sup.start(1.0)


def test_seal_is_edge_triggered():
    sup = settled_supervisor()
    for i in range(10):
        assert drive(sup, STABLE, STABLE, 1.0 + i * DT) == []
    assert sup.phase.state == Phase.STABLE


def test_poke_reopens_then_reseals():
    sup = settled_supervisor()
    cmds = drive(sup, FlagKind.DISTURBANCE_OCCURED, STABLE, 1.0)
    assert sup.phase.state == Phase.DISTURBED
    assert [c.kind for c in cmds] == [CommandKind.REOPEN_VALVES]
    cmds = drive(sup, STABLE, STABLE, 1.0 + DT)
    assert sup.phase.state == Phase.STABLE
    assert [c.kind for c in cmds] == [CommandKind.CLOSE_VALVES]
    assert sup.regrasp_count == 0


def test_slip_latches_regrasp_through_disturbed():
    sup = settled_supervisor()
    cmds = drive(sup, FlagKind.REGRASP, STABLE, 1.0)
    assert sup.phase.state == Phase.DISTURBED
    assert [c.kind for c in cmds] == [CommandKind.REOPEN_VALVES]
    # by the next period the displacement has settled, but the latched
    # slip must still force the regrasp
    cmds = drive(sup, STABLE, STABLE, 1.0 + DT)
    assert sup.phase.state == Phase.REGRASPING
    assert [c.kind for c in cmds] == [CommandKind.REGRASP]
    assert sup.regrasp_count == 1


def test_regrasping_ignores_flags_until_timer():
    sup = settled_supervisor()
    drive(sup, FlagKind.REGRASP, STABLE, 1.0)
    drive(sup, STABLE, STABLE, 1.0 + DT)
    t0 = sup.phase.entered_at
    hold = REGRASP_RELEASE_S + REGRASP_PAUSE_S
    assert drive(sup, FlagKind.REGRASP, FlagKind.REGRASP,
                 t0 + hold - 5 * DT) == []
    assert sup.phase.state == Phase.REGRASPING
    cmds = drive(sup, NOTHING, NOTHING, t0 + hold)
    assert sup.phase.state == Phase.CLOSING
    assert [c.kind for c in cmds] == [CommandKind.REOPEN_VALVES]


def test_contacted_slip_goes_straight_to_regrasp():
    sup = GraspSupervisor()
    sup.start(0.0)
    drive(sup, STABLE, STABLE, DT)
    assert sup.phase.state == Phase.CONTACTED
    cmds = drive(sup, FlagKind.REGRASP, NOTHING, 2 * DT)
    assert sup.phase.state == Phase.REGRASPING
    assert [c.kind for c in cmds] == [CommandKind.REGRASP]


def test_regrasp_cap_releases():
    sup = GraspSupervisor(max_regrasps=1)
    sup.start(0.0)
    drive(sup, STABLE, STABLE, DT)
    drive(sup, FlagKind.REGRASP, NOTHING, 2 * DT)  # attempt 1
    assert sup.regrasp_count == 1
    hold = REGRASP_RELEASE_S + REGRASP_PAUSE_S
    drive(sup, NOTHING, NOTHING, 2 * DT + hold)  # back to closing
    drive(sup, STABLE, STABLE, 3 * DT + hold)    # contacted again
    cmds = drive(sup, FlagKind.REGRASP, NOTHING, 4 * DT + hold)
    assert [c.kind for c in cmds] == [CommandKind.RELEASE]
    assert sup.terminated
    assert drive(sup, STABLE, STABLE, 5 * DT + hold) == []


def test_closing_timeout_releases():
    sup = GraspSupervisor()
    sup.start(0.0)
    t = TH.no_contact_timeout_s
    assert drive(sup, NOTHING, NOTHING, t - DT) == []
    cmds = drive(sup, NOTHING, NOTHING, t)
    assert sup.phase.state == Phase.RELEASED
    assert [c.kind for c in cmds] == [CommandKind.RELEASE]
    assert sup.terminated


def test_stable_stale_timeout_releases():
    sup = settled_supervisor()
    start = 1.0
    now = start
    while now - start < TH.no_contact_timeout_s - DT:
        assert drive(sup, NOTHING, NOTHING, now) == []
        now += DT
    cmds = drive(sup, NOTHING, NOTHING, start + TH.no_contact_timeout_s)
    assert sup.phase.state == Phase.RELEASED
    assert [c.kind for c in cmds] == [CommandKind.RELEASE]


def test_transitions_audit_trail():
    sup = settled_supervisor()
    states = [(old.value, new.value) for _, old, new in sup.transitions]
    assert states == [("idle", "closing"), ("closing", "contacted"),
                      ("contacted", "stable")]


# -- wire protocol ------------------------------------------------------------


def test_frame_round_trip():
    for kind in CommandKind:
        for mask in (0x00, 0x01, 0x55, 0xAA, 0xFF):
            frame = encode_frame(McuCommand(kind=kind, valve_mask=mask))
            assert len(frame) == 4
            assert frame[0] == FRAME_SYNC
            assert decode_frame(frame) == (kind, mask)


def test_frame_corruption_detected():
    frame = bytearray(encode_frame(McuCommand(kind=CommandKind.REGRASP)))
    frame[2] ^= 0x10
    with pytest.raises(ValueError, match="checksum"):
        decode_frame(bytes(frame))
    with pytest.raises(ValueError, match="sync"):
        decode_frame(bytes([0x55, 0x01, 0xFF, 0x01 ^ 0xFF]))
    with pytest.raises(ValueError, match="4 bytes"):
        decode_frame(b"\xaa\x01\xff")
    with pytest.raises(ValueError, match="unknown command"):
        decode_frame(bytes([FRAME_SYNC, 0x7F, 0x00, 0x7F]))
    with pytest.raises(ValueError):
        encode_frame(McuCommand(kind=CommandKind.RELEASE, valve_mask=0x100))


def test_mask_chambers():
    assert mask_chambers(0x00) == []
    assert mask_chambers(0x01) == [0]
    assert mask_chambers(0xFF) == list(range(8))
    assert mask_chambers(0b10100100) == [2, 5, 7]


# -- MCU emulator -------------------------------------------------------------


def test_emulator_applies_control_delay():
    plant = PneumaticPlant()
    mcu = McuEmulator(plant)
    lag = plant.config.ticks(plant.config.control_delay) \
        + plant.config.ticks(plant.config.valve_latency)
    mcu.submit(encode_frame(McuCommand(kind=CommandKind.REOPEN_VALVES,
                                       valve_mask=0x03)))
    for _ in range(lag - 1):
        mcu.on_tick()
        plant.step()
        assert plant.state.valve_states[0] == 0
    mcu.on_tick()
    plant.step()
    assert list(plant.state.valve_states[:2]) == [1, 1]
    assert mcu.executed[0][1] == CommandKind.REOPEN_VALVES


def test_emulator_regrasp_sequence():
    plant = PneumaticPlant()
    mcu = McuEmulator(plant)
    mcu.submit(encode_frame(McuCommand(kind=CommandKind.REGRASP,
                                       valve_mask=0x01)))
    lag = plant.config.ticks(plant.config.control_delay) \
        + plant.config.ticks(plant.config.valve_latency)
    for _ in range(lag):
        mcu.on_tick()
        plant.step()
    assert plant.state.valve_states[0] == -1  # venting
    for _ in range(plant.config.ticks(REGRASP_RELEASE_S)):
        mcu.on_tick()
        plant.step()
    assert plant.state.valve_states[0] == 0  # sealed for the pause


# -- diagnostics --------------------------------------------------------------


def test_edge_guard():
    track = ContactTrack()
    track.centers = [(320.0, 240.0)]
    assert edge_guard(track) == GuardAction.CONTINUE
    for bad in [(10.0, 240.0), (630.0, 240.0), (320.0, 10.0), (320.0, 475.0)]:
        track.centers = [bad]
        assert edge_guard(track) == GuardAction.STOP_AND_RETURN
    with pytest.raises(ValueError):
        edge_guard(ContactTrack())


def test_measure_valve_response():
    def row(t, v0):
        return [t, 45.0, -52.0] + [0.0] * 8 + [v0] + [0] * 7

    rows = [row(0.00, 0), row(0.05, 0), row(0.08, 0), row(0.11, 1),
            row(0.14, 1)]
    assert measure_valve_response(rows, 0.05) == pytest.approx(0.06)
    with pytest.raises(NoDisturbanceError):
        measure_valve_response(rows, None)
    with pytest.raises(NoDisturbanceError):
        measure_valve_response([row(0.0, 0), row(0.1, 0)], 0.05)


def test_constants_locked():
    assert CONTROL_PERIOD_S == pytest.approx(0.033)
    assert MAX_REGRASPS == 3
    assert REGRASP_RELEASE_S + REGRASP_PAUSE_S == pytest.approx(1.5)
