import heapq
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from tacgrip import control
from tacgrip import plant as plant_module
from tacgrip.control import (_EPS, CONTROL_PERIOD_S, CONTROL_PERIOD_TICKS,
                             DEFAULT_GRASP_MASK, FRAME_SYNC, MAX_REGRASPS,
                             REGRASP_PAUSE_S, REGRASP_RELEASE_S, CommandKind,
                             ControlThresholds, FlagKind, GraspPhase,
                             GraspSupervisor, McuCommand, McuEmulator,
                             PerceptionFlag, Phase, arbitrate, classify_frame,
                             decode_frame, encode_frame, is_fresh,
                             mask_chambers, measure_valve_response)
from tacgrip.errors import NoDisturbanceError, ParseError, StaleFlagsError
from tacgrip.plant import PlantConfig, PneumaticPlant
from tacgrip.scenario import parse_scenario_text
from tacgrip.tracking import ContactTrack

TH = ControlThresholds()
DT = CONTROL_PERIOD_S


def make_track(disps, dt=DT, start=0.0, finger=1):
    """Track with len(disps)+1 centers spaced dt apart."""
    n = len(disps) + 1
    track = ContactTrack(finger_id=finger)
    track.timestamps = [start + i * dt for i in range(n)]
    track.centers = [(320.0, 240.0)] * n
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


def test_empty_window_holds_no_violation():
    # every sample, violations included, is older than the window: the
    # window is empty, so only the coverage guard can reject it
    track = make_track([5.0, 50.0, 0.0])
    now = track.timestamps[-1] + TH.stability_window_s + 1.0
    for coverage, want in ((0.0, True), (0.9, False)):
        th = ControlThresholds(window_coverage=coverage)
        assert control._window_stable(track, th, now, DT) is want
        assert _full_scan_window_stable(track, th, now, DT) is want
    assert max(track.displacements) > TH.t1_mm  # they would violate


def test_tick_dt_key_is_unknown():
    # the plant tick is fixed at 1 ms, so a scenario cannot set it
    with pytest.raises(ParseError,
                       match=r"unknown key 'tick_dt' in \[plant\]") as err:
        parse_scenario_text("[plant]\ntick_dt = 0.002\n")
    assert err.value.line_no == 2


def test_window_mode_key_is_unknown():
    # the "restart" window mode always gave the sliding window's flag
    # and was removed with its scenario key
    with pytest.raises(ParseError, match="unknown key 'window_mode'") as err:
        parse_scenario_text("[thresholds]\nwindow_mode = restart\n")
    assert err.value.line_no == 2


def _full_scan_window_stable(track, thresholds, now, control_period):
    """Reference window check: every displacement of the track is tested
    against the window start."""
    window = thresholds.stability_window_s
    t1 = thresholds.t1_mm
    if not track.displacements:
        return False
    start = now - window - _EPS
    in_window = [(t, d) for t, d in zip(track.timestamps[1:],
                                        track.displacements) if t > start]
    if any(d > t1 for _, d in in_window):
        return False
    if now - track.timestamps[1] < window - _EPS:
        return False
    needed = int(math.ceil(thresholds.window_coverage * window
                           / control_period))
    return len(in_window) >= needed


def _random_case(rng):
    """A random track, thresholds and classification time that land on
    the edges the classifier decides on."""
    th = ControlThresholds(
        t1_mm=rng.choice([0.5, 0.25, 1.0]), t2_mm=5.0,
        stability_window_s=rng.choice([3.0, 1.0, 0.5, 2.0 * DT]),
        window_coverage=rng.choice([0.9, 0.9, 0.5, 1.0, 0.0]))
    t1 = th.t1_mm
    n = rng.randrange(0, 260)
    dt = rng.choice([DT, DT, DT, 0.05, 0.2, 0.5])
    times, t = [], rng.uniform(0.0, 5.0)
    for _ in range(n + 1):
        times.append(t)
        # occasional dropped frames thin the track out
        t += dt * (rng.randrange(2, 6) if rng.random() < 0.1 else 1)
    pool = [0.0, 0.1 * t1, t1, math.nextafter(t1, 0.0),
            math.nextafter(t1, math.inf), 2.0 * t1, 5.0,
            math.nextafter(5.0, math.inf), 50.0]
    calm = rng.random() < 0.6
    disps = [rng.choice(pool[:4]) if calm or rng.random() < 0.9
             else rng.choice(pool) for _ in range(n)]
    if n and rng.random() < 0.2:
        disps[-1] = rng.choice(pool[4:])  # the latest sample decides
    track = ContactTrack(finger_id=1, timestamps=times,
                         centers=[(320.0, 240.0)] * len(times),
                         displacements=disps)
    mode = rng.randrange(4)
    if mode == 0 and n:
        # a sample exactly at, or an epsilon either side of, the window
        # start; sometimes that sample is the one violation
        j = rng.randrange(n)
        now = times[j + 1] + th.stability_window_s \
            + rng.choice([0.0, _EPS, -_EPS, 2 * _EPS, -2 * _EPS])
        if rng.random() < 0.5:
            disps[j] = math.nextafter(t1, math.inf)
    elif mode == 1:
        now = times[-1] + rng.uniform(2.0 * DT, 1.0)  # stale
    else:
        now = times[-1] + rng.choice([0.0, DT, 2.0 * DT, rng.uniform(0, 2 * DT)])
    return track, th, now, dt


def test_classifier_matches_full_scan_reference(monkeypatch):
    rng = random.Random(20240)
    cases = [_random_case(rng) for _ in range(6000)]
    got = [classify_frame(*case).kind for case in cases]
    windows = [control._window_stable(*case) for case in cases]
    monkeypatch.setattr(control, "_window_stable", _full_scan_window_stable)
    want = [classify_frame(*case).kind for case in cases]
    assert got == want
    assert windows == [_full_scan_window_stable(*case) for case in cases]
    # every flag occurs often enough for the comparison to mean something
    seen = Counter(want)
    assert min(seen[k] for k in FlagKind) >= 100, seen


class _CountingList(list):
    """A list that counts the elements read from it."""

    reads = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        _CountingList.reads += len(item) if isinstance(key, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            _CountingList.reads += 1
            yield item


def _reads_for(n, violation_at=None):
    disps = [0.0] * n
    if violation_at is not None:
        disps[violation_at] = 1.0
    track = make_track(disps)
    track.timestamps = _CountingList(track.timestamps)
    track.displacements = _CountingList(track.displacements)
    _CountingList.reads = 0
    flag = classify_frame(track, TH, track.timestamps[-1] + DT)
    return flag.kind, _CountingList.reads - 1  # minus the read for `now`


def test_classify_reads_only_the_window():
    window_samples = int(TH.stability_window_s / DT) + 2
    for n in (1_000, 100_000):
        budget = window_samples + 2 * math.ceil(math.log2(n)) + 4
        kind, reads = _reads_for(n)
        assert kind == FlagKind.STABLE_GRASP
        assert reads <= budget, (n, reads)
        kind, reads = _reads_for(n, violation_at=n - 10)
        assert kind == FlagKind.NO_CONTACT
        assert reads <= budget, (n, reads)
    # the reads do not grow with the track
    assert _reads_for(100_000)[1] - _reads_for(1_000)[1] \
        <= 2 * math.ceil(math.log2(100_000))


def test_threshold_validation():
    with pytest.raises(ValueError):
        ControlThresholds(t1_mm=5.0, t2_mm=0.5)
    with pytest.raises(ValueError):
        ControlThresholds(t1_mm=0.0)
    with pytest.raises(ValueError):
        ControlThresholds(stability_window_s=0.0)


@pytest.mark.parametrize("key,value", [
    ("t1_mm", float("nan")), ("t2_mm", float("inf")),
    ("stability_window_s", float("nan")), ("no_contact_timeout_s", -1.0),
    ("window_coverage", 5.0), ("window_coverage", -0.1),
])
def test_thresholds_reject_values_outside_domain(key, value):
    with pytest.raises(ValueError, match=key):
        ControlThresholds(**{key: value})


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


def test_emulator_rejects_frame_selecting_no_chamber():
    plant = PneumaticPlant()
    mcu = McuEmulator(plant)
    for kind in CommandKind:
        with pytest.raises(ValueError, match="selects no chamber"):
            mcu.submit(encode_frame(McuCommand(kind=kind, valve_mask=0x00)))
    assert mcu.executed == [] and plant._queue == []


def test_emulator_applies_control_delay():
    plant = PneumaticPlant()
    mcu = McuEmulator(plant)
    lag = plant.config.ticks(plant.config.control_delay) \
        + plant.config.ticks(plant.config.valve_latency)
    mcu.submit(encode_frame(McuCommand(kind=CommandKind.REOPEN_VALVES,
                                       valve_mask=0x03)))
    for _ in range(lag - 1):
        plant.step()
        assert plant.state.valve_states[0] == 0
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
    plant.run(lag)
    assert plant.state.valve_states[0] == -1  # venting
    plant.run(plant.config.ticks(REGRASP_RELEASE_S))
    assert plant.state.valve_states[0] == 0  # sealed for the pause


@pytest.fixture
def deliveries(monkeypatch):
    """(tick, chamber, command) of each valve change as the plant's step
    takes it off the valve queue, in the order it applies them."""
    plant, delivered = PneumaticPlant(), []

    def heappop(queue):
        entry = heapq.heappop(queue)
        delivered.append((plant.tick,) + entry[-2:])
        return entry

    monkeypatch.setattr(plant_module, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=heappop))
    return plant, delivered


def test_emulator_delivers_in_due_order_fifo_on_ties(deliveries):
    plant, delivered = deliveries
    mcu = McuEmulator(plant)
    cfg = plant.config
    lag = cfg.ticks(cfg.control_delay) + cfg.ticks(cfg.valve_latency)
    release = cfg.ticks(REGRASP_RELEASE_S)

    def submit(kind, mask):
        mcu.submit(encode_frame(McuCommand(kind=kind, valve_mask=mask)))

    def advance_to(tick):
        plant.run(tick - plant.tick)

    # the regrasp's seal is due after everything submitted next, and
    # several commands land on one tick
    submit(CommandKind.REGRASP, 0x01)
    advance_to(10)
    submit(CommandKind.RELEASE, 0x02)
    advance_to(20)
    submit(CommandKind.REOPEN_VALVES, 0x04)
    submit(CommandKind.CLOSE_VALVES, 0x04)
    submit(CommandKind.REOPEN_VALVES, 0x08)
    advance_to(release)
    submit(CommandKind.REOPEN_VALVES, 0x01)  # due with the regrasp's seal
    advance_to(release + 100)
    assert delivered == [
        (lag, 0, -1),
        (10 + lag, 1, -1),
        (20 + lag, 2, +1),
        (20 + lag, 2, 0),
        (20 + lag, 3, +1),
        (lag + release, 0, 0),
        (lag + release, 0, +1),
        (10 + lag + release, 1, 0),
    ]
    assert list(plant.state.valve_states[:4]) == [1, 0, 0, 1]


def test_emulator_matches_sorted_agenda_on_random_traffic(deliveries):
    rng = random.Random(5)
    plant, delivered = deliveries
    mcu = McuEmulator(plant)
    cfg = plant.config
    lag = cfg.ticks(cfg.control_delay) + cfg.ticks(cfg.valve_latency)
    release = cfg.ticks(REGRASP_RELEASE_S)
    expected, seq = [], 0
    for tick in range(3000):
        for _ in range(rng.choice([0] * 20 + [1, 2, 3])):
            kind, mask = rng.choice(list(CommandKind)), rng.randrange(1, 256)
            mcu.submit(encode_frame(McuCommand(kind=kind, valve_mask=mask)))
            chambers = mask_chambers(mask)
            first = {CommandKind.CLOSE_VALVES: 0, CommandKind.REOPEN_VALVES: 1}
            if kind in first:
                expected.append((tick + lag, seq, chambers, first[kind]))
                seq += 1
            else:
                expected.append((tick + lag, seq, chambers, -1))
                expected.append((tick + lag + release, seq + 1, chambers, 0))
                seq += 2
        plant.step()
    expected = [(due, ch, cmd) for due, _, chambers, cmd in sorted(expected)
                if due <= 3000 for ch in chambers]
    assert len(expected) > 800
    assert delivered == expected


class TwoStageMcu:
    """The MCU as it was before it scheduled onto the plant's queue: its
    own agenda applies control_delay, and on_tick, called once per tick
    before the plant's step, hands each due entry to the plant, whose
    queue then applies valve_latency. The reference for McuEmulator."""

    def __init__(self, plant):
        self.plant = plant
        self._agenda = []  # heap of (due_tick, seq, chamber_list, valve_command)
        self._seq = 0
        self.executed = []  # (tick, CommandKind, mask) log

    def submit(self, frame):
        kind, mask = decode_frame(frame)
        chambers = mask_chambers(mask)
        if not chambers:
            raise ValueError(f"{kind.name} frame selects no chamber (mask 0x00)")
        cfg = self.plant.config
        due = self.plant.tick + cfg.ticks(cfg.control_delay)
        self.executed.append((due, kind, mask))
        if kind == CommandKind.CLOSE_VALVES:
            self._schedule(due, chambers, 0)
        elif kind == CommandKind.REOPEN_VALVES:
            self._schedule(due, chambers, +1)
        else:
            self._schedule(due, chambers, -1)
            self._schedule(due + cfg.ticks(REGRASP_RELEASE_S), chambers, 0)

    def _schedule(self, due_tick, chambers, valve_command):
        heapq.heappush(self._agenda,
                       (due_tick, self._seq, chambers, valve_command))
        self._seq += 1

    def on_tick(self):
        agenda = self._agenda
        while agenda and agenda[0][0] <= self.plant.tick:
            _, _, chambers, command = heapq.heappop(agenda)
            self.plant.apply_valve_command(chambers, command)


@pytest.mark.parametrize("control_delay,valve_latency", [
    (0.050, 0.010), (0.0, 0.0), (0.0, 0.010), (0.050, 0.0), (0.0333, 0.0021),
])
def test_emulator_matches_two_stage_reference(control_delay, valve_latency):
    rng = random.Random(f"{control_delay}/{valve_latency}")
    cfg = PlantConfig(control_delay=control_delay, valve_latency=valve_latency)
    plant, ref_plant = PneumaticPlant(cfg), PneumaticPlant(cfg)
    mcu, ref = McuEmulator(plant), TwoStageMcu(ref_plant)
    release = cfg.ticks(REGRASP_RELEASE_S)
    seal_ticks = {}  # tick a regrasp or release seals -> submissions left
    seen = Counter()
    for tick in range(4000):
        frames = []
        for _ in range(rng.choice([0] * 15 + [1, 2, 3])):
            frames.append((rng.choice(list(CommandKind)),
                           rng.randrange(1, 256)))
        # a command submitted as a regrasp's or release's seal comes due
        if seal_ticks.pop(tick, 0):
            frames.append((rng.choice(list(CommandKind)),
                           rng.randrange(1, 256)))
            seen["due_with_a_seal"] += 1
        seen["several_due"] += len(frames) > 1
        for kind, mask in frames:
            seen[kind] += 1
            if kind in (CommandKind.REGRASP, CommandKind.RELEASE) \
                    and rng.random() < 0.3:
                seal_ticks[tick + release] = 1
            frame = encode_frame(McuCommand(kind=kind, valve_mask=mask))
            mcu.submit(frame)
            ref.submit(frame)
        ref.on_tick()
        plant.step()
        ref_plant.step()
        assert repr(plant.trace_row()) == repr(ref_plant.trace_row()), tick
        assert mcu.executed == ref.executed
    assert min(seen.values()) >= 20, seen
    assert len(seen) == len(CommandKind) + 2, seen


# -- diagnostics --------------------------------------------------------------


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
