import copy
import heapq
import itertools
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
                             GraspSupervisor, LEGAL_TRANSITIONS, McuCommand,
                             McuEmulator, PerceptionFlag, Phase, classify_frame,
                             decode_frame, encode_frame, has_fresh_contact,
                             is_fresh, mask_chambers, measure_valve_response)
from tacgrip.errors import NoDisturbanceError, ParseError
from tacgrip.plant import PlantConfig, PneumaticPlant
from tacgrip.scenario import parse_scenario_text
from tacgrip.tracking import ContactTrack

TH = ControlThresholds()
DT = CONTROL_PERIOD_S


def track_from(times, disps, finger=1):
    """Track grown by ContactTrack.append at `times`, one displacement
    per sample after the first, all at one center."""
    track = ContactTrack(finger_id=finger)
    for i, t in enumerate(times):
        track.append(t, (320.0, 240.0), disps[i - 1] if i else None)
    return track


def make_track(disps, dt=DT, start=0.0, finger=1):
    """Track with len(disps)+1 centers spaced dt apart."""
    return track_from([start + i * dt for i in range(len(disps) + 1)],
                      disps, finger)


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
    return track_from(times, disps), th, now, dt


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


def _reads_for(n, violation_at=None, thresholds=TH):
    """The flag and the track reads of one classify on a track of n
    displacements grown by ContactTrack.append, as the grasp loop grows
    it."""
    track = ContactTrack(finger_id=1)
    track.append(0.0, (320.0, 240.0))
    for i in range(n):
        track.append((i + 1) * DT, (320.0, 240.0),
                     1.0 if i == violation_at else 0.0)
    # A frozen track refuses a rebound list; the counting lists go in
    # past that refusal, holding the values append checked.
    object.__setattr__(track, "timestamps", _CountingList(track.timestamps))
    object.__setattr__(track, "displacements",
                       _CountingList(track.displacements))
    _CountingList.reads = 0
    flag = classify_frame(track, thresholds, track.timestamps[-1] + DT)
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


def test_classify_reads_do_not_grow_with_the_window():
    reads = {}
    for window in (0.5, 30.0):
        th = ControlThresholds(stability_window_s=window)
        for violation_at in (None, 5_000 - 10):
            kind, reads[window, violation_at] = _reads_for(
                5_000, violation_at, th)
            assert kind == (FlagKind.STABLE_GRASP if violation_at is None
                            else FlagKind.NO_CONTACT)
    for violation_at in (None, 5_000 - 10):
        assert reads[30.0, violation_at] - reads[0.5, violation_at] <= 2, reads


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


# -- flag priority and timeouts -----------------------------------------------


def _flag(kind, finger=1, t=10.0):
    return PerceptionFlag(finger, kind, t)


def _in_phase(state, entered=0.0, **kwargs):
    """A supervisor placed in `state`, entered at `entered`."""
    sup = GraspSupervisor(**kwargs)
    sup.phase = GraspPhase(state, entered)
    return sup


def _kinds(cmds):
    return [c.kind for c in cmds]


def test_regrasp_outranks_everything():
    for other in FlagKind:
        touched = other != FlagKind.NO_CONTACT
        for flags, fresh in (
                ((_flag(FlagKind.REGRASP), _flag(other, 2)), (True, touched)),
                ((_flag(other), _flag(FlagKind.REGRASP, 2)), (touched, True))):
            sup = _in_phase(Phase.CONTACTED)
            assert _kinds(sup.update(*flags, 10.0, *fresh)) == [
                CommandKind.REGRASP]
            assert sup.phase.state == Phase.REGRASPING
            # Sealed, the slip reopens at once and regrasps next period.
            sup = _in_phase(Phase.STABLE)
            assert _kinds(sup.update(*flags, 10.0, *fresh)) == [
                CommandKind.REOPEN_VALVES]
            assert sup.phase.state == Phase.DISTURBED
            later = 10.0 + DT
            assert _kinds(sup.update(_flag(FlagKind.STABLE_GRASP, t=later),
                                     _flag(FlagKind.STABLE_GRASP, 2, t=later),
                                     now=later, fresh1=True, fresh2=True)) \
                == [CommandKind.REGRASP]


def test_disturbance_outranks_stability():
    poke = (_flag(FlagKind.DISTURBANCE_OCCURED),
            _flag(FlagKind.STABLE_GRASP, 2))
    sup = _in_phase(Phase.STABLE)
    assert _kinds(sup.update(*poke, 10.0, True, True)) == [
        CommandKind.REOPEN_VALVES]
    assert sup.phase.state == Phase.DISTURBED
    # Still disturbed: no reseal while one finger is moved.
    assert sup.update(*poke, 10.0, True, True) == []
    assert sup.phase.state == Phase.DISTURBED
    sup = _in_phase(Phase.CONTACTED)
    assert sup.update(*poke, 10.0, True, True) == []
    assert sup.phase.state == Phase.CONTACTED


def test_dual_stability_closes_valves():
    both = (_flag(FlagKind.STABLE_GRASP), _flag(FlagKind.STABLE_GRASP, 2))
    for state in (Phase.CONTACTED, Phase.DISTURBED):
        sup = _in_phase(state)
        assert _kinds(sup.update(*both, 10.0, True, True)) == [
            CommandKind.CLOSE_VALVES]
        assert sup.phase == GraspPhase(Phase.STABLE, 10.0)


def test_single_stability_changes_nothing():
    for state in (Phase.CONTACTED, Phase.DISTURBED):
        sup = _in_phase(state)
        assert sup.update(_flag(FlagKind.STABLE_GRASP),
                          _flag(FlagKind.NO_CONTACT, 2), now=10.0,
                          fresh1=True, fresh2=False) == []
        assert sup.phase == GraspPhase(state, 0.0)
        assert sup.transitions == []


def test_no_contact_timeout_only_while_closing():
    f1, f2 = _flag(FlagKind.NO_CONTACT), _flag(FlagKind.NO_CONTACT, 2)
    sup = _in_phase(Phase.CLOSING, 0.0)
    assert _kinds(sup.update(f1, f2, 10.0, False, False)) == [
        CommandKind.RELEASE]
    assert sup.phase == GraspPhase(Phase.RELEASED, 10.0)
    assert sup.terminated
    sup = _in_phase(Phase.CLOSING, 5.0)
    assert sup.update(f1, f2, 10.0, False, False) == []
    assert sup.phase == GraspPhase(Phase.CLOSING, 5.0)
    # From Stable, with fresh contact centers, the flags alone never
    # time out.
    sup = _in_phase(Phase.STABLE, 0.0)
    assert sup.update(f1, f2, now=10.0, fresh1=True, fresh2=True) == []
    assert sup.phase == GraspPhase(Phase.STABLE, 0.0)


def test_stale_flags_rejected():
    for state in Phase:
        if state in (Phase.IDLE, Phase.RELEASED):
            continue
        sup = _in_phase(state)
        before = copy.deepcopy(vars(sup))
        with pytest.raises(ValueError, match="finger 1 flag is 9.000s old"):
            sup.update(_flag(FlagKind.STABLE_GRASP, t=1.0),
                       _flag(FlagKind.STABLE_GRASP, 2, t=10.0),
                       now=10.0, fresh1=False, fresh2=False)
        assert vars(sup) == before


def test_fresh_is_two_periods_inclusive():
    assert CONTROL_PERIOD_S == CONTROL_PERIOD_TICKS * 0.001 == 0.033
    assert is_fresh(2 * DT, DT)
    assert not is_fresh(2 * DT + 1e-6, DT)
    # a flag exactly two periods old is still accepted
    sup = _in_phase(Phase.STABLE)
    assert sup.update(_flag(FlagKind.NO_CONTACT, t=1.0),
                      _flag(FlagKind.NO_CONTACT, 2, t=1.0 + 2 * DT),
                      now=1.0 + 2 * DT, fresh1=False, fresh2=False) == []
    with pytest.raises(ValueError, match="finger 1 flag is 0.066s old"):
        sup.update(_flag(FlagKind.NO_CONTACT, t=1.0),
                   _flag(FlagKind.NO_CONTACT, 2, t=1.0 + 2 * DT),
                   now=1.0 + 2 * DT + 1e-6, fresh1=False, fresh2=False)


def test_fresh_contact_is_the_classifiers_rule():
    # has_fresh_contact is the rule classify_frame's NoContact test and
    # the episode's stale-contact timeout both read.
    assert not has_fresh_contact(ContactTrack(), 0.0)
    track = stable_track()
    last = track.timestamps[-1]
    for now, fresh in ((last, True), (last + 2 * DT, True),
                       (last + 2 * DT + 1e-6, False)):
        assert has_fresh_contact(track, now) is fresh
        kind = classify_frame(track, TH, now).kind
        assert (kind == FlagKind.STABLE_GRASP) is fresh, now


class _ReferenceSupervisor(GraspSupervisor):
    """The supervisor before it read the flags itself: `update` asked
    `arbitrate` for a command kind and mapped it per phase. Copied as an
    oracle for the one-layer `update`."""

    def _transition(self, new_state, now):
        old = self.phase.state
        if new_state not in LEGAL_TRANSITIONS[old]:
            raise RuntimeError(f"illegal phase transition {old} -> {new_state}")
        self.transitions.append((now, old, new_state))
        self.phase = GraspPhase(new_state, now)

    def start(self, now=0.0):
        self._transition(Phase.CLOSING, now)
        return [self._command(CommandKind.REOPEN_VALVES)]

    def update(self, flag1, flag2, now, fresh1, fresh2):
        if self.terminated or self.phase.state in (Phase.IDLE, Phase.RELEASED):
            return []

        cmd = _reference_arbitrate(flag1, flag2, self.phase, self.thresholds,
                                   now, self.control_period)
        self._track_staleness(fresh1, fresh2, now)
        state = self.phase.state

        if state == Phase.CLOSING:
            if cmd == CommandKind.RELEASE:
                self._transition(Phase.RELEASED, now)
                return [self._command(CommandKind.RELEASE)]
            if fresh1 and fresh2:
                self._transition(Phase.CONTACTED, now)
            return []

        if state == Phase.CONTACTED:
            if cmd == CommandKind.CLOSE_VALVES:
                self._transition(Phase.STABLE, now)
                return [self._command(CommandKind.CLOSE_VALVES)]
            if cmd == CommandKind.REGRASP or self._stale_timed_out(now):
                return self._regrasp_or_release(now)
            return []

        if state == Phase.STABLE:
            if cmd in (CommandKind.REOPEN_VALVES, CommandKind.REGRASP):
                self._pending_regrasp = cmd == CommandKind.REGRASP
                self._transition(Phase.DISTURBED, now)
                return [self._command(CommandKind.REOPEN_VALVES)]
            if self._stale_timed_out(now):
                self._transition(Phase.RELEASED, now)
                return [self._command(CommandKind.RELEASE)]
            return []

        if state == Phase.DISTURBED:
            if (self._pending_regrasp or cmd == CommandKind.REGRASP
                    or self._stale_timed_out(now)):
                self._pending_regrasp = False
                return self._regrasp_or_release(now)
            if cmd == CommandKind.CLOSE_VALVES:
                self._transition(Phase.STABLE, now)
                return [self._command(CommandKind.CLOSE_VALVES)]
            return []

        if state == Phase.REGRASPING:
            if now - self.phase.entered_at >= REGRASP_RELEASE_S + REGRASP_PAUSE_S - _EPS:
                self._transition(Phase.CLOSING, now)
                return [self._command(CommandKind.REOPEN_VALVES)]
            return []

        return []

    def _track_staleness(self, fresh1, fresh2, now):
        if fresh1 or fresh2:
            self._stale_since = None
        elif self._stale_since is None:
            self._stale_since = now

    def _stale_timed_out(self, now):
        return (self._stale_since is not None
                and now - self._stale_since
                >= self.thresholds.no_contact_timeout_s - _EPS)

    def _regrasp_or_release(self, now):
        if self.regrasp_count >= self.max_regrasps:
            self._transition(Phase.RELEASED, now)
            return [self._command(CommandKind.RELEASE)]
        self.regrasp_count += 1
        self._transition(Phase.REGRASPING, now)
        return [self._command(CommandKind.REGRASP)]


def _reference_arbitrate(flag1, flag2, phase, thresholds, now,
                         control_period=CONTROL_PERIOD_S):
    for flag in (flag1, flag2):
        if not is_fresh(now - flag.timestamp, control_period):
            raise ValueError(
                f"finger {flag.finger_id} flag is {now - flag.timestamp:.3f}s old"
            )

    kinds = (flag1.kind, flag2.kind)
    if FlagKind.REGRASP in kinds:
        return CommandKind.REGRASP
    if FlagKind.DISTURBANCE_OCCURED in kinds:
        return CommandKind.REOPEN_VALVES
    if kinds == (FlagKind.STABLE_GRASP, FlagKind.STABLE_GRASP):
        return CommandKind.CLOSE_VALVES
    if kinds == (FlagKind.NO_CONTACT, FlagKind.NO_CONTACT) \
            and phase.state == Phase.CLOSING \
            and now - phase.entered_at >= thresholds.no_contact_timeout_s - _EPS:
        return CommandKind.RELEASE
    return None


def _random_instant(rng, now, last):
    """The next instant's time, flags and fresh keywords. Kinds and fresh
    keywords often repeat the last instant's, as a held contact does, so
    that the timeouts are reached. A fresh keyword drawn as None is the
    finger's kind != NoContact."""
    if rng.random() < 0.08:
        now += TH.no_contact_timeout_s + rng.uniform(0.0, 2.0)  # a long gap
    else:
        now += DT * rng.choice((1, 1, 1, 2, 5, 20))
    if last is None or rng.random() < 0.4:
        kinds = rng.choices(list(FlagKind), weights=(4, 1, 1, 4), k=2)
        fresh = {name: kind != FlagKind.NO_CONTACT if value is None else value
                 for name, kind in zip(("fresh1", "fresh2"), kinds)
                 for value in [rng.choice((True, False, None))]}
    else:
        kinds, fresh = last
    flags = []
    for finger, kind in zip((1, 2), kinds):
        age = rng.choices((0.0, DT, 2 * DT, 2 * DT + 1e-6,
                           rng.uniform(2 * DT, 1.0)),
                          weights=(85, 5, 4, 3, 3))[0]
        flags.append(PerceptionFlag(finger, kind, now - age))
    return now, flags, fresh, (kinds, fresh)


def _step(sup, flags, now, fresh):
    """The commands, or the class and message of the refusal."""
    try:
        return sup.update(*flags, now, **fresh), None
    except (ValueError, RuntimeError) as exc:
        return None, (type(exc), str(exc))


def test_update_matches_the_arbitrating_reference():
    rng = random.Random(20241018)
    seen = Counter()
    instants = 0
    while instants < 3000:
        kwargs = {"max_regrasps": rng.randint(0, 3)}
        sup, ref = GraspSupervisor(**kwargs), _ReferenceSupervisor(**kwargs)
        now = rng.uniform(0.0, 5.0)
        last = None
        assert sup.start(now) == ref.start(now)
        while not ref.terminated and instants < 3000:
            if rng.random() < 0.05:
                # Jump both to a phase a running episode can be in.
                state = rng.choices(list(Phase), weights=(1, 4, 4, 8, 4, 4, 0))[0]
                sup.phase = ref.phase = GraspPhase(state, now - rng.uniform(0, 12))
            now, flags, fresh, last = _random_instant(rng, now, last)
            before = ref.phase.state
            got, want = _step(sup, flags, now, fresh), _step(ref, flags, now, fresh)
            assert got == want, (instants, before, flags, fresh)
            assert (sup.phase, sup.transitions, sup.terminated,
                    sup.regrasp_count) == (ref.phase, ref.transitions,
                                           ref.terminated, ref.regrasp_count)
            instants += 1
            seen[want[1][0] if want[1] else before] += 1
            for cmd in want[0] or ():
                seen[(before, cmd.kind)] += 1
    # The walk reached every phase, stale flags and every command.
    assert seen[ValueError] > 50
    for state in (Phase.CLOSING, Phase.CONTACTED, Phase.STABLE,
                  Phase.DISTURBED, Phase.REGRASPING):
        assert seen[state] > 50, state
    for pair in ((Phase.CLOSING, CommandKind.RELEASE),
                 (Phase.CONTACTED, CommandKind.CLOSE_VALVES),
                 (Phase.CONTACTED, CommandKind.REGRASP),
                 (Phase.CONTACTED, CommandKind.RELEASE),
                 (Phase.STABLE, CommandKind.REOPEN_VALVES),
                 (Phase.STABLE, CommandKind.RELEASE),
                 (Phase.DISTURBED, CommandKind.CLOSE_VALVES),
                 (Phase.DISTURBED, CommandKind.REGRASP),
                 (Phase.REGRASPING, CommandKind.REOPEN_VALVES)):
        assert seen[pair] > 0, pair


def _every_supervisor_case():
    """Every supervisor state crossed with every input of one period:
    7 phases x pending regrasp x regrasp count 0-3 x stale timer (unset,
    running, timed out) x phase timer (before or after its deadline) x
    4 x 4 flag kinds x fresh1 x fresh2 x flag age (fresh, or finger 2
    stale): 43,008 cases. Yields (supervisor, flags, now, fresh)."""
    now, timeout = 20.0, TH.no_contact_timeout_s
    # 0.5 s in a phase is inside both the regrasp hold and the closing
    # timeout; the timeout is past both.
    for (state, pending, count, stale_since, entered, kind1, kind2, fresh1,
         fresh2, age2) in itertools.product(
            Phase, (False, True), range(MAX_REGRASPS + 1),
            (None, now - 1.0, now - timeout), (now - 0.5, now - timeout),
            FlagKind, FlagKind, (True, False), (True, False), (0.0, 3 * DT)):
        sup = GraspSupervisor()
        sup.phase = GraspPhase(state, entered)
        sup._pending_regrasp = pending
        sup.regrasp_count = count
        sup._stale_since = stale_since
        flags = (PerceptionFlag(1, kind1, now),
                 PerceptionFlag(2, kind2, now - age2))
        yield sup, flags, now, (fresh1, fresh2)


def test_every_supervisor_case_keeps_the_phase_rules():
    seen = Counter()
    for sup, flags, now, fresh in _every_supervisor_case():
        state = sup.phase.state
        before = dict(vars(sup), transitions=list(sup.transitions))
        try:
            cmds = sup.update(*flags, now, *fresh)
        except ValueError as exc:
            assert str(exc).startswith("finger 2 flag is 0.099s old")
            assert vars(sup) == before
            seen[ValueError] += 1
            continue
        for _, old, new in sup.transitions:
            assert new in LEGAL_TRANSITIONS[old], (old, new)
        # A command announces a transition; Closing -> Contacted is the
        # one silent transition.
        assert len(cmds) <= len(sup.transitions) <= 1, (state, flags, fresh)
        # Sealed and silent: a StableGrasp flag comes with a fresh
        # contact center (classify_frame), so at least one is fresh.
        if state == Phase.STABLE and any(fresh) and all(
                f.kind == FlagKind.STABLE_GRASP for f in flags):
            assert cmds == [] and sup.transitions == []
        if state == Phase.RELEASED:
            assert cmds == [] and vars(sup) == before
        assert sup.regrasp_count <= sup.max_regrasps
        assert sup.terminated == (sup.phase.state == Phase.RELEASED)
        if sup.terminated:
            # Nothing follows Released.
            ended = dict(vars(sup), transitions=list(sup.transitions))
            assert sup.update(*flags, now, *fresh) == []
            assert vars(sup) == ended
        seen["cases"] += 1
        for _, old, new in sup.transitions:
            seen[(old, new)] += 1
    # Idle and Released read no flags, so only the other five phases
    # refuse finger 2's stale flag.
    assert seen[ValueError] == 5 * 2 * 4 * 3 * 2 * 16 * 4
    assert seen["cases"] + seen[ValueError] == 43_008
    # The regrasp cap is reached from both phases that regrasp.
    assert seen[(Phase.CONTACTED, Phase.RELEASED)] > 0
    assert seen[(Phase.DISTURBED, Phase.RELEASED)] > 0


# -- supervisor ---------------------------------------------------------------


STABLE = FlagKind.STABLE_GRASP
NOTHING = FlagKind.NO_CONTACT


def drive(sup, kind1, kind2, now):
    """One update with fresh flags of these kinds; a finger has a fresh
    contact center unless its flag is NoContact."""
    return sup.update(PerceptionFlag(1, kind1, now),
                      PerceptionFlag(2, kind2, now), now,
                      fresh1=kind1 != NOTHING, fresh2=kind2 != NOTHING)


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


@pytest.mark.parametrize("period", [float("nan"), float("inf"), 0.0, -0.033])
def test_supervisor_refuses_a_bad_control_period(period):
    # NaN and -0.033 made every update refuse a flag made at `now` as
    # stale.
    with pytest.raises(ValueError, match="control_period = "):
        GraspSupervisor(control_period=period)


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
    assert sup.phase.state == Phase.RELEASED
    assert sup.transitions[-1] == (4 * DT + hold, Phase.CONTACTED,
                                   Phase.RELEASED)
    assert sup.terminated
    assert drive(sup, STABLE, STABLE, 5 * DT + hold) == []


def test_regrasp_cap_releases_from_disturbed():
    sup = settled_supervisor()
    sup.max_regrasps = 0
    drive(sup, FlagKind.REGRASP, STABLE, 1.0)  # reopen, regrasp latched
    assert sup.phase.state == Phase.DISTURBED
    cmds = drive(sup, STABLE, STABLE, 1.0 + DT)
    assert [c.kind for c in cmds] == [CommandKind.RELEASE]
    assert sup.phase.state == Phase.RELEASED
    assert sup.transitions[-1] == (1.0 + DT, Phase.DISTURBED, Phase.RELEASED)
    assert sup.terminated and sup.regrasp_count == 0
    assert drive(sup, FlagKind.REGRASP, STABLE, 1.0 + 2 * DT) == []


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
