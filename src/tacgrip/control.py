"""Grasp controller: displacement classification, the grasp phase
machine, and the framed serial protocol to the valve MCU.

Per finger, the latest contact-center displacement D is classified into
StableGrasp / DisturbanceOccured / Regrasp / NoContact against the
thresholds T1 and T2. The supervisor reads both finger flags in its
current phase and emits valve commands: seal on dual stability, reopen
on disturbance, regrasp on slip, release when nothing is touched for
too long.
"""

import bisect
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

from .errors import NoDisturbanceError, check_range
from .plant import N_CHAMBERS, TICK_S

CONTROL_PERIOD_TICKS = 33  # plant ticks per control instant, ~30 Hz frame rate
CONTROL_PERIOD_S = CONTROL_PERIOD_TICKS * TICK_S
DEFAULT_GRASP_MASK = 0xFF

REGRASP_RELEASE_S = 1.0  # suction phase of a regrasp
REGRASP_PAUSE_S = 0.5  # sealed pause before closing again
MAX_REGRASPS = 3

_EPS = 1e-9


def is_fresh(age, control_period):
    """Whether a sample `age` seconds old is fresh: at most two control
    periods old."""
    return age <= 2.0 * control_period + _EPS


def has_fresh_contact(track, now, control_period=CONTROL_PERIOD_S):
    """The one freshness rule for a finger's latest contact center."""
    return bool(track.timestamps) and is_fresh(now - track.timestamps[-1],
                                               control_period)


@dataclass(frozen=True)
class ControlThresholds:
    t1_mm: float = 0.5
    t2_mm: float = 5.0
    stability_window_s: float = 3.0
    no_contact_timeout_s: float = 10.0
    # Fraction of the nominal sample count that must be present inside
    # the stability window (guards against sparse tracks).
    window_coverage: float = 0.9

    def __post_init__(self):
        check_range("t1_mm", self.t1_mm, lo=0.0, lo_open=True)
        check_range("t2_mm", self.t2_mm, lo=self.t1_mm, lo_open=True)
        for name in ("stability_window_s", "no_contact_timeout_s"):
            check_range(name, getattr(self, name), lo=0.0, lo_open=True)
        check_range("window_coverage", self.window_coverage, lo=0.0, hi=1.0)


class FlagKind(Enum):
    STABLE_GRASP = "StableGrasp"
    DISTURBANCE_OCCURED = "DisturbanceOccured"
    REGRASP = "Regrasp"
    NO_CONTACT = "NoContact"


class PerceptionFlag(NamedTuple):
    """One finger's classification at a control instant: immutable,
    hashable and compared field by field, as a tuple is."""

    finger_id: int
    kind: FlagKind
    timestamp: float


class Phase(Enum):
    IDLE = "idle"
    CLOSING = "closing"
    CONTACTED = "contacted"
    STABLE = "stable"
    DISTURBED = "disturbed"
    REGRASPING = "regrasping"
    RELEASED = "released"


LEGAL_TRANSITIONS = {
    Phase.IDLE: {Phase.CLOSING},
    Phase.CLOSING: {Phase.CONTACTED, Phase.RELEASED},
    Phase.CONTACTED: {Phase.STABLE, Phase.REGRASPING, Phase.RELEASED},
    Phase.STABLE: {Phase.DISTURBED, Phase.RELEASED},
    Phase.DISTURBED: {Phase.STABLE, Phase.REGRASPING, Phase.RELEASED},
    Phase.REGRASPING: {Phase.CLOSING},
    Phase.RELEASED: set(),
}


@dataclass
class GraspPhase:
    state: Phase = Phase.IDLE
    entered_at: float = 0.0


class CommandKind(IntEnum):
    CLOSE_VALVES = 0x01
    REOPEN_VALVES = 0x02
    REGRASP = 0x03
    RELEASE = 0x04


@dataclass(frozen=True)
class McuCommand:
    kind: CommandKind
    valve_mask: int = DEFAULT_GRASP_MASK


def classify_frame(track, thresholds, now, control_period=CONTROL_PERIOD_S):
    """Classify one finger's track into a perception flag at time `now`.

    NoContact without fresh contact (has_fresh_contact). Otherwise,
    Regrasp: latest D > T2. DisturbanceOccured: latest D in (T1, T2].
    StableGrasp: every D in the trailing stability window is <= T1
    (inclusive) and the window is fully populated. NoContact otherwise.
    A call costs O(log N) for a track of N samples, whatever the length
    of the stability window.
    """
    t1, t2 = thresholds.t1_mm, thresholds.t2_mm

    if not has_fresh_contact(track, now, control_period):
        return PerceptionFlag(track.finger_id, FlagKind.NO_CONTACT, now)

    if track.displacements:
        d = track.displacements[-1]
        if d > t2:
            return PerceptionFlag(track.finger_id, FlagKind.REGRASP, now)
        if d > t1:
            return PerceptionFlag(track.finger_id, FlagKind.DISTURBANCE_OCCURED, now)

    if _window_stable(track, thresholds, now, control_period):
        return PerceptionFlag(track.finger_id, FlagKind.STABLE_GRASP, now)
    return PerceptionFlag(track.finger_id, FlagKind.NO_CONTACT, now)


def _window_stable(track, thresholds, now, control_period):
    """Whether the track spans the window, which holds enough samples
    and none above T1.

    Displacement i belongs to timestamps[i + 1]. ContactTrack.append
    keeps timestamps strictly increasing and displacements finite, so
    the first in-window sample is found by bisection, and the window's
    largest displacement by the track's suffix-maximum index
    (ContactTrack.max_displacement_from). An empty window holds no
    violation.
    """
    window = thresholds.stability_window_s
    times, disps = track.timestamps, track.displacements
    if not disps or now - times[1] < window - _EPS:
        return False
    lo = bisect.bisect_right(times, now - window - _EPS, 1) - 1
    peak = track.max_displacement_from(lo)
    if peak is not None and peak > thresholds.t1_mm:
        return False
    needed = int(math.ceil(thresholds.window_coverage * window / control_period))
    return len(disps) - lo >= needed


class GraspSupervisor:
    """Runs the grasp phase machine and emits edge-triggered commands.

    Commands are produced only on phase transitions (seal idempotence: a
    sealed stable grasp stays silent). The regrasp command releases and
    pauses; re-entering Closing restarts the closing actuation. After
    max_regrasps failed attempts the supervisor emits Release and enters
    Released, the one terminal phase.
    """

    def __init__(self, thresholds=None, grasp_mask=DEFAULT_GRASP_MASK,
                 control_period=CONTROL_PERIOD_S, max_regrasps=MAX_REGRASPS):
        check_range("control_period", control_period, lo=0.0, lo_open=True)
        self.thresholds = thresholds or ControlThresholds()
        self.grasp_mask = grasp_mask
        self.control_period = control_period
        self.max_regrasps = max_regrasps
        self.phase = GraspPhase(Phase.IDLE, 0.0)
        self.regrasp_count = 0
        self.transitions = []  # (time, from, to) audit trail
        self._stale_since = None
        # Set when a slip is seen while sealed: the mandatory Disturbed
        # hop must fire the regrasp on the following period even though
        # the displacement signal has already settled by then.
        self._pending_regrasp = False

    def _enter(self, new_state, now, kind=None):
        """Move to `new_state` and return the commands that announce it:
        one of `kind`, or none."""
        old = self.phase.state
        if new_state not in LEGAL_TRANSITIONS[old]:
            raise RuntimeError(f"illegal phase transition {old} -> {new_state}")
        self.transitions.append((now, old, new_state))
        self.phase = GraspPhase(new_state, now)
        return [] if kind is None else [self._command(kind)]

    @property
    def terminated(self):
        """Whether the episode has ended: the phase is Released."""
        return self.phase.state == Phase.RELEASED

    def _command(self, kind):
        return McuCommand(kind=kind, valve_mask=self.grasp_mask)

    def start(self, now=0.0):
        """Idle -> Closing; pressurizes the grasp chambers."""
        return self._enter(Phase.CLOSING, now, CommandKind.REOPEN_VALVES)

    def update(self, flag1, flag2, now, fresh1, fresh2):
        """Advance the phase machine one control period.

        fresh1/fresh2: whether each finger currently has a fresh contact
        center, by has_fresh_contact. Returns the list of commands to put
        on the wire this period: none once Released. Raises ValueError,
        changing nothing, when either flag is more than two control
        periods old.

        Flag priority: a Regrasp flag on either finger (a slip) outranks
        a DisturbanceOccured flag, which outranks StableGrasp on both
        fingers; one stable finger changes nothing. Two timeouts, each
        of no_contact_timeout_s, release the grasp. In Closing, two
        NoContact flags release it that long after Closing was entered.
        In Contacted, Stable and Disturbed, a stale contact releases it
        (or regrasps) that long after the first period in which neither
        finger had a fresh contact center.
        """
        state = self.phase.state
        if state in (Phase.IDLE, Phase.RELEASED):
            return []
        for flag in (flag1, flag2):
            if not is_fresh(now - flag.timestamp, self.control_period):
                raise ValueError(
                    f"finger {flag.finger_id} flag is {now - flag.timestamp:.3f}s old"
                )
        kinds = (flag1.kind, flag2.kind)
        slip = FlagKind.REGRASP in kinds
        moved = slip or FlagKind.DISTURBANCE_OCCURED in kinds
        stable = kinds == (FlagKind.STABLE_GRASP, FlagKind.STABLE_GRASP)

        if fresh1 or fresh2:
            self._stale_since = None
        elif self._stale_since is None:
            self._stale_since = now
        stale = self._timed_out(self._stale_since, now)

        if state == Phase.CLOSING:
            if kinds == (FlagKind.NO_CONTACT, FlagKind.NO_CONTACT) \
                    and self._timed_out(self.phase.entered_at, now):
                return self._enter(Phase.RELEASED, now, CommandKind.RELEASE)
            if fresh1 and fresh2:
                self._enter(Phase.CONTACTED, now)
            return []

        if state == Phase.CONTACTED:
            if stable:
                return self._enter(Phase.STABLE, now, CommandKind.CLOSE_VALVES)
            if slip or stale:
                return self._regrasp_or_release(now)
            return []

        if state == Phase.STABLE:
            if moved:
                # A slip routes through Disturbed first; the regrasp
                # follows on the next period.
                self._pending_regrasp = slip
                return self._enter(Phase.DISTURBED, now,
                                   CommandKind.REOPEN_VALVES)
            if stale:
                return self._enter(Phase.RELEASED, now, CommandKind.RELEASE)
            return []

        if state == Phase.DISTURBED:
            if self._pending_regrasp or slip or stale:
                self._pending_regrasp = False
                return self._regrasp_or_release(now)
            if stable:
                return self._enter(Phase.STABLE, now, CommandKind.CLOSE_VALVES)
            return []

        if state == Phase.REGRASPING:
            # Flags are ignored while the fingers move; once the release
            # and pause have elapsed, close again.
            if now - self.phase.entered_at >= REGRASP_RELEASE_S + REGRASP_PAUSE_S - _EPS:
                return self._enter(Phase.CLOSING, now, CommandKind.REOPEN_VALVES)
            return []

        return []

    def _timed_out(self, since, now):
        return (since is not None
                and now - since >= self.thresholds.no_contact_timeout_s - _EPS)

    def _regrasp_or_release(self, now):
        if self.regrasp_count >= self.max_regrasps:
            return self._enter(Phase.RELEASED, now, CommandKind.RELEASE)
        self.regrasp_count += 1
        return self._enter(Phase.REGRASPING, now, CommandKind.REGRASP)


# -- MCU wire protocol ------------------------------------------------------

FRAME_SYNC = 0xAA


def encode_frame(command):
    """4-byte frame: sync, command code, valve mask, XOR checksum."""
    code = int(command.kind)
    mask = command.valve_mask
    if not 0 <= mask <= 0xFF:
        raise ValueError(f"valve mask {mask} does not fit one byte")
    return bytes([FRAME_SYNC, code, mask, code ^ mask])


def decode_frame(frame):
    if len(frame) != 4:
        raise ValueError(f"frame must be 4 bytes, got {len(frame)}")
    sync, code, mask, checksum = frame
    if sync != FRAME_SYNC:
        raise ValueError(f"bad sync byte 0x{sync:02X}")
    if checksum != (code ^ mask):
        raise ValueError("checksum mismatch")
    try:
        kind = CommandKind(code)
    except ValueError:
        raise ValueError(f"unknown command code 0x{code:02X}")
    return kind, mask


def mask_chambers(mask):
    return [i for i in range(N_CHAMBERS) if (mask >> i) & 1]


class McuEmulator:
    """Executes framed commands against the plant with the control delay.

    Frames submitted at a control tick are decoded at once, and each of
    their valve changes goes straight onto the plant's valve queue, the
    one delay line from decision to valve: it reaches the valve driver
    control_delay later, mirroring the high-level-to-MCU path, and the
    valve valve_latency after that. The suction of a regrasp or release
    is sealed REGRASP_RELEASE_S after it starts.
    """

    def __init__(self, plant):
        self.plant = plant
        self.executed = []  # (tick, CommandKind, mask) log

    def submit(self, frame):
        """Decode a frame and queue its valve changes; raises ValueError,
        queuing nothing, for a frame that is malformed or selects no
        chamber."""
        kind, mask = decode_frame(frame)
        chambers = mask_chambers(mask)
        if not chambers:
            raise ValueError(f"{kind.name} frame selects no chamber (mask 0x00)")
        plant = self.plant
        delay = plant.config.ticks(plant.config.control_delay)
        self.executed.append((plant.tick + delay, kind, mask))

        if kind == CommandKind.CLOSE_VALVES:
            plant.apply_valve_command(chambers, 0, after_ticks=delay)
        elif kind == CommandKind.REOPEN_VALVES:
            plant.apply_valve_command(chambers, +1, after_ticks=delay)
        else:  # REGRASP or RELEASE: suction, then seal
            plant.apply_valve_command(chambers, -1, after_ticks=delay)
            plant.apply_valve_command(
                chambers, 0,
                after_ticks=delay + plant.config.ticks(REGRASP_RELEASE_S))

    def on_tick(self):
        """A no-op: submit puts every valve change on the plant's queue.

        Kept, like PlantConfig.tick_dt, only for the benchmark's
        long_hold loop, which calls and traces it once per tick.
        """


# -- diagnostics -------------------------------------------------------------


def measure_valve_response(trace_rows, onset_time):
    """Seconds from a disturbance onset to the first valve-state change.

    trace_rows: plant trace rows (time first, valve states last per
    plant.TRACE_COLUMNS). Raises NoDisturbanceError when no valve
    changes after the onset.
    """
    if onset_time is None:
        raise NoDisturbanceError("no disturbance onset in the episode")
    prev = None
    for row in trace_rows:
        t = row[0]
        valves = tuple(int(v) for v in row[-N_CHAMBERS:])
        if prev is not None and t > onset_time and valves != prev:
            return t - onset_time
        prev = valves
    raise NoDisturbanceError(
        f"no valve actuation after onset at t={onset_time:.3f}s"
    )
