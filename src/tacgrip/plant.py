"""Double closed-loop pneumatic plant simulation.

Eight actuator chambers hang off two buffer tanks (positive and
negative) through three-state valves: +1 connects a chamber to the
positive tank, -1 to the negative tank, 0 seals it. A safety loop
bang-bang regulates the tanks to their setpoints and hard-clamps
everything inside the actuator limits; the task loop (the grasp
controller) drives the valves. Fixed-step simulation at 1 ms ticks,
integer-tick scheduling throughout, fully deterministic.
"""

import csv
import heapq
import math
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import check_range

TICK_S = 0.001  # s, the one fixed plant tick; every loop time is whole ticks
N_CHAMBERS = 8
PRESSURE_MIN = -57.0
PRESSURE_MAX = 50.0
# Longest delay, s. Any delay this long outlasts every episode; far
# longer ones (past ~1.8e305 s) overflow the tick count to infinity.
_MAX_DELAY_S = 3600.0


@dataclass(frozen=True)
class PlantConfig:
    valve_latency: float = 0.010  # s, command to valve actuation
    control_delay: float = 0.050  # s, perception decision to MCU execution
    line_delay: float = 0.050  # s, valve opening to pressure onset (500 mm line)
    chamber_time_constant: float = 0.15  # s
    tank_pos_setpoint: float = 45.0  # kPa
    tank_neg_setpoint: float = -52.0  # kPa
    tank_hysteresis: float = 2.0  # kPa
    pump_rate: float = 40.0  # kPa/s while a pump runs
    tick_dt: ClassVar[float] = TICK_S  # alias of TICK_S, not a field

    def __post_init__(self):
        for name in ("valve_latency", "control_delay", "line_delay"):
            check_range(name, getattr(self, name), lo=0.0, hi=_MAX_DELAY_S)
        check_range("tank_hysteresis", self.tank_hysteresis, lo=0.0)
        check_range("chamber_time_constant", self.chamber_time_constant,
                    lo=0.0, lo_open=True)
        check_range("pump_rate", self.pump_rate, lo=0.0, lo_open=True)
        check_range("tank_neg_setpoint", self.tank_neg_setpoint,
                    lo=PRESSURE_MIN, hi=PRESSURE_MAX)
        check_range("tank_pos_setpoint", self.tank_pos_setpoint,
                    lo=self.tank_neg_setpoint, hi=PRESSURE_MAX, lo_open=True)

    def ticks(self, seconds):
        """Delay in whole ticks, rounded up so effects are never early."""
        return max(0, int(math.ceil(seconds / TICK_S - 1e-9)))


@dataclass
class PlantState:
    tank_pos: float
    tank_neg: float
    chamber_pressures: np.ndarray  # (8,) kPa
    valve_states: np.ndarray  # (8,) ints in {+1, 0, -1}
    pump_pos_on: bool = False
    pump_neg_on: bool = False


def safety_loop(state, config):
    """Bang-bang pump commands regulating both tanks to their setpoints.

    A pump switches on when its tank drifts past setpoint by the
    hysteresis band on the depleted side and runs until the far band
    edge is crossed.
    """
    sp_pos, sp_neg = config.tank_pos_setpoint, config.tank_neg_setpoint
    hys = config.tank_hysteresis
    pos_on, neg_on = state.pump_pos_on, state.pump_neg_on
    if state.tank_pos < sp_pos - hys:
        pos_on = True
    elif state.tank_pos >= sp_pos + hys:
        pos_on = False
    if state.tank_neg > sp_neg + hys:
        neg_on = True
    elif state.tank_neg <= sp_neg - hys:
        neg_on = False
    return pos_on, neg_on


class PneumaticPlant:
    """Owns the plant state and advances it one tick at a time.

    Exactly one owner may call step(); command submission goes through
    apply_valve_command onto the one valve queue, ordered by landing tick
    with ties in submission order (a step applies the changes landing on
    it in that order). Valve states change only through that queue, and
    the MCU's control delay rides on it too. `tick` is the clock: the
    simulated time is tick * TICK_S. The config is frozen, so the valve
    latency, line delay and step factor `_alpha` hold for the whole run.

    A tick costs only what changes on it. Chamber updates run for the
    chambers in `_open` only: the open valves, less each chamber whose
    last update left its pressure bit-equal. Its valve and its tank are
    unchanged since, so every later update would give the same bits.
    `_open` is built from the valve states on the first step, and
    rebuilt whenever a command lands and whenever a pump moves a tank.
    A tank is pumped and clamped only while its pump runs (a tank that
    no pump moves stays inside the limits it started in), and after a
    tick on which the safety loop turns both pumps off, no tank moves
    again, so the loop is not run again and both pump flags stay False.
    A tick with nothing to update (pumps idle, no chamber in `_open`, no
    command landing) advances the tick and returns first; it reads
    nothing else and writes no array.

    Both rules rest on one contract: a caller may set `state` before the
    first step, but once stepping has begun, the plant changes only
    through apply_valve_command and step.
    """

    def __init__(self, config=None, initial_tanks=None):
        self.config = cfg = config or PlantConfig()
        sp_pos, sp_neg = cfg.tank_pos_setpoint, cfg.tank_neg_setpoint
        if initial_tanks is not None:
            sp_pos, sp_neg = initial_tanks
            # step() clamps a tank only while its pump runs, so a tank
            # must start inside the limits.
            for name, value in (("tank_pos", sp_pos), ("tank_neg", sp_neg)):
                check_range(f"initial {name}", value,
                            lo=PRESSURE_MIN, hi=PRESSURE_MAX)
        self.state = PlantState(
            tank_pos=float(sp_pos),
            tank_neg=float(sp_neg),
            chamber_pressures=np.zeros(N_CHAMBERS),
            valve_states=np.zeros(N_CHAMBERS, dtype=np.int64),
        )
        self.tick = 0
        # heap of (landing tick, submission seq, chamber, command)
        self._queue = []
        self._seq = 0
        # First tick at which each chamber sees tank flow after its valve
        # opened (models line transit).
        self._flow_from = [0] * N_CHAMBERS
        # (chamber, valve state) of each open valve whose chamber may
        # still move; see the class docstring.
        self._open = []
        # True once the safety loop has turned both pumps off for good.
        self._pumps_idle = False
        # Precomputed exact first-order step factor; the config is frozen.
        self._alpha = 1.0 - math.exp(-TICK_S / self.config.chamber_time_constant)

    # -- command side -----------------------------------------------------

    def apply_valve_command(self, selector, command, after_ticks=0):
        """Queue a valve change; it reaches the valve driver after_ticks
        from now and lands valve_latency after that, but no sooner than
        the step after it arrives: a step applies what lands at or before
        its tick, by landing tick, then submission order.

        selector: one chamber index or an iterable of indices in [0, 8).
        after_ticks: a whole number of ticks >= 0 (ValueError otherwise).
        """
        if command not in (-1, 0, 1):
            raise ValueError(f"valve command must be -1, 0 or +1, got {command}")
        if not isinstance(after_ticks, (int, np.integer)) or after_ticks < 0:
            raise ValueError(f"after_ticks must be a whole number of ticks "
                             f">= 0, got {after_ticks!r}")
        chambers = self._resolve_selector(selector)
        lands = (self.tick + int(after_ticks)
                 + max(self.config.ticks(self.config.valve_latency), 1))
        command = int(command)
        for ch in chambers:
            heapq.heappush(self._queue, (lands, self._seq, ch, command))
            self._seq += 1

    @staticmethod
    def _resolve_selector(selector):
        if isinstance(selector, (int, np.integer)):
            chambers = [int(selector)]
        else:
            try:
                chambers = [int(c) for c in selector]
            except TypeError:
                raise ValueError(f"bad chamber selector {selector!r}")
        if not chambers:
            raise ValueError("empty chamber selector")
        for ch in chambers:
            if not 0 <= ch < N_CHAMBERS:
                raise ValueError(f"chamber index {ch} outside [0, 8)")
        return chambers

    # -- time side --------------------------------------------------------

    def step(self):
        """Advance exactly one tick of TICK_S seconds."""
        self.tick += 1
        now = self.tick
        queue = self._queue
        if (self._pumps_idle and not self._open
                and not (queue and queue[0][0] <= now)):
            return self.state
        cfg = self.config
        state = self.state

        # Deliver the valve commands landing now, in submission order.
        # The first step also scans the valves a caller may have set.
        rescan = now == 1
        if queue and queue[0][0] <= now:
            valves = state.valve_states
            while queue and queue[0][0] <= now:
                _, _, ch, command = heapq.heappop(queue)
                if valves[ch] != command:
                    valves[ch] = command
                    if command != 0:
                        self._flow_from[ch] = now + cfg.ticks(cfg.line_delay)
            rescan = True

        # Safety loop: pumps, and clamping the tank a pump moved. A pump
        # moves its tank one way, so only the limit on that side binds.
        if not self._pumps_idle:
            pos_on, neg_on = safety_loop(state, cfg)
            state.pump_pos_on, state.pump_neg_on = pos_on, neg_on
            tanks = state.tank_pos, state.tank_neg
            if pos_on:
                state.tank_pos = min(state.tank_pos + cfg.pump_rate * TICK_S,
                                     PRESSURE_MAX)
            if neg_on:
                state.tank_neg = max(state.tank_neg - cfg.pump_rate * TICK_S,
                                     PRESSURE_MIN)
            rescan = rescan or tanks != (state.tank_pos, state.tank_neg)
            self._pumps_idle = not (pos_on or neg_on)
        # A landed command or a moved tank can set a settled chamber
        # flowing again.
        if rescan:
            self._open = [(ch, v) for ch, v
                          in enumerate(state.valve_states.tolist()) if v]

        # First-order chamber dynamics toward the connected tank, for the
        # open valves whose line has filled; sealed chambers hold their
        # pressure exactly. Python floats carry the same float64
        # arithmetic as numpy scalars, without their per-element cost.
        if self._open:
            pressures = state.chamber_pressures
            alpha = self._alpha
            flow_from = self._flow_from
            settled = []
            for entry in self._open:
                ch, v = entry
                if now < flow_from[ch]:
                    continue
                target = state.tank_pos if v > 0 else state.tank_neg
                p = pressures.item(ch)
                new = min(max(p + (target - p) * alpha, PRESSURE_MIN),
                          PRESSURE_MAX)
                # A chamber settles when its update leaves it bit-equal,
                # not just ==: -0.0 steps to 0.0 toward a tank at 0.0, and
                # the trace tells the two apart.
                if new == p and (math.copysign(1.0, new)
                                 == math.copysign(1.0, p)):
                    settled.append(entry)
                else:
                    pressures[ch] = new
            if settled:
                self._open = [e for e in self._open if e not in settled]

        return state

    def run(self, ticks):
        for _ in range(ticks):
            self.step()
        return self.state

    def trace_row(self):
        """One trace record: time, tanks, chambers, valve states."""
        s = self.state
        return ([self.tick * TICK_S, s.tank_pos, s.tank_neg]
                + s.chamber_pressures.tolist() + s.valve_states.tolist())


TRACE_COLUMNS = (["t", "tank_pos", "tank_neg"]
                 + [f"ch{i}" for i in range(N_CHAMBERS)]
                 + [f"v{i}" for i in range(N_CHAMBERS)])


def write_plant_trace_csv(rows, path):
    """Write trace rows as CSV with a TRACE_COLUMNS header: the time to 3
    decimals, the pressures to 6 and the valve states as integers, lines
    ended by csv's \\r\\n; no cell needs quoting. A hold repeats one state
    for many ticks, so a row's cells after the time are formatted once per
    run of rows with the same pressure bits (struct keys tell -0.0 from
    0.0, which print apart) and the same valve states."""
    pack = struct.Struct(f"{2 + N_CHAMBERS}d").pack
    last, tail = None, ""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(TRACE_COLUMNS)
        for row in rows:
            key = (pack(*row[1:3 + N_CHAMBERS]), row[3 + N_CHAMBERS:])
            if key != last:
                last = key
                tail = ",".join(
                    [f"{v:.6f}" for v in row[1:3 + N_CHAMBERS]]
                    + [str(int(v)) for v in row[3 + N_CHAMBERS:]])
            fh.write(f"{row[0]:.3f},{tail}\r\n")
