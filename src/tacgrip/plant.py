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
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from .errors import InvalidSelectorError, check_range

TICK_S = 0.001  # s, the one fixed plant tick; every loop time is whole ticks
N_CHAMBERS = 8
PRESSURE_MIN = -57.0
PRESSURE_MAX = 50.0
# Longest delay, s. Any delay this long outlasts every episode; far
# longer ones (past ~1.8e305 s) overflow the tick count to infinity.
_MAX_DELAY_S = 3600.0


@dataclass
class PlantConfig:
    valve_latency: float = 0.010  # s, command to valve actuation
    control_delay: float = 0.050  # s, perception decision to MCU execution
    line_delay: float = 0.050  # s, valve opening to pressure onset (500 mm line)
    chamber_time_constant: float = 0.15  # s
    tank_setpoints: Tuple[float, float] = (45.0, -52.0)  # (positive, negative) kPa
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
        pos, neg = self.tank_setpoints
        if not (PRESSURE_MIN <= neg < pos <= PRESSURE_MAX):
            raise ValueError(
                f"tank setpoints ({pos}, {neg}) outside "
                f"[{PRESSURE_MIN}, {PRESSURE_MAX}] kPa or misordered"
            )

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
    sp_pos, sp_neg = config.tank_setpoints
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
    apply_valve_command onto the one valve queue, ordered by due tick
    with ties in submission order (a step applies the changes landing on
    it in that order). Valve states change only through that queue, and
    the MCU's control delay rides on it too. `tick` is the clock: the
    simulated time is tick * TICK_S.

    A tick costs only what changes on it. A sealed tick (every valve
    sealed, both pumps off, no command due) tests the queue head, runs
    the safety loop and advances the tick; it reads and writes no array.
    Chamber updates run for open valves only, and a tank is pumped and
    clamped only while its pump runs (a tank that no pump moves stays
    inside the limits it started in).
    """

    def __init__(self, config=None, initial_tanks=None):
        self.config = config or PlantConfig()
        sp_pos, sp_neg = self.config.tank_setpoints
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
        # heap of (landing tick, due tick, submission seq, chamber, command)
        self._queue = []
        self._seq = 0
        # First tick at which each chamber sees tank flow after its valve
        # opened (models line transit).
        self._flow_from = [0] * N_CHAMBERS
        # (chamber, valve state) of each open valve, rebuilt whenever
        # commands are delivered.
        self._open = []
        # Precomputed exact first-order step factor.
        self._alpha = 1.0 - math.exp(-TICK_S / self.config.chamber_time_constant)

    # -- command side -----------------------------------------------------

    def apply_valve_command(self, selector, command, after_ticks=0):
        """Queue a valve change; it reaches the valve driver after_ticks
        from now and is due valve_latency after that.

        A step applies what is due at or before its tick, so a change
        lands no sooner than the step after it reaches the driver: with
        no valve latency, a tick after it is due.

        selector: one chamber index or an iterable of indices in [0, 8).
        """
        if command not in (-1, 0, 1):
            raise ValueError(f"valve command must be -1, 0 or +1, got {command}")
        chambers = self._resolve_selector(selector)
        arrives = self.tick + after_ticks
        due = arrives + self.config.ticks(self.config.valve_latency)
        lands = max(due, arrives + 1)
        command = int(command)
        for ch in chambers:
            heapq.heappush(self._queue, (lands, due, self._seq, ch, command))
            self._seq += 1

    @staticmethod
    def _resolve_selector(selector):
        if isinstance(selector, (int, np.integer)):
            chambers = [int(selector)]
        else:
            try:
                chambers = [int(c) for c in selector]
            except TypeError:
                raise InvalidSelectorError(f"bad chamber selector {selector!r}")
        if not chambers:
            raise InvalidSelectorError("empty chamber selector")
        for ch in chambers:
            if not 0 <= ch < N_CHAMBERS:
                raise InvalidSelectorError(f"chamber index {ch} outside [0, 8)")
        return chambers

    # -- time side --------------------------------------------------------

    def step(self):
        """Advance exactly one tick of TICK_S seconds."""
        cfg = self.config
        state = self.state
        self.tick += 1
        now = self.tick

        # Deliver the valve commands landing now in (due, fifo) order.
        queue = self._queue
        if queue and queue[0][0] <= now:
            valves = state.valve_states
            while queue and queue[0][0] <= now:
                _, _, _, ch, command = heapq.heappop(queue)
                if valves[ch] != command:
                    valves[ch] = command
                    if command != 0:
                        self._flow_from[ch] = now + cfg.ticks(cfg.line_delay)
            self._open = [(ch, v) for ch, v in enumerate(valves.tolist()) if v]

        # Safety loop: pumps, and clamping the tank a pump moved. A pump
        # moves its tank one way, so only the limit on that side binds.
        pos_on, neg_on = safety_loop(state, cfg)
        state.pump_pos_on, state.pump_neg_on = pos_on, neg_on
        if pos_on:
            state.tank_pos = min(state.tank_pos + cfg.pump_rate * TICK_S,
                                 PRESSURE_MAX)
        if neg_on:
            state.tank_neg = max(state.tank_neg - cfg.pump_rate * TICK_S,
                                 PRESSURE_MIN)

        # First-order chamber dynamics toward the connected tank, for the
        # open valves whose line has filled; sealed chambers hold their
        # pressure exactly. Python floats carry the same float64
        # arithmetic as numpy scalars, without their per-element cost.
        if self._open:
            pressures = state.chamber_pressures
            alpha = self._alpha
            flow_from = self._flow_from
            for ch, v in self._open:
                if now < flow_from[ch]:
                    continue
                target = state.tank_pos if v > 0 else state.tank_neg
                p = pressures.item(ch)
                p += (target - p) * alpha
                pressures[ch] = min(max(p, PRESSURE_MIN), PRESSURE_MAX)

        return state

    def run(self, ticks):
        for _ in range(ticks):
            self.step()
        return self.state

    def trace_row(self):
        """One trace record: time, tanks, chambers, valve states."""
        s = self.state
        return ([self.tick * TICK_S, s.tank_pos, s.tank_neg]
                + [float(p) for p in s.chamber_pressures]
                + [int(v) for v in s.valve_states])


TRACE_COLUMNS = (["t", "tank_pos", "tank_neg"]
                 + [f"ch{i}" for i in range(N_CHAMBERS)]
                 + [f"v{i}" for i in range(N_CHAMBERS)])


def write_plant_trace_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            out = [f"{row[0]:.3f}"]
            out += [f"{v:.6f}" for v in row[1:3 + N_CHAMBERS]]
            out += [str(int(v)) for v in row[3 + N_CHAMBERS:]]
            writer.writerow(out)
