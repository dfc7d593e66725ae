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

from .errors import InvalidSelectorError

TICK_S = 0.001  # s, the one fixed plant tick; every loop time is whole ticks
N_CHAMBERS = 8
PRESSURE_MIN = -57.0
PRESSURE_MAX = 50.0


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.chamber_time_constant <= 0:
            raise ValueError("chamber_time_constant must be > 0")
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
    sim_time: float = 0.0


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
    apply_valve_command, a serialized queue ordered by due tick with
    FIFO tie-break.
    """

    def __init__(self, config=None, initial_tanks=None):
        self.config = config or PlantConfig()
        sp_pos, sp_neg = self.config.tank_setpoints
        if initial_tanks is not None:
            sp_pos, sp_neg = initial_tanks
        self.state = PlantState(
            tank_pos=float(sp_pos),
            tank_neg=float(sp_neg),
            chamber_pressures=np.zeros(N_CHAMBERS),
            valve_states=np.zeros(N_CHAMBERS, dtype=np.int64),
        )
        self.tick = 0
        self._queue = []  # heap of (due_tick, submit_seq, chamber, command)
        self._seq = 0
        # First tick at which each chamber sees tank flow after its valve
        # opened (models line transit).
        self._flow_from = [0] * N_CHAMBERS
        # Precomputed exact first-order step factor.
        self._alpha = 1.0 - math.exp(-TICK_S / self.config.chamber_time_constant)

    # -- command side -----------------------------------------------------

    def apply_valve_command(self, selector, command):
        """Queue a valve change; it takes effect after valve_latency.

        selector: one chamber index or an iterable of indices in [0, 8).
        """
        if command not in (-1, 0, 1):
            raise ValueError(f"valve command must be -1, 0 or +1, got {command}")
        chambers = self._resolve_selector(selector)
        due = self.tick + self.config.ticks(self.config.valve_latency)
        for ch in chambers:
            heapq.heappush(self._queue, (due, self._seq, ch, int(command)))
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

        # Deliver due valve commands in (due, fifo) order.
        queue = self._queue
        while queue and queue[0][0] <= now:
            _, _, ch, command = heapq.heappop(queue)
            if state.valve_states[ch] != command:
                state.valve_states[ch] = command
                if command != 0:
                    self._flow_from[ch] = now + cfg.ticks(cfg.line_delay)

        # Safety loop: pumps and tank clamping.
        state.pump_pos_on, state.pump_neg_on = safety_loop(state, cfg)
        if state.pump_pos_on:
            state.tank_pos += cfg.pump_rate * TICK_S
        if state.pump_neg_on:
            state.tank_neg -= cfg.pump_rate * TICK_S
        state.tank_pos = min(max(state.tank_pos, PRESSURE_MIN), PRESSURE_MAX)
        state.tank_neg = min(max(state.tank_neg, PRESSURE_MIN), PRESSURE_MAX)

        # First-order chamber dynamics toward the connected tank; sealed
        # chambers hold their pressure exactly. The loop runs on Python
        # floats (the same float64 arithmetic as numpy scalars, without
        # their per-element cost) and writes the array back once.
        valves = state.valve_states.tolist()
        if any(valves):
            pressures = state.chamber_pressures.tolist()
            alpha = self._alpha
            for ch, v in enumerate(valves):
                if v == 0 or now < self._flow_from[ch]:
                    continue
                target = state.tank_pos if v > 0 else state.tank_neg
                p = pressures[ch]
                p += (target - p) * alpha
                pressures[ch] = min(max(p, PRESSURE_MIN), PRESSURE_MAX)
            state.chamber_pressures[:] = pressures

        state.sim_time = self.tick * TICK_S
        return state

    def run(self, ticks):
        for _ in range(ticks):
            self.step()
        return self.state

    def trace_row(self):
        """One trace record: sim_time, tanks, chambers, valve states."""
        s = self.state
        return ([s.sim_time, s.tank_pos, s.tank_neg]
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
