import csv
import dataclasses
import heapq
import math

import numpy as np
import pytest

from tacgrip.plant import (N_CHAMBERS, PRESSURE_MAX, PRESSURE_MIN, TICK_S,
                           TRACE_COLUMNS, PlantConfig, PneumaticPlant,
                           safety_loop, write_plant_trace_csv)


def test_sealed_chambers_hold_exactly():
    plant = PneumaticPlant()
    plant.state.chamber_pressures[:] = [3.7, -12.25, 0.0, 44.999, -56.0,
                                        1e-9, 20.0, -0.5]
    before = plant.state.chamber_pressures.copy()
    plant.run(5000)
    assert np.array_equal(plant.state.chamber_pressures, before)


def test_pressurize_step_matches_exponential():
    plant = PneumaticPlant()
    cfg = plant.config
    plant.apply_valve_command(0, +1)
    latency = cfg.ticks(cfg.valve_latency)
    line = cfg.ticks(cfg.line_delay)
    # no flow until valve latency plus line transit have both elapsed
    plant.run(latency + line - 1)
    assert plant.state.chamber_pressures[0] == 0.0
    plant.step()
    alpha = 1.0 - math.exp(-cfg.tick_dt / cfg.chamber_time_constant)
    assert plant.state.chamber_pressures[0] == pytest.approx(45.0 * alpha,
                                                             rel=1e-15)
    # after one time constant of flow: target*(1 - e^-1)
    n = cfg.ticks(cfg.chamber_time_constant)
    plant.run(n - 1)
    expect = 45.0 * (1.0 - math.exp(-1.0))
    assert plant.state.chamber_pressures[0] == pytest.approx(expect,
                                                             rel=1e-10)


def test_valve_latency_is_exact_in_ticks():
    plant = PneumaticPlant()
    plant.apply_valve_command(2, -1)
    plant.run(plant.config.ticks(plant.config.valve_latency) - 1)
    assert plant.state.valve_states[2] == 0
    plant.step()
    assert plant.state.valve_states[2] == -1


def test_seal_freezes_pressure_mid_rise():
    plant = PneumaticPlant()
    plant.apply_valve_command(0, +1)
    plant.run(200)
    plant.apply_valve_command(0, 0)
    plant.run(plant.config.ticks(plant.config.valve_latency))
    held = float(plant.state.chamber_pressures[0])
    assert held > 0.0
    plant.run(3000)
    assert plant.state.chamber_pressures[0] == held


def test_positive_tank_bang_bang():
    plant = PneumaticPlant(initial_tanks=(40.0, -52.0))
    cfg = plant.config
    sp_pos = cfg.tank_setpoints[0]
    plant.step()
    assert plant.state.pump_pos_on  # 40 < 45 - 2
    seen_off = False
    peak = 0.0
    for _ in range(400):
        plant.step()
        peak = max(peak, plant.state.tank_pos)
        if not plant.state.pump_pos_on:
            seen_off = True
            break
    assert seen_off
    assert plant.state.tank_pos >= sp_pos + cfg.tank_hysteresis
    assert peak <= sp_pos + cfg.tank_hysteresis + cfg.pump_rate * cfg.tick_dt
    settled = plant.state.tank_pos
    plant.run(1000)
    assert plant.state.tank_pos == settled  # nothing drains it


def test_negative_tank_bang_bang():
    plant = PneumaticPlant(initial_tanks=(45.0, -45.0))
    plant.step()
    assert plant.state.pump_neg_on  # -45 > -52 + 2
    plant.run(300)
    assert not plant.state.pump_neg_on
    assert plant.state.tank_neg <= -54.0


def test_tank_clamps_at_actuator_limits():
    cfg = PlantConfig(tank_setpoints=(50.0, -57.0))
    plant = PneumaticPlant(config=cfg, initial_tanks=(47.0, -54.0))
    plant.run(2000)
    # pumps push past the setpoint but the clamp pins the tanks
    assert plant.state.tank_pos == 50.0
    assert plant.state.tank_neg == -57.0


def test_chamber_never_leaves_limits():
    cfg = PlantConfig(tank_setpoints=(50.0, -57.0))
    plant = PneumaticPlant(config=cfg)
    plant.apply_valve_command([0, 1], +1)
    plant.apply_valve_command([2, 3], -1)
    lo, hi = -57.0, 50.0
    for _ in range(3000):
        plant.step()
        assert plant.state.chamber_pressures.min() >= lo
        assert plant.state.chamber_pressures.max() <= hi


def test_selector_validation():
    plant = PneumaticPlant()
    with pytest.raises(ValueError, match=r"chamber index 8 outside \[0, 8\)"):
        plant.apply_valve_command(8, 1)
    with pytest.raises(ValueError, match=r"chamber index -1 outside \[0, 8\)"):
        plant.apply_valve_command(-1, 1)
    with pytest.raises(ValueError, match="empty chamber selector"):
        plant.apply_valve_command([], 1)
    with pytest.raises(ValueError, match="bad chamber selector <object"):
        plant.apply_valve_command(object(), 1)
    with pytest.raises(ValueError, match="valve command must be"):
        plant.apply_valve_command(0, 2)


@pytest.mark.parametrize("after_ticks", [-1, 2.5, float("nan"), "3"])
def test_after_ticks_must_be_a_whole_number_of_ticks(after_ticks):
    # -1 queued a change as if sent in the past; 2.5 put a float key on
    # the queue that delivery rounded up.
    plant = PneumaticPlant()
    with pytest.raises(ValueError, match="after_ticks"):
        plant.apply_valve_command(0, +1, after_ticks=after_ticks)
    assert plant._queue == []
    plant.apply_valve_command(0, +1, after_ticks=np.int64(2))
    assert [type(v) for v in plant._queue[0][:2]] == [int, int]


def test_trace_row_element_types():
    # repr of the row, and so every trace hash, depends on these types:
    # Python floats for time, tanks and chambers, Python ints for valves.
    plant = PneumaticPlant()
    plant.apply_valve_command([0, 1], +1)
    plant.apply_valve_command([2, 3], -1)
    for _ in range(300):
        plant.step()
        row = plant.trace_row()
        assert [type(v) for v in row] == \
            [float] * (3 + N_CHAMBERS) + [int] * N_CHAMBERS
    assert row[3 + N_CHAMBERS:] == [1, 1, -1, -1, 0, 0, 0, 0]
    assert row[3] > 0.0 > row[5]


def test_multi_chamber_selector():
    plant = PneumaticPlant()
    plant.apply_valve_command([0, 3, 5], +1)
    plant.run(plant.config.ticks(plant.config.valve_latency))
    assert list(plant.state.valve_states) == [1, 0, 0, 1, 0, 1, 0, 0]


def test_last_command_wins_fifo():
    plant = PneumaticPlant()
    plant.apply_valve_command(0, +1)
    plant.apply_valve_command(0, -1)  # same due tick, later submission
    plant.run(plant.config.ticks(plant.config.valve_latency))
    assert plant.state.valve_states[0] == -1


def test_commands_land_at_due_tick_fifo_on_ties():
    # Commands sent a varying number of ticks ahead put the queue out of
    # submission order. Each lands at its landing tick, and of those
    # landing on one tick, the last submitted wins.
    rng = np.random.default_rng(11)
    for latency in (0.0, 0.003, 0.010, 0.040):
        plant = PneumaticPlant(PlantConfig(valve_latency=latency))
        lag = max(plant.config.ticks(latency), 1)
        expected, seq = [], 0
        for tick in range(500):
            for _ in range(int(rng.choice([0] * 12 + [1, 2, 3]))):
                after = int(rng.choice([0, 0, 1, 3, 10, 40]))
                chambers = [int(c) for c in rng.choice(N_CHAMBERS,
                                                       rng.integers(1, 4),
                                                       replace=False)]
                command = int(rng.choice([-1, 0, 1]))
                plant.apply_valve_command(chambers, command,
                                          after_ticks=after)
                for ch in chambers:
                    expected.append((tick + after + lag, seq, ch, command))
                    seq += 1
            plant.step()
            want = [0] * N_CHAMBERS
            for lands, _, ch, command in sorted(expected):
                if lands <= plant.tick:
                    want[ch] = command
            assert list(plant.state.valve_states) == want, (latency,
                                                            plant.tick)
        assert seq > 100 and sorted(expected) != expected


def test_change_sent_ahead_lands_as_if_sent_on_arrival():
    # A change queued after_ticks ahead lands as the same change queued
    # on its arrival tick, ahead of that tick's own calls.
    rng = np.random.default_rng(23)
    for latency in (0.0, 0.001, 0.010):
        ahead = PneumaticPlant(PlantConfig(valve_latency=latency))
        later = PneumaticPlant(PlantConfig(valve_latency=latency))
        arriving = {}  # tick -> [(selector, command)] for `later`
        for tick in range(3000):
            for selector, command in arriving.pop(tick, []):
                later.apply_valve_command(selector, command)
            for _ in range(int(rng.choice([0] * 6 + [1, 2]))):
                chambers = [int(c) for c in rng.choice(N_CHAMBERS,
                                                       rng.integers(1, 4),
                                                       replace=False)]
                command = int(rng.choice([-1, 0, 1]))
                after = int(rng.choice([0, 0, 1, 3, 40, 1000]))
                ahead.apply_valve_command(chambers, command, after_ticks=after)
                if after:
                    arriving.setdefault(tick + after, []).append(
                        (chambers, command))
                else:
                    later.apply_valve_command(chambers, command)
            ahead.step()
            later.step()
            assert repr(ahead.trace_row()) == repr(later.trace_row()), tick


def test_tick_is_fixed():
    # one time base: the tick is readable from a config but not settable
    assert PlantConfig().tick_dt == PlantConfig.tick_dt == TICK_S == 0.001
    with pytest.raises(TypeError):
        PlantConfig(tick_dt=0.002)


def test_ticks_round_up():
    cfg = PlantConfig()
    assert cfg.ticks(0.010) == 10
    assert cfg.ticks(0.0101) == 11
    assert cfg.ticks(0.0) == 0
    assert cfg.ticks(0.00999999999) == 10


def test_config_validation():
    with pytest.raises(ValueError):
        PlantConfig(valve_latency=-0.001)
    with pytest.raises(ValueError):
        PlantConfig(chamber_time_constant=0.0)
    with pytest.raises(ValueError):
        PlantConfig(tank_setpoints=(-52.0, 45.0))
    with pytest.raises(ValueError):
        PlantConfig(tank_setpoints=(60.0, -52.0))


@pytest.mark.parametrize("key,value", [
    ("valve_latency", float("nan")), ("line_delay", float("inf")),
    ("pump_rate", -40.0), ("pump_rate", 0.0), ("tank_hysteresis", -2.0),
    ("chamber_time_constant", float("nan")),
])
def test_config_rejects_values_outside_domain(key, value):
    with pytest.raises(ValueError, match=key):
        PlantConfig(**{key: value})


def test_determinism_bitwise():
    def run_script():
        plant = PneumaticPlant()
        rows = []
        for i in range(2000):
            if i % 137 == 0:
                plant.apply_valve_command(i % N_CHAMBERS, (i // 137) % 3 - 1)
            plant.step()
            rows.append(tuple(plant.trace_row()))
        return rows

    assert run_script() == run_script()


def test_trace_csv_format(tmp_path):
    plant = PneumaticPlant()
    plant.apply_valve_command(0, +1)
    rows = []
    for _ in range(100):
        plant.step()
        rows.append(plant.trace_row())
    path = tmp_path / "trace.csv"
    write_plant_trace_csv(rows, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == TRACE_COLUMNS
        body = list(reader)
    assert len(body) == 100
    assert len(body[0]) == 3 + 2 * N_CHAMBERS
    assert body[-1][0] == "0.100"
    assert float(body[-1][3]) > 0.0  # ch0 pressurizing
    assert body[-1][11] == "1"  # v0 open positive


@pytest.mark.parametrize("tanks", [
    (float("nan"), -52.0), (45.0, float("inf")), (45.0, float("nan")),
    (50.5, -52.0), (45.0, -57.5), (-60.0, -52.0), (45.0, 51.0),
])
def test_initial_tanks_must_be_finite_and_in_limits(tanks):
    # a NaN tank used to spread silently into the chamber pressures
    with pytest.raises(ValueError, match="initial tank_"):
        PneumaticPlant(initial_tanks=tanks)


def test_initial_tanks_at_the_limits_are_accepted():
    plant = PneumaticPlant(initial_tanks=(50.0, -57.0))
    assert (plant.state.tank_pos, plant.state.tank_neg) == (50.0, -57.0)


# -- the step against the straightforward one ------------------------------


def _reference_step(plant):
    """The plant step that updates every tank and scans every valve each
    tick; PneumaticPlant.step must give the same bytes."""
    cfg = plant.config
    state = plant.state
    plant.tick += 1
    now = plant.tick

    queue = plant._queue
    while queue and queue[0][0] <= now:
        _, _, ch, command = heapq.heappop(queue)
        if state.valve_states[ch] != command:
            state.valve_states[ch] = command
            if command != 0:
                plant._flow_from[ch] = now + cfg.ticks(cfg.line_delay)

    state.pump_pos_on, state.pump_neg_on = safety_loop(state, cfg)
    if state.pump_pos_on:
        state.tank_pos += cfg.pump_rate * TICK_S
    if state.pump_neg_on:
        state.tank_neg -= cfg.pump_rate * TICK_S
    state.tank_pos = min(max(state.tank_pos, PRESSURE_MIN), PRESSURE_MAX)
    state.tank_neg = min(max(state.tank_neg, PRESSURE_MIN), PRESSURE_MAX)

    valves = state.valve_states.tolist()
    if any(valves):
        pressures = state.chamber_pressures.tolist()
        alpha = plant._alpha
        for ch, v in enumerate(valves):
            if v == 0 or now < plant._flow_from[ch]:
                continue
            target = state.tank_pos if v > 0 else state.tank_neg
            p = pressures[ch]
            p += (target - p) * alpha
            pressures[ch] = min(max(p, PRESSURE_MIN), PRESSURE_MAX)
        state.chamber_pressures[:] = pressures

    return state


def _random_plant_config(rng):
    pos = float(rng.choice([45.0, PRESSURE_MAX, rng.uniform(0.0, 50.0)]))
    neg = float(rng.choice([-52.0, PRESSURE_MIN, rng.uniform(-57.0, -1.0)]))
    return PlantConfig(
        valve_latency=float(rng.choice([0.0, 0.001, 0.003, 0.010, 0.040])),
        line_delay=float(rng.choice([0.0, 0.001, 0.007, 0.050])),
        chamber_time_constant=float(rng.choice([0.005, 0.15, 0.6])),
        tank_setpoints=(pos, neg),
        tank_hysteresis=float(rng.choice([0.0, 0.5, 2.0, 8.0])),
        pump_rate=float(rng.choice([5.0, 40.0, 400.0, 4000.0])),
    )


def test_step_matches_reference_on_random_traffic():
    rng = np.random.default_rng(1207)
    seen = dict(pumped=0, clamped=0, conflicts=0, reseals=0, flowing=0,
                held=0, lands_on_settled=0, pumped_open=0)
    for case in range(60):
        cfg = _random_plant_config(rng)
        traffic = [0] * 10 + [1, 2]
        if case >= 40:
            # the last 20: sparse commands to fast chambers, so that
            # chambers reach their fixed point before the next command
            cfg = dataclasses.replace(cfg, chamber_time_constant=0.005)
            traffic = [0] * 150 + [1]
        sp_pos, sp_neg = cfg.tank_setpoints
        hys = cfg.tank_hysteresis
        tanks = None
        if case % 3:
            # below the band, so the pumps start at once, and most runs
            # pump into a tank limit
            tanks = (float(rng.uniform(PRESSURE_MIN, max(PRESSURE_MIN,
                                                         sp_pos - hys - 0.1))),
                     float(rng.uniform(min(PRESSURE_MAX, sp_neg + hys + 0.1),
                                       PRESSURE_MAX)))
        fast = PneumaticPlant(cfg, initial_tanks=tanks)
        ref = PneumaticPlant(cfg, initial_tanks=tanks)
        prev_valves = np.zeros(N_CHAMBERS, dtype=np.int64)
        prev_moved = np.zeros(N_CHAMBERS, dtype=bool)
        # chambers whose last flowing update left the pressure bit-equal
        settled = np.zeros(N_CHAMBERS, dtype=bool)
        rising = {}  # chamber -> tick its open command was submitted
        for tick in range(1000):
            cmds = []
            for _ in range(int(rng.choice(traffic))):
                chambers = [int(c) for c in rng.choice(N_CHAMBERS,
                                                       rng.integers(1, 4),
                                                       replace=False)]
                cmds.append((chambers, int(rng.choice([-1, 0, 1]))))
            if rng.random() < 0.01:
                # conflicting commands to one chamber in the same tick
                ch = int(rng.integers(N_CHAMBERS))
                cmds += [(ch, 1), (ch, -1), (ch, int(rng.choice([-1, 0, 1])))]
                seen["conflicts"] += 1
            for ch, t0 in list(rising.items()):
                if tick - t0 == 40:  # re-seal while the pressure rises
                    cmds.append((ch, 0))
                    del rising[ch]
            if rng.random() < 0.01:
                ch = int(rng.integers(N_CHAMBERS))
                cmds.append((ch, int(rng.choice([-1, 1]))))
                rising[ch] = tick
            for selector, command in cmds:
                fast.apply_valve_command(selector, command)
                ref.apply_valve_command(selector, command)
            before = fast.state.chamber_pressures.copy()
            fast.step()
            _reference_step(ref)
            a, b = fast.state, ref.state
            assert repr(fast.trace_row()) == repr(ref.trace_row()), (case, tick)
            assert (a.pump_pos_on, a.pump_neg_on) == \
                (b.pump_pos_on, b.pump_neg_on), (case, tick)
            seen["pumped"] += a.pump_pos_on or a.pump_neg_on
            seen["clamped"] += ((a.pump_pos_on and a.tank_pos == PRESSURE_MAX)
                                or (a.pump_neg_on
                                    and a.tank_neg == PRESSURE_MIN))
            valves = a.valve_states.copy()
            moved = a.chamber_pressures != before
            seen["flowing"] += bool(moved.any())
            seen["reseals"] += int(np.sum((valves == 0) & (prev_valves != 0)
                                          & prev_moved))
            flows = (valves != 0) & (fast.tick >= np.array(fast._flow_from))
            held = flows & (a.chamber_pressures.view(np.int64)
                            == before.view(np.int64))
            seen["held"] += bool(held.any())
            # a reseal, a switch of tank or a reopen after a seal
            seen["lands_on_settled"] += int(np.sum((valves != prev_valves)
                                                   & settled))
            settled = np.where(flows, held, settled)
            seen["pumped_open"] += bool((a.pump_pos_on and (valves > 0).any())
                                        or (a.pump_neg_on
                                            and (valves < 0).any()))
            prev_valves, prev_moved = valves, moved
    assert min(seen.values()) >= 50, seen


def _plant_pair(cfg, tanks=None, pressures=None):
    plants = (PneumaticPlant(cfg, initial_tanks=tanks),
              PneumaticPlant(cfg, initial_tanks=tanks))
    if pressures is not None:
        for plant in plants:
            plant.state.chamber_pressures[:] = pressures
    return plants


def _step_both(fast, ref):
    fast.step()
    _reference_step(ref)
    assert repr(fast.trace_row()) == repr(ref.trace_row()), fast.tick
    assert (fast.state.pump_pos_on, fast.state.pump_neg_on) == \
        (ref.state.pump_pos_on, ref.state.pump_neg_on), fast.tick


def test_settled_chamber_moves_again_when_its_tank_is_pumped():
    # A pump this slow moves the tank one ulp per tick, so a fast chamber
    # a few ulps from it holds bit-equal for some ticks, drops out, and
    # must move again once the tank has crept far enough.
    ulp = math.ulp(40.0)
    cfg = PlantConfig(valve_latency=0.0, line_delay=0.0,
                      chamber_time_constant=0.005, pump_rate=ulp / TICK_S)
    fast, ref = _plant_pair(cfg, tanks=(40.0, -52.0),
                            pressures=[40.0 + k * ulp for k in range(-2, 6)])
    for plant in (fast, ref):
        plant.apply_valve_command(range(N_CHAMBERS), +1)
    held = np.zeros(N_CHAMBERS, dtype=bool)
    resumed = 0
    for _ in range(300):
        before = fast.state.chamber_pressures.copy()
        _step_both(fast, ref)
        same = fast.state.chamber_pressures == before
        resumed += int(np.sum(held & ~same))
        held = same
    assert fast.state.pump_pos_on and fast.state.tank_pos == 40.0 + 300 * ulp
    assert resumed > 0


def test_negative_zero_chamber_steps_to_the_reference_bytes():
    # -0.0 open to a tank at 0.0 steps to 0.0: equal by ==, but not the
    # same trace bytes, so the write must not be skipped.
    cfg = PlantConfig(valve_latency=0.0, line_delay=0.0,
                      tank_setpoints=(0.0, -52.0))
    fast, ref = _plant_pair(cfg, pressures=[-0.0] * N_CHAMBERS)
    for plant in (fast, ref):
        plant.apply_valve_command(0, +1)
    for _ in range(50):
        _step_both(fast, ref)
    row = fast.trace_row()
    assert repr(row[3]) == "0.0"  # the opened chamber
    assert repr(row[4]) == "-0.0"  # a sealed one keeps its bits


def test_idle_pumps_give_the_reference_trace_for_ten_thousand_ticks():
    # Both pumps run, then stop for good; chambers keep flowing toward
    # the tanks, settle and hold while nothing is queued.
    fast, ref = _plant_pair(PlantConfig(), tanks=(40.0, -48.0))
    for plant in (fast, ref):
        plant.apply_valve_command([0, 1, 2], +1)
        plant.apply_valve_command([3, 4], -1)
        plant.apply_valve_command(5, +1, after_ticks=120)
        plant.apply_valve_command(0, -1, after_ticks=250)
    for _ in range(400):
        _step_both(fast, ref)
    assert not (fast.state.pump_pos_on or fast.state.pump_neg_on)
    assert fast._queue == []
    for _ in range(10_000):
        _step_both(fast, ref)
    assert fast._open == []  # every open chamber has settled
