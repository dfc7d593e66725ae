import csv
import math

import numpy as np
import pytest

from tacgrip.errors import InvalidSelectorError
from tacgrip.plant import (N_CHAMBERS, TICK_S, TRACE_COLUMNS, PlantConfig,
                           PneumaticPlant, write_plant_trace_csv)


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
    with pytest.raises(InvalidSelectorError):
        plant.apply_valve_command(8, 1)
    with pytest.raises(InvalidSelectorError):
        plant.apply_valve_command(-1, 1)
    with pytest.raises(InvalidSelectorError):
        plant.apply_valve_command([], 1)
    with pytest.raises(InvalidSelectorError):
        plant.apply_valve_command(object(), 1)
    with pytest.raises(ValueError):
        plant.apply_valve_command(0, 2)


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
    rng = np.random.default_rng(11)
    plant = PneumaticPlant()
    expected, seq = [], 0
    for tick in range(2000):
        for _ in range(int(rng.choice([0] * 12 + [1, 2, 3]))):
            # a latency that varies per command puts the queue out of
            # submission order
            plant.config.valve_latency = float(rng.choice([0.0, 0.003, 0.010,
                                                           0.040]))
            chambers = [int(c) for c in rng.choice(N_CHAMBERS,
                                                   rng.integers(1, 4),
                                                   replace=False)]
            command = int(rng.choice([-1, 0, 1]))
            plant.apply_valve_command(chambers, command)
            due = tick + plant.config.ticks(plant.config.valve_latency)
            for ch in chambers:
                expected.append((due, seq, ch, command))
                seq += 1
        plant.step()
        want = [0] * N_CHAMBERS
        for due, _, ch, command in sorted(expected):
            if due <= plant.tick:
                want[ch] = command
        assert list(plant.state.valve_states) == want, plant.tick
    assert seq > 200


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
