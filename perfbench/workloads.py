"""One unit of work per workload, timed on the host, with its checks.

Each runner calls tacgrip through module attributes (`episode.run_grasp`,
`control.classify_frame`, ...) so that a traced run sees the same calls
through its wrappers. The host time of a unit covers only the program's
work; input generation and the checks run outside it.
"""

import hashlib
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tacgrip import (control, density, episode, kinematics, plant, scenario,
                     tracking)

import inputs


@dataclass
class Unit:
    """What one unit of work did and whether it was correct."""

    host_s: float
    ops: int  # control periods, or forward-kinematics samples
    sim_s: float = 0.0  # simulated seconds; 0 on workspace
    speed_factor: float = 1.0  # host speed probe over nominal, see speed.py
    failures: list = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    center_err_px: list = field(default_factory=list)


def _sha(*row_lists):
    digest = hashlib.sha256()
    for rows in row_lists:
        for row in rows:
            digest.update(repr(row).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def _check_outcome(unit, exp):
    out = unit.outcome
    for key, want in (("final_phase", exp.final_phase),
                      ("command_kinds", list(exp.command_kinds)),
                      ("regrasps", exp.regrasps),
                      ("transitions", exp.transitions)):
        if out[key] != want:
            unit.failures.append(f"{key} is {out[key]!r}, expected {want!r}")


def _episode_unit(result, host_s, exp, poke_time=None):
    """Outcome, center error and checks of one closed-loop episode."""
    sc = result.scenario
    ticks = len(result.plant_rows) - 1
    unit = Unit(host_s=host_s, ops=len(result.episode_rows),
                sim_s=ticks * sc.plant.tick_dt)
    unit.outcome = {
        "final_phase": result.final_phase.value,
        "command_kinds": [k.name for k in result.command_kinds()],
        "regrasps": result.regrasp_count,
        "transitions": len(result.transitions),
        "sim_time_to_stable_s": result.time_to_stable,
        "trace_sha256": _sha(result.episode_rows, result.plant_rows),
    }
    if poke_time is not None:
        unit.outcome["sim_response_latency_s"] = \
            control.measure_valve_response(result.plant_rows, poke_time)
    # Distance from each tracked contact center to the scripted stimulus
    # center of the same frame: error against the simulator's own truth.
    for finger, track in result.tracks.items():
        for t, (x, y) in zip(track.timestamps, track.centers):
            ev = sc.active_event(finger, t)
            unit.center_err_px.append(math.hypot(x - ev.x, y - ev.y))

    _check_outcome(unit, exp)
    tts = result.time_to_stable
    if exp.stable_within_s is not None:
        lo, hi = exp.stable_within_s
        if tts is None or not lo <= tts <= hi:
            unit.failures.append(
                f"time to stable {tts} outside [{lo}, {hi}] s")
    if unit.center_err_px:
        # An error as large as T1 would read as a disturbance by itself.
        limit = sc.thresholds.t1_mm / sc.kde.pixel_scale_s
        p95 = sorted(unit.center_err_px)[
            int(0.95 * (len(unit.center_err_px) - 1))]
        if p95 >= limit:
            unit.failures.append(
                f"center error p95 {p95:.2f} px >= {limit} px")
    return unit


def static_grasp(seed, length, work_dir):
    exp = inputs.expected("static_grasp", length)
    start = perf_counter()
    sc = scenario.static_scenario(
        seed, duration=inputs.STATIC_DURATION_S[length])
    result = episode.run_grasp(sc)
    host_s = perf_counter() - start
    return _episode_unit(result, host_s, exp)


def moving_contact(seed, length, work_dir):
    exp = inputs.expected("moving_contact", length)
    text = inputs.moving_contact_text(seed, length)
    with tempfile.TemporaryDirectory(dir=work_dir) as run_dir:
        start = perf_counter()
        sc = scenario.parse_scenario_text(text)
        result = episode.run_grasp(sc, out_dir=run_dir)
        host_s = perf_counter() - start
        written = {p.name for p in Path(run_dir).iterdir()}
    poke = inputs.moving_poke_time() if length == "full" else None
    unit = _episode_unit(result, host_s, exp, poke_time=poke)
    missing = {"episode.csv", "manifest.txt", "plant.csv", "track_1.csv",
               "track_2.csv"} - written
    if missing:
        unit.failures.append(f"run directory lacks {sorted(missing)}")
    return unit


def long_hold(seed, length, work_dir):
    """The control half of the loop over a long simulated horizon.

    Per control period: seeded contact centers -> track_displacement ->
    classify_frame -> GraspSupervisor.update -> encode_frame /
    McuEmulator.submit -> 33 x (McuEmulator.on_tick, PneumaticPlant.step),
    wired as run_grasp wires them.
    """
    exp = inputs.expected("long_hold", length)
    centers = inputs.long_hold_centers(seed, length)
    lo_p, hi_p = plant.PRESSURE_MIN, plant.PRESSURE_MAX

    start = perf_counter()
    cfg = plant.PlantConfig()
    period_s = inputs.PERIOD_TICKS * cfg.tick_dt
    thresholds = control.ControlThresholds()
    kde = density.KdeConfig()
    pl = plant.PneumaticPlant(cfg)
    mcu = control.McuEmulator(pl)
    sup = control.GraspSupervisor(thresholds=thresholds,
                                  control_period=period_s)
    tracks = {f: tracking.ContactTrack(finger_id=f) for f in (1, 2)}
    rows = []
    out_of_range = 0
    for k, pair in enumerate(centers):
        now = pl.tick * cfg.tick_dt
        cmds = sup.start(now) if k == 0 else []
        for f, center in zip((1, 2), pair):
            tracking.track_displacement(tracks[f], center, now, kde)
        flag1 = control.classify_frame(tracks[1], thresholds, now, period_s)
        flag2 = control.classify_frame(tracks[2], thresholds, now, period_s)
        cmds += sup.update(flag1, flag2, now, fresh1=True, fresh2=True)
        for cmd in cmds:
            mcu.submit(control.encode_frame(cmd))
        pressures = pl.state.chamber_pressures
        if pressures.min() < lo_p or pressures.max() > hi_p:
            out_of_range += 1
        rows.append((pl.tick, sup.phase.state.value, flag1.kind.value,
                     flag2.kind.value, ";".join(c.kind.name for c in cmds),
                     tuple(pressures.tolist())))
        for _ in range(inputs.PERIOD_TICKS):
            mcu.on_tick()
            pl.step()
    host_s = perf_counter() - start

    unit = Unit(host_s=host_s, ops=len(centers),
                sim_s=pl.tick * cfg.tick_dt)
    unit.outcome = {
        "final_phase": sup.phase.state.value,
        "command_kinds": [kind.name for _, kind, _ in mcu.executed],
        "regrasps": sup.regrasp_count,
        "transitions": len(sup.transitions),
        "trace_sha256": _sha(rows),
    }
    _check_outcome(unit, exp)
    if out_of_range:
        unit.failures.append(f"{out_of_range} control instants with a chamber "
                             f"pressure outside [{lo_p}, {hi_p}] kPa")
    return unit


def workspace(seed, length, work_dir):
    """Workspace and hull volume of both finger chains, as `tacgrip
    workspace` computes them. The FK grid is fixed: the seed has no
    effect here."""
    exp = inputs.expected("workspace", length)
    n = inputs.WORKSPACE_SAMPLES[length]
    start = perf_counter()
    dexrot = kinematics.workspace(kinematics.dex_rot_chain(),
                                  samples_per_axis=n)
    rotdex = kinematics.workspace(kinematics.rot_dex_chain(),
                                  samples_per_axis=n)
    host_s = perf_counter() - start

    unit = Unit(host_s=host_s, ops=len(dexrot.points) + len(rotdex.points))
    volumes = (dexrot.hull_volume, rotdex.hull_volume)
    unit.outcome = {"volumes_mm3": volumes}
    if not 0.0 < volumes[1] < volumes[0]:
        unit.failures.append(f"rot-dex volume {volumes[1]} is not below "
                             f"dex-rot volume {volumes[0]}")
    if exp.volumes_mm3 is not None:
        for got, want in zip(volumes, exp.volumes_mm3):
            if abs(got - want) > 1e-9 * want:
                unit.failures.append(f"hull volume {got!r} mm^3, "
                                     f"recorded {want!r}")
    return unit


RUNNERS = {
    "static_grasp": static_grasp,
    "moving_contact": moving_contact,
    "long_hold": long_hold,
    "workspace": workspace,
}

# A call each workload makes once per step, where the speed probe hooks in.
STEP_CALLS = {
    "static_grasp": (control.GraspSupervisor, "update"),
    "moving_contact": (control.GraspSupervisor, "update"),
    "long_hold": (control.GraspSupervisor, "update"),
    "workspace": (kinematics, "tip_position"),
}
