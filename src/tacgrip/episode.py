"""Deterministic closed-loop grasp episodes.

One plant tick is 1 ms; every 33rd tick is a control instant: both
fingers render a synthetic frame from the scenario's stimulus script,
the perception pipelines turn frames into flags, the supervisor turns
flags into MCU commands, and the MCU queues their valve changes on the
plant, which applies them after the control delay and valve latency.
Everything is keyed off the scenario seed and integer ticks, so two runs
with the same scenario are byte-identical.
"""

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

from .control import (CONTROL_PERIOD_TICKS, CommandKind, GraspSupervisor,
                      McuEmulator, Phase, encode_frame, has_fresh_contact,
                      measure_valve_response)
from .errors import NoDisturbanceError, ScenarioError, ValidationError
from .perception import FingerPipeline
from .plant import TICK_S, PneumaticPlant, write_plant_trace_csv
from .sensor_sim import (ContactStimulus, FrameStream, displace_markers,
                         render_frame)
from .tracking import write_track_csv

RELEASE_GRACE_S = 1.5  # extra sim time so a final release sequence lands

EPISODE_COLUMNS = (
    ["tick", "t", "phase",
     "f1_x", "f1_y", "f1_d", "f2_x", "f2_y", "f2_d",
     "flag1", "flag2", "command"]
    + [f"v{i}" for i in range(8)]
    + [f"ch{i}" for i in range(8)]
)


@dataclass
class EpisodeResult:
    scenario: object
    episode_rows: List[list]
    plant_rows: List[list]
    tracks: Dict[int, object]
    commands: List[Tuple[float, object]]
    transitions: List[tuple]
    regrasp_count: int
    terminated: bool
    final_phase: Phase

    @property
    def flags(self):
        """Per finger, the (time, flag kind) of every control instant."""
        return {f: [(row[0] * TICK_S, row[8 + f]) for row in self.episode_rows]
                for f in (1, 2)}

    @property
    def time_to_stable(self):
        for t, _, new in self.transitions:
            if new == Phase.STABLE:
                return t
        return None

    @property
    def first_seal_time(self):
        for t, cmd in self.commands:
            if cmd.kind == CommandKind.CLOSE_VALVES:
                return t
        return None

    @property
    def disturbance_onset(self):
        """Ground-truth time of the first stimulus event after sealing."""
        seal = self.first_seal_time
        if seal is None:
            return None
        for ev in self.scenario.events:
            if ev.time > seal:
                return ev.time
        return None

    def command_kinds(self):
        return [cmd.kind for _, cmd in self.commands]


def _fmt(value, digits=4):
    return "" if value is None else f"{value:.{digits}f}"


def run_grasp(scenario, out_dir=None, save_frames=False):
    """Run the double closed loop for one scenario.

    Each finger's camera is one `sensor_sim.FrameStream`. Returns an
    EpisodeResult; when out_dir is given, also writes episode.csv,
    plant.csv, per-finger track CSVs and a run manifest, and with
    save_frames the streams write each frame, as they render it, to
    out_dir/frames. Raises ValueError for save_frames without an out_dir.
    """
    if save_frames and out_dir is None:
        raise ValueError("save_frames needs an out_dir to write the frames to")
    try:
        scenario.validate()
    except ValidationError as exc:
        raise ScenarioError(str(exc))

    plant = PneumaticPlant(scenario.plant)
    mcu = McuEmulator(plant)
    supervisor = GraspSupervisor(
        thresholds=scenario.thresholds, grasp_mask=scenario.grasp_mask,
        max_regrasps=scenario.max_regrasps,
    )

    pipelines = {}
    ref_model = replace(scenario.sensor, noise_sigma=0.0)
    for finger in (1, 2):
        pipe = FingerPipeline(
            finger, kde_config=scenario.kde,
            detector_config=scenario.detector,
            calibration_ratio=scenario.calibration_ratio,
        )
        ref = render_frame(displace_markers(ref_model, None), ref_model,
                           finger_id=finger, seq=0)
        try:
            pipe.calibrate(ref)
        except ValidationError as exc:
            raise ScenarioError(f"finger {finger}: {exc}") from None
        pipelines[finger] = pipe

    episode_rows = []
    plant_rows = [plant.trace_row()]
    commands_log = []
    frames_dir = Path(out_dir) / "frames" if save_frames else None
    streams = {finger: FrameStream(scenario.sensor, finger, frames_dir)
               for finger in (1, 2)}

    total_ticks = int(round(scenario.duration_s / TICK_S))
    grace_ticks = int(round(RELEASE_GRACE_S / TICK_S))
    stop_tick = total_ticks

    while True:
        tick = plant.tick
        now = tick * TICK_S

        if not supervisor.terminated and tick % CONTROL_PERIOD_TICKS == 0:
            cmds = supervisor.start(now) if tick == 0 else []
            cells, flags, fresh = [], [], []
            for finger in (1, 2):
                ev = scenario.active_event(finger, now)
                stim = ev.stimulus(now) if ev is not None else ContactStimulus(
                    x=scenario.sensor.width / 2.0,
                    y=scenario.sensor.height / 2.0,
                    depth=0.0, radius=40.0, timestamp=now,
                )
                frame = streams[finger].render(
                    displace_markers(scenario.sensor, stim))
                pipe = pipelines[finger]
                center = pipe.process(frame).center
                flags.append(pipe.classify(now, scenario.thresholds))
                fresh.append(has_fresh_contact(pipe.track, now))
                # A contact region extends the track at this instant.
                disps = pipe.track.displacements
                cells += [_fmt(center[0]) if center else "",
                          _fmt(center[1]) if center else "",
                          _fmt(disps[-1], 6) if center and disps else ""]

            cmds += supervisor.update(*flags, now,
                                      fresh1=fresh[0], fresh2=fresh[1])
            for cmd in cmds:
                mcu.submit(encode_frame(cmd))
                commands_log.append((now, cmd))

            state = plant.state
            episode_rows.append(
                [tick, f"{now:.3f}", supervisor.phase.state.value] + cells
                + [flag.kind.value for flag in flags]
                + [";".join(c.kind.name for c in cmds)]
                + [str(int(v)) for v in state.valve_states]
                + [f"{p:.4f}" for p in state.chamber_pressures])

            if supervisor.terminated:
                stop_tick = min(total_ticks, tick + grace_ticks)

        if tick >= stop_tick:
            break
        plant.step()
        plant_rows.append(plant.trace_row())

    result = EpisodeResult(
        scenario=scenario,
        episode_rows=episode_rows,
        plant_rows=plant_rows,
        tracks={1: pipelines[1].track, 2: pipelines[2].track},
        commands=commands_log,
        transitions=supervisor.transitions,
        regrasp_count=supervisor.regrasp_count,
        terminated=supervisor.terminated,
        final_phase=supervisor.phase.state,
    )

    if out_dir is not None:
        _write_outputs(result, Path(out_dir))
    return result


def _write_outputs(result, out_dir):
    import csv

    from . import __version__ as pkg_version
    from .scenario import scenario_to_text

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "episode.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_COLUMNS)
        writer.writerows(result.episode_rows)
    write_plant_trace_csv(result.plant_rows, out_dir / "plant.csv")
    for finger in (1, 2):
        write_track_csv(result.tracks[finger], out_dir / f"track_{finger}.csv")

    text = scenario_to_text(result.scenario)
    digest = hashlib.sha256(text.encode()).hexdigest()
    manifest = [
        f"scenario = {result.scenario.name}",
        f"seed = {result.scenario.seed}",
        f"config_sha256 = {digest}",
        f"package_version = {pkg_version}",
        f"duration_s = {result.scenario.duration_s!r}",
        f"control_ticks = {len(result.episode_rows)}",
        f"final_phase = {result.final_phase.value}",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")


def measure_response_latency(result):
    """Seconds from the scripted disturbance onset to the first
    corrective valve actuation; raises NoDisturbance without one."""
    onset = result.disturbance_onset
    if onset is None:
        raise NoDisturbanceError("episode has no post-seal disturbance event")
    return measure_valve_response(result.plant_rows, onset)
