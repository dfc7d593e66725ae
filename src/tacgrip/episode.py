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
                      McuEmulator, Phase, encode_frame, measure_valve_response)
from .errors import NoDisturbanceError, ScenarioError, ValidationError
from .perception import FingerPipeline
from .plant import TICK_S, PneumaticPlant, write_plant_trace_csv
from .sensor_sim import (ContactStimulus, base_image, displace_markers,
                         render_frame, save_frame, start_frame_stream)
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
    flags: Dict[int, List[Tuple[float, str]]]
    commands: List[Tuple[float, object]]
    transitions: List[tuple]
    regrasp_count: int
    terminated: bool
    final_phase: Phase

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

    Returns an EpisodeResult; when out_dir is given, also writes
    episode.csv, plant.csv, per-finger track CSVs and a run manifest,
    and with save_frames each frame the loop renders, as it renders it,
    to out_dir/frames (see `sensor_sim.save_frame`). Raises ValueError
    for save_frames without an out_dir.
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
    flags_log = {1: [], 2: []}
    commands_log = []
    last_layout = {1: (None, None), 2: (None, None)}  # (centroid bytes, base)
    frames_dir = None
    if save_frames:
        frames_dir = Path(out_dir) / "frames"
        for finger in (1, 2):
            start_frame_stream(frames_dir, finger)

    total_ticks = int(round(scenario.duration_s / TICK_S))
    grace_ticks = int(round(RELEASE_GRACE_S / TICK_S))
    stop_tick = total_ticks
    terminal = False
    frame_seq = 0

    while True:
        tick = plant.tick
        now = tick * TICK_S

        if not terminal and tick % CONTROL_PERIOD_TICKS == 0:
            cmds = supervisor.start(now) if tick == 0 else []

            reports = {}
            for finger in (1, 2):
                ev = scenario.active_event(finger, now)
                stim = ev.stimulus(now) if ev is not None else ContactStimulus(
                    x=scenario.sensor.width / 2.0,
                    y=scenario.sensor.height / 2.0,
                    depth=0.0, radius=40.0, timestamp=now,
                )
                markers = displace_markers(scenario.sensor, stim)
                layout = markers.centroids.tobytes()
                if layout != last_layout[finger][0]:
                    base = base_image(markers, scenario.sensor)
                    last_layout[finger] = (layout, base)
                frame = render_frame(markers, scenario.sensor,
                                     finger_id=finger, seq=frame_seq,
                                     base=last_layout[finger][1])
                if frames_dir is not None:
                    save_frame(frames_dir, frame_seq, markers, frame)
                reports[finger] = pipelines[finger].process(frame)
            frame_seq += 1

            flag1 = pipelines[1].classify(now, scenario.thresholds)
            flag2 = pipelines[2].classify(now, scenario.thresholds)
            flags_log[1].append((now, flag1.kind.value))
            flags_log[2].append((now, flag2.kind.value))

            cmds += supervisor.update(
                flag1, flag2, now,
                fresh1=pipelines[1].has_fresh_contact(now),
                fresh2=pipelines[2].has_fresh_contact(now),
            )
            for cmd in cmds:
                mcu.submit(encode_frame(cmd))
                commands_log.append((now, cmd))

            state = plant.state
            row = [tick, f"{now:.3f}", supervisor.phase.state.value]
            for finger in (1, 2):
                center = reports[finger].center
                row += [_fmt(center[0]) if center else "",
                        _fmt(center[1]) if center else ""]
                track = pipelines[finger].track
                fresh_d = (track.displacements
                           and track.timestamps[-1] == now)
                row.append(_fmt(track.displacements[-1], 6) if fresh_d else "")
            row += [flag1.kind.value, flag2.kind.value,
                    ";".join(c.kind.name for c in cmds)]
            row += [str(int(v)) for v in state.valve_states]
            row += [f"{p:.4f}" for p in state.chamber_pressures]
            episode_rows.append(row)

            if supervisor.terminated or supervisor.phase.state == Phase.RELEASED:
                terminal = True
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
        flags=flags_log,
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
