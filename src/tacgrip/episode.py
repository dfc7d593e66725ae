"""Deterministic closed-loop grasp episodes.

`run_grasp` is the paper's double closed loop: a task loop over control
instants, 33 ms apart, around the plant's safety loop of 1 ms ticks. At
each instant both fingers render a frame from the scenario's stimulus
script, their perception pipelines turn frames into contact centers,
each finger's track of centers is classified into a flag, the supervisor
turns flags into MCU commands, and the MCU queues their valve changes on
the plant. The plant then steps its 33 ticks to the next instant, or,
once the supervisor has released, a grace period that ends the run, and
applies the changes after the control delay and valve latency.
Everything is keyed off the scenario seed and integer ticks, so two runs
with the same scenario are byte-identical.

Each finger's camera and perception run in a worker process of their
own, as each camera on the gripper streams on its own. A `FingerStep`
holds one finger's `FrameStream`, the `Calibration` both fingers share
and the finger's detection window, and a call renders and perceives
that finger's frame at one instant: a sensor, time in, contact center
out. `run_grasp` calibrates once for both fingers (`finger_steps`), so a
rejected calibration frame raises `ValidationError` before any worker
starts, then forks one worker per step. Little crosses the pipe: the
parent sends each control instant's time, and the worker answers with
the contact center, or None. The parent sends the next instant of its range
as soon as it has handled one, so the workers perceive it while the
plant ticks. Frames, fields and markers stay in the worker. The parent
keeps both contact tracks, classifies them and checks their freshness,
and keeps the supervisor, MCU, plant and trace rows. The workers are
only a transport: a committed trace ledger (tests/trace_ledger.py) is
recorded with each step called in the parent, and the tests check the
worker runs against it, so a run with workers equals, byte for byte,
the one without them.
Perception is about 95% of an episode and the fingers' shares are
independent: on a 2-core VM a static grasp ran 1.8x as many control
periods per second with one BLAS thread, and about 1.5x at default
threads. A thread per finger gave only 1.25-1.3x, because the `ndimage`
filters and the noise draw hold the GIL.

`run_grasp` needs the "fork" start method (POSIX): the workers inherit
the scenario and the calibration instead of unpickling them.
Each worker sets the OpenBLAS libraries in its process to one thread.
Unpinned, the two forked thread pools spin against each other on two
cores: a static episode went from 2.9 to 4.3 s, a slip episode from 5.9
to 16.9 s and a 0.1 s episode from 141 to 290 ms. OPENBLAS_NUM_THREADS
set in the worker does nothing, because OpenBLAS reads it when it
loads, so the worker calls the libraries' own setters. The parent's
BLAS is left as it is.
"""

import ctypes
import hashlib
import multiprocessing
import os
import signal
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

from .control import (CONTROL_PERIOD_TICKS, CommandKind, GraspSupervisor,
                      McuEmulator, Phase, classify_frame, encode_frame,
                      has_fresh_contact, measure_valve_response)
from .errors import NoDisturbanceError, ValidationError, WorkerError
from .perception import FingerPipeline
from .pgm import iter_frame_files
from .plant import TICK_S, PneumaticPlant, write_plant_trace_csv
from .sensor_sim import FrameStream, displace_markers, render_frame
from .tracking import ContactTrack, track_displacement, write_track_csv

RELEASE_GRACE_S = 1.5  # extra sim time so a final release sequence lands

EPISODE_COLUMNS = (
    ("tick", "t", "phase",
     "f1_x", "f1_y", "f1_d", "f2_x", "f2_y", "f2_d",
     "flag1", "flag2", "command")
    + tuple(f"v{i}" for i in range(8))
    + tuple(f"ch{i}" for i in range(8))
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
    final_phase: Phase

    @property
    def terminated(self):
        """Whether the supervisor ended the episode: it ended Released."""
        return self.final_phase == Phase.RELEASED

    @property
    def flags(self):
        """Per finger, the (time, flag kind) of every control instant."""
        tick, col = EPISODE_COLUMNS.index("tick"), EPISODE_COLUMNS.index
        return {f: [(row[tick] * TICK_S, row[i]) for row in self.episode_rows]
                for f, i in ((1, col("flag1")), (2, col("flag2")))}

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


def _cells(center, track):
    """A finger's f_x, f_y and f_d cells of an episode row, after its
    center, if any, extended the track."""
    if center is None:
        return ["", "", ""]
    disps = track.displacements
    return [_fmt(center[0]), _fmt(center[1]),
            _fmt(disps[-1], 6) if disps else ""]


class FingerStep:
    """One finger's camera and perception for one episode: each call
    renders the scenario's stimulus at `now` (the rest grid when no event
    is active) as the stream's next frame, captured at `now`, runs it
    through the calibration and returns the contact center, or None. The
    step's finger is its stream's. `window`, the detection window passed
    from each frame's report to the next frame, is the one perception
    state that changes; it starts at the calibration's. The layout
    depends on the active event alone, so the markers are displaced only
    when that event is another object than the last frame's."""

    def __init__(self, scenario, calibration, stream):
        self.scenario, self.stream = scenario, stream
        self.calibration, self.window = calibration, calibration.window
        # The last frame's active event and its marker layout.
        self._event, self._markers = None, None

    def __call__(self, now):
        sc = self.scenario
        ev = sc.active_event(self.stream.finger_id, now)
        if self._markers is None or ev is not self._event:
            self._event, self._markers = ev, displace_markers(
                sc.sensor, None if ev is None else ev.stimulus())
        report = self.calibration.process(
            self.stream.render(self._markers, now), self.window)
        self.window = report.window
        return report.center


def finger_steps(scenario, frames_dir=None):
    """Both fingers' `FingerStep`s, each stream opened (writing its frames
    to frames_dir, if given), sharing one `Calibration` of a noise-free
    rest frame: with no noise the finger keys no random draw, so both
    fingers' rest frames are the same bytes, seen through the same
    detector and KDE settings. Raises ValidationError naming finger 1,
    whose rest frame is rendered, when the calibration frame is
    rejected."""
    pipeline = FingerPipeline(1, kde_config=scenario.kde,
                              detector_config=scenario.detector,
                              calibration_ratio=scenario.calibration_ratio)
    ref_model = replace(scenario.sensor, noise_sigma=0.0)
    ref = render_frame(displace_markers(ref_model, None), ref_model,
                       finger_id=1, seq=0)
    try:
        calibration = pipeline.calibrate(ref)
    except ValidationError as exc:
        raise ValidationError(f"finger 1: {exc}") from None
    return {finger: FingerStep(scenario, calibration,
                               FrameStream(scenario.sensor, finger, frames_dir))
            for finger in (1, 2)}


# Thread-count setters of the OpenBLAS builds that numpy and scipy wheels
# ship (64-bit and 32-bit integers) and of a system OpenBLAS.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas_to_one_thread():
    """Set every OpenBLAS library mapped into this process to one thread,
    and return the names of the setters called. No numpy or scipy call
    does this. Does nothing where /proc/self/maps cannot be read or
    lists no OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5]).lower()})
    called = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                called.append(name)
    return called


def _serve(step, conn):
    """A worker's loop: answer each control instant's time with the
    step's contact center, and return on the closing None without a
    reply. An exception is answered with its traceback text, and the
    worker ends."""
    # ^C reaches the whole process group; the parent ends its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _pin_blas_to_one_thread()
        while (now := conn.recv()) is not None:
            conn.send(step(now))
    except EOFError:
        pass  # the parent has closed its end
    except Exception:
        conn.send(traceback.format_exc())


class _FingerWorkers:
    """One forked worker process per finger step, each on its own pipe.
    Leaving the block after an exception terminates the workers; every
    exit joins them."""

    def __init__(self, steps):
        ctx = multiprocessing.get_context("fork")
        self._workers = {}
        try:
            for finger, step in steps.items():
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(step, child),
                                   name=f"tacgrip-finger-{finger}",
                                   daemon=True)
                proc.start()
                # Now only the worker holds its end, so a worker that dies
                # reads as EOF here instead of leaving recv blocked.
                child.close()
                self._workers[finger] = (proc, conn)
        except BaseException:
            self.close(failed=True)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(failed=exc_type is not None)

    def send(self, now):
        """Send a control instant's time to every worker; `receive`
        reads their answers."""
        for _, conn in self._workers.values():
            try:
                conn.send(now)
            except OSError:
                pass  # it has ended: receive reads its traceback, or EOF

    def receive(self):
        """{finger: contact center or None} for the instant sent last.
        Raises WorkerError naming the finger whose worker raised or
        ended."""
        replies = {}
        for finger, (_, conn) in self._workers.items():
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise self._ended(finger) from None
            if isinstance(reply, str):
                raise WorkerError(f"finger {finger}: its worker raised\n"
                                  f"{reply}")
            replies[finger] = reply
        return replies

    def _ended(self, finger):
        proc = self._workers[finger][0]
        proc.join(timeout=1.0)
        return WorkerError(f"finger {finger}: its worker ended with exit "
                           f"code {proc.exitcode}")

    def close(self, failed):
        # A forked worker also holds its sibling's parent end, so closing
        # a pipe gives it no EOF; a run that ends well sends it None.
        for proc, conn in self._workers.values():
            if failed:
                proc.terminate()
            else:
                try:
                    conn.send(None)
                except OSError:
                    pass  # it has ended already
            conn.close()
        for proc, _ in self._workers.values():
            proc.join()


def run_grasp(scenario, out_dir=None, save_frames=False):
    """Run the double closed loop for one scenario.

    Each finger's `FingerStep` runs in a forked worker process (see the
    module docstring). Returns an EpisodeResult; when out_dir is given,
    also writes episode.csv, plant.csv, per-finger track CSVs and a run
    manifest, and with save_frames the streams write each frame, as they
    render it, to out_dir/frames. Raises ValueError for save_frames
    without an out_dir, and for an out_dir/frames that already holds a
    frame file, which would mix two runs' frames; ValidationError for a
    rejected calibration frame (a Scenario checks the rest when it is
    built); and WorkerError naming the finger whose worker raised or
    ended.
    """
    if save_frames and out_dir is None:
        raise ValueError("save_frames needs an out_dir to write the frames to")
    frames_dir = None if out_dir is None else Path(out_dir) / "frames"
    if frames_dir is not None and frames_dir.is_dir():
        saved = iter_frame_files(frames_dir)
        if saved:
            raise ValueError(f"{frames_dir} already holds frames of another "
                             f"run, first {saved[0][2].name}; give the run "
                             f"a new directory")

    plant = PneumaticPlant(scenario.plant)
    mcu = McuEmulator(plant)
    supervisor = GraspSupervisor(
        thresholds=scenario.thresholds, grasp_mask=scenario.grasp_mask,
        max_regrasps=scenario.max_regrasps,
    )
    steps = finger_steps(scenario, frames_dir if save_frames else None)
    tracks = {finger: ContactTrack(finger_id=finger) for finger in (1, 2)}

    episode_rows, commands_log = [], []
    plant_rows = [plant.trace_row()]

    total_ticks = int(round(scenario.duration_s / TICK_S))
    grace_ticks = int(round(RELEASE_GRACE_S / TICK_S))

    with _FingerWorkers(steps) as workers:
        workers.send(0.0)
        for tick in range(0, total_ticks + 1, CONTROL_PERIOD_TICKS):
            now = tick * TICK_S
            centers = workers.receive()
            flags, fresh = {}, {}
            for finger, track in tracks.items():
                if centers[finger] is not None:
                    track_displacement(track, centers[finger], now,
                                       scenario.kde)
                flags[finger] = classify_frame(track, scenario.thresholds, now)
                fresh[finger] = has_fresh_contact(track, now)
            cmds = supervisor.start(now) if tick == 0 else []
            cmds += supervisor.update(flags[1], flags[2], now,
                                      fresh1=fresh[1], fresh2=fresh[2])
            for cmd in cmds:
                mcu.submit(encode_frame(cmd))
                commands_log.append((now, cmd))

            state = plant.state
            episode_rows.append(
                [tick, f"{now:.3f}", supervisor.phase.state.value]
                + [cell for finger in (1, 2)
                   for cell in _cells(centers[finger], tracks[finger])]
                + [flags[finger].kind.value for finger in (1, 2)]
                + [";".join(c.kind.name for c in cmds)]
                + [str(int(v)) for v in state.valve_states]
                + [f"{p:.4f}" for p in state.chamber_pressures])

            # The workers render the next instant while the plant ticks.
            if supervisor.terminated:
                stop = tick + grace_ticks
            else:
                stop = min(tick + CONTROL_PERIOD_TICKS, total_ticks)
                if stop == tick + CONTROL_PERIOD_TICKS:
                    workers.send(stop * TICK_S)
            while plant.tick < stop:
                plant.step()
                plant_rows.append(plant.trace_row())
            if supervisor.terminated:
                break

    result = EpisodeResult(
        scenario=scenario,
        episode_rows=episode_rows,
        plant_rows=plant_rows,
        tracks=tracks,
        commands=commands_log,
        transitions=supervisor.transitions,
        regrasp_count=supervisor.regrasp_count,
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
        f"seed = {result.scenario.sensor.seed}",
        f"config_sha256 = {digest}",
        f"package_version = {pkg_version}",
        f"duration_s = {result.scenario.duration_s!r}",
        f"control_ticks = {len(result.episode_rows)}",
        f"final_phase = {result.final_phase.value}",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")


def measure_response_latency(result):
    """Seconds from the scripted disturbance onset to the first
    corrective valve actuation; raises NoDisturbanceError without one."""
    onset = result.disturbance_onset
    if onset is None:
        raise NoDisturbanceError("episode has no post-seal disturbance event")
    return measure_valve_response(result.plant_rows, onset)
