"""run_grasp's per-finger worker processes: equal to the serial loop, and
no worker outlives a run, whether it returns or fails."""

import dataclasses
import multiprocessing
import os
import signal
from dataclasses import replace
from pathlib import Path

import pytest

import tacgrip.episode
from tacgrip.control import (CONTROL_PERIOD_TICKS, GraspSupervisor,
                             McuEmulator, classify_frame, encode_frame,
                             has_fresh_contact)
from tacgrip.episode import (RELEASE_GRACE_S, EpisodeResult, _fmt,
                             _pin_blas_to_one_thread, _serve, _write_outputs,
                             run_grasp)
from tacgrip.errors import ValidationError, WorkerError
from tacgrip.perception import FingerPipeline
from tacgrip.plant import TICK_S, PneumaticPlant
from tacgrip.scenario import (CANNED, Scenario, StimulusEvent,
                              static_scenario, timeout_scenario)
from tacgrip.sensor_sim import (ContactStimulus, FrameStream, SensorModel,
                                displace_markers, render_frame)
from tacgrip.tracking import ContactTrack, track_displacement


def serial_run_grasp(scenario, out_dir=None, save_frames=False):
    """run_grasp as it was before the fingers ran in workers: both
    fingers render, perceive and classify in this process, one after the
    other. Kept as the reference the workers must reproduce."""
    if save_frames and out_dir is None:
        raise ValueError("save_frames needs an out_dir to write the frames to")
    scenario.validate()

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
            raise ValidationError(f"finger {finger}: {exc}") from None
        pipelines[finger] = pipe
    tracks = {finger: ContactTrack(finger_id=finger) for finger in (1, 2)}

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
                stim = ev.stimulus() if ev is not None else ContactStimulus(
                    x=scenario.sensor.width / 2.0,
                    y=scenario.sensor.height / 2.0,
                    depth=0.0, radius=40.0,
                )
                frame = streams[finger].render(
                    displace_markers(scenario.sensor, stim), now)
                pipe, track = pipelines[finger], tracks[finger]
                center = pipe.process(frame).center
                # A contact region extends the track at this instant.
                if center is not None:
                    track_displacement(track, center, now, pipe.kde_config)
                flags.append(classify_frame(track, scenario.thresholds, now))
                fresh.append(has_fresh_contact(track, now))
                disps = track.displacements
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
                stop_tick = tick + grace_ticks

        if tick >= stop_tick:
            break
        plant.step()
        plant_rows.append(plant.trace_row())

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


def assert_same_run(got, want):
    assert got.episode_rows == want.episode_rows
    assert got.plant_rows == want.plant_rows
    assert got.tracks == want.tracks
    assert got.commands == want.commands
    assert got.transitions == want.transitions
    assert (got.regrasp_count, got.terminated, got.final_phase) == \
        (want.regrasp_count, want.terminated, want.final_phase)


def directory_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _serial_canned(case):
    name, seed = case
    return serial_run_grasp(CANNED[name](seed))


@pytest.fixture(scope="module")
def serial_canned():
    """The serial loop's run of each canned scenario at seeds 0 and 3.
    Each run is serial; two forked processes share the eight runs, each
    with one BLAS thread, as run_grasp's workers have."""
    cases = [(name, seed) for name in sorted(CANNED) for seed in (0, 3)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2, initializer=_pin_blas_to_one_thread) as pool:
        return dict(zip(cases, pool.map(_serial_canned, cases, chunksize=1)))


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_runs_equal_the_serial_loop_at_seed_0(name, request,
                                                      serial_canned):
    # the shared session runs are run_grasp's side
    got = request.getfixturevalue(f"{name}_run")
    assert got.scenario.sensor.seed == 0
    assert_same_run(got, serial_canned[name, 0])


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_runs_equal_the_serial_loop_at_seed_3(name, serial_canned):
    assert_same_run(run_grasp(CANNED[name](3)), serial_canned[name, 3])


def moving_scenario(seed=4, duration=1.2):
    """Untouched for three periods, then both contact centers move every
    control period, so no two rendered layouts repeat."""
    period = CONTROL_PERIOD_TICKS * TICK_S
    events = [StimulusEvent(time=k * period, finger=finger,
                            x=260.0 + 3.7 * k + 5.0 * finger,
                            y=230.0 + 1.3 * k, depth=2.0 + 0.02 * k,
                            radius=40.0)
              for k in range(3, int(duration / period) + 1)
              for finger in (1, 2)]
    return Scenario(name="moving", duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events).validate()


def test_moving_contact_run_directory_is_byte_identical(tmp_path):
    sc = moving_scenario()
    got = run_grasp(sc, out_dir=tmp_path / "workers", save_frames=True)
    want = serial_run_grasp(sc, out_dir=tmp_path / "serial",
                            save_frames=True)
    assert_same_run(got, want)
    assert len({row[3] for row in got.episode_rows}) > 25  # f1_x moves
    files = directory_bytes(tmp_path / "workers")
    assert files == directory_bytes(tmp_path / "serial")
    assert {"frames/truth_1.csv", "frames/truth_2.csv", "episode.csv",
            "plant.csv", "track_1.csv", "track_2.csv",
            "manifest.txt"} <= set(files)
    assert sum(name.endswith(".pgm") for name in files) \
        == 2 * len(got.episode_rows)


def released_early(seed, duration):
    """Nothing is touched, and the supervisor releases at 0.528 s."""
    sc = timeout_scenario(seed, duration=duration)
    sc.thresholds = replace(sc.thresholds, no_contact_timeout_s=0.5)
    return sc


@pytest.mark.parametrize("make, duration", [
    (static_scenario, 0.099),  # the last instant falls on the final tick
    (static_scenario, 0.1),
    (static_scenario, 0.132),
    (released_early, 1.0),
    (released_early, 0.6),  # the release grace outlasts the scenario
])
def test_the_schedule_edges_equal_the_serial_loop(tmp_path, make, duration):
    sc = make(1, duration=duration)
    got = run_grasp(sc, out_dir=tmp_path / "workers", save_frames=True)
    want = serial_run_grasp(sc, out_dir=tmp_path / "serial",
                            save_frames=True)
    assert_same_run(got, want)
    assert got.terminated == (make is released_early)
    files = directory_bytes(tmp_path / "workers")
    assert files == directory_bytes(tmp_path / "serial")
    # nothing rendered ahead: one frame per finger and instant
    assert sum(name.endswith(".pgm") for name in files) \
        == 2 * len(got.episode_rows)


def test_a_worker_answers_each_instant_with_a_center_and_stops_silently(
        monkeypatch):
    # _serve runs here, on both ends of one pipe: the messages wait in
    # the pipe until it reads them.
    def step(now):
        return (320.0 + now, 240.0)

    monkeypatch.setattr(tacgrip.episode, "_pin_blas_to_one_thread",
                        lambda: [])
    conn, child = multiprocessing.Pipe()
    conn.send(0.0)
    conn.send(None)
    previous = signal.getsignal(signal.SIGINT)
    try:
        _serve(step, child)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert conn.recv() == (320.0, 240.0)
    assert not conn.poll(0)  # no closing reply after None
    conn.close()
    child.close()


# -- no orphans, no hangs ---------------------------------------------------

@pytest.fixture
def deadline():
    """Fail a test that blocks for a minute instead of hanging the run."""
    def expire(signum, frame):
        # not an OSError, which a blocked recv would turn into WorkerError
        raise AssertionError("run_grasp blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def fail_on_fifth_frame(monkeypatch, fail):
    """Make finger 2's FingerPipeline.process call fail(self) on its
    fifth frame; finger 1 runs on. Returns the list of the control
    instants at which the supervisor ran."""
    process, update = FingerPipeline.process, GraspSupervisor.update
    instants = []

    def counting(self, frame):
        self.frames = getattr(self, "frames", 0) + 1
        if self.finger_id == 2 and self.frames == 5:
            fail(self)
        return process(self, frame)

    def recording(self, flag1, flag2, now, **fresh):
        instants.append(now)
        return update(self, flag1, flag2, now, **fresh)

    monkeypatch.setattr(FingerPipeline, "process", counting)
    monkeypatch.setattr(GraspSupervisor, "update", recording)
    return instants


def test_no_worker_outlives_a_run(deadline):
    result = run_grasp(static_scenario(duration=0.1))
    assert len(result.episode_rows) == 4


def test_a_rejected_calibration_starts_no_worker(deadline, monkeypatch):
    def never(steps):
        raise AssertionError("workers started")

    monkeypatch.setattr(tacgrip.episode, "_FingerWorkers", never)
    sc = static_scenario(duration=0.1)
    sc.detector = dataclasses.replace(sc.detector, threshold_abs=2.83)
    with pytest.raises(ValidationError, match="finger 1: calibration frame"):
        run_grasp(sc)


def test_a_worker_that_raises_is_named(deadline, monkeypatch):
    def fail(pipe):
        raise ValueError("fifth frame refused")

    instants = fail_on_fifth_frame(monkeypatch, fail)
    with pytest.raises(WorkerError, match="finger 2: its worker raised") \
            as caught:
        run_grasp(static_scenario(duration=8.0))
    assert "ValueError: fifth frame refused" in str(caught.value)
    assert len(instants) == 4  # raised at the fifth instant, not later


def test_a_worker_that_dies_is_named(deadline, monkeypatch):
    test_process = os.getpid()

    def die(pipe):
        assert os.getpid() != test_process, "finger ran in the test process"
        os._exit(3)

    instants = fail_on_fifth_frame(monkeypatch, die)
    with pytest.raises(WorkerError,
                       match="finger 2: its worker ended with exit code 3"):
        run_grasp(static_scenario(duration=8.0))
    assert len(instants) == 4


def test_a_worker_pins_openblas_to_one_thread():
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("no /proc/self/maps to find the BLAS libraries in")
    mapped = "openblas" in maps.read_text().lower()
    ctx = multiprocessing.get_context("fork")
    conn, child = ctx.Pipe()
    proc = ctx.Process(target=lambda: child.send(_pin_blas_to_one_thread()))
    proc.start()
    called = conn.recv()
    proc.join()
    assert bool(called) == mapped
    assert set(called) <= set(tacgrip.episode._OPENBLAS_SETTERS)


def test_each_worker_pins_blas_before_its_first_frame(deadline, monkeypatch):
    def pin():
        raise RuntimeError(f"pinned in {os.getpid()}")

    monkeypatch.setattr(tacgrip.episode, "_pin_blas_to_one_thread", pin)
    with pytest.raises(WorkerError, match="finger 1: its worker raised") \
            as caught:
        run_grasp(static_scenario(duration=0.1))
    assert "RuntimeError: pinned in" in str(caught.value)
    assert f"pinned in {os.getpid()}" not in str(caught.value)


def test_a_worker_that_raised_before_the_first_send_is_reported(
        deadline, monkeypatch):
    # The worker's traceback waits in the pipe after it has ended, so the
    # parent's send fails; the reply is still read, not taken for a
    # worker that died without one.
    def pin():
        raise RuntimeError("pinned")

    send = tacgrip.episode._FingerWorkers.send

    def send_once_finger_1_ended(self, now):
        self._workers[1][0].join(timeout=30.0)
        return send(self, now)

    monkeypatch.setattr(tacgrip.episode, "_pin_blas_to_one_thread", pin)
    monkeypatch.setattr(tacgrip.episode._FingerWorkers, "send",
                        send_once_finger_1_ended)
    with pytest.raises(WorkerError, match="finger 1: its worker raised") \
            as caught:
        run_grasp(static_scenario(duration=0.1))
    assert "RuntimeError: pinned" in str(caught.value)
