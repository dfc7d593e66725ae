"""run_grasp's per-finger worker processes: the same run as with each
finger's step called in this process, and no worker outlives a run,
whether it returns or fails. The loop's rules are pinned by the trace
ledger (tests/trace_ledger.py), not by a second copy of the loop."""

import dataclasses
import multiprocessing
import os
import signal
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import tacgrip.episode
from tacgrip.control import GraspSupervisor
from tacgrip.episode import (FingerStep, _pin_blas_to_one_thread, _serve,
                             finger_steps, run_grasp)
from tacgrip.errors import ValidationError, WorkerError
from tacgrip.perception import FingerPipeline
from tacgrip.scenario import CANNED, static_scenario
from tacgrip.sensor_sim import (ContactStimulus, FrameStream,
                                displace_markers, render_frame)
from trace_ledger import (RUNS, SCHEDULE_EDGES, assert_matches_ledger,
                          differences, edge_run, load, moving_scenario,
                          released_early)


class InProcessFingers:
    """`_FingerWorkers` without the processes: each receive calls every
    finger's step here, at the instant sent last."""

    def __init__(self, steps):
        self.steps = steps

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def send(self, now):
        self.now = now

    def receive(self):
        return {finger: step(self.now) for finger, step in self.steps.items()}


def serial_run_grasp(scenario, out_dir=None, save_frames=False):
    """run_grasp with each finger's step called in this process instead
    of in its worker: the run the workers must reproduce."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tacgrip.episode, "_FingerWorkers", InProcessFingers)
        return run_grasp(scenario, out_dir, save_frames)


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


def test_the_ledger_holds_every_run_and_names_what_differs():
    ledger = load()
    assert set(ledger["runs"]) == set(RUNS)
    got = dict(ledger["runs"]["static-0"], rows="0" * 64)
    assert differences("static-0", got, ledger) == [
        "static-0 rows: recorded 9b3afd00d1c4ca80, running 0000000000000000"]
    assert differences("static-9", got, ledger) == [
        "static-9: not in the ledger"]


def _serial_canned(name):
    return serial_run_grasp(CANNED[name](0))


@pytest.fixture(scope="module")
def serial_canned():
    """The in-process run of each canned scenario at seed 0. Two forked
    processes share the four runs, each with one BLAS thread, as
    run_grasp's workers have."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2, initializer=_pin_blas_to_one_thread) as pool:
        return dict(zip(sorted(CANNED),
                        pool.map(_serial_canned, sorted(CANNED), chunksize=1)))


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_runs_equal_the_serial_loop_at_seed_0(name, request,
                                                      serial_canned):
    # the shared session runs are run_grasp's side
    got = request.getfixturevalue(f"{name}_run")
    assert got.scenario.sensor.seed == 0
    assert_same_run(got, serial_canned[name])
    assert_matches_ledger(f"{name}-0", got)


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_runs_equal_the_serial_loop_at_seed_3(name):
    # the serial loop's seed-3 runs as the ledger recorded them
    assert_matches_ledger(f"{name}-3", run_grasp(CANNED[name](3)))


def test_moving_contact_run_directory_is_byte_identical(tmp_path):
    sc = moving_scenario()
    got = run_grasp(sc, out_dir=tmp_path / "workers", save_frames=True)
    want = serial_run_grasp(sc, out_dir=tmp_path / "serial",
                            save_frames=True)
    assert_same_run(got, want)
    assert_matches_ledger("moving", got)
    assert len({row[3] for row in got.episode_rows}) > 25  # f1_x moves
    files = directory_bytes(tmp_path / "workers")
    assert files == directory_bytes(tmp_path / "serial")
    assert {"frames/truth_1.csv", "frames/truth_2.csv", "episode.csv",
            "plant.csv", "track_1.csv", "track_2.csv",
            "manifest.txt"} <= set(files)
    assert sum(name.endswith(".pgm") for name in files) \
        == 2 * len(got.episode_rows)


@pytest.mark.parametrize("make, duration", SCHEDULE_EDGES)
def test_the_schedule_edges_equal_the_serial_loop(tmp_path, make, duration):
    sc = make(1, duration=duration)
    got = run_grasp(sc, out_dir=tmp_path / "workers", save_frames=True)
    want = serial_run_grasp(sc, out_dir=tmp_path / "serial",
                            save_frames=True)
    assert_same_run(got, want)
    assert_matches_ledger(edge_run(make, duration), got)
    assert got.terminated == (make is released_early)
    files = directory_bytes(tmp_path / "workers")
    assert files == directory_bytes(tmp_path / "serial")
    # nothing rendered ahead: one frame per finger and instant
    assert sum(name.endswith(".pgm") for name in files) \
        == 2 * len(got.episode_rows)


def test_finger_2_copies_a_calibration_equal_to_its_own():
    sc = static_scenario()
    copied = finger_steps(sc)[2].pipeline
    own = FingerPipeline(2, kde_config=sc.kde, detector_config=sc.detector,
                         calibration_ratio=sc.calibration_ratio)
    rest = replace(sc.sensor, noise_sigma=0.0)
    own.calibrate(render_frame(displace_markers(rest, None), rest,
                               finger_id=2, seq=0))
    assert copied.finger_id == 2
    assert vars(copied) == vars(own)


def test_a_finger_at_rest_renders_a_contact_of_depth_0():
    # With no event active, a step renders the rest layout; that is the
    # frame of a depth-0 contact at the frame's center, byte for byte.
    sc = static_scenario(1)
    frames = []
    recorder = SimpleNamespace(
        finger_id=2,
        process=lambda frame: frames.append(frame) or SimpleNamespace(
            center=None))
    step = FingerStep(sc, recorder, FrameStream(sc.sensor, 2))
    instants = (0.0, 0.033)
    assert [step(now) for now in instants] == [None, None]
    assert all(sc.active_event(2, now) is None for now in instants)
    untouched = ContactStimulus(x=sc.sensor.width / 2.0,
                                y=sc.sensor.height / 2.0,
                                depth=0.0, radius=40.0)
    stream = FrameStream(sc.sensor, 2)
    want = [stream.render(displace_markers(sc.sensor, untouched), now)
            for now in instants]
    assert [f.tobytes() for f in frames] == [f.tobytes() for f in want]


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
