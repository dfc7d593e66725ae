"""run_grasp's per-finger worker processes: the same run as with each
finger's step called in this process, and no worker outlives a run,
whether it returns or fails. The trace ledger (tests/trace_ledger.py) is
recorded with each step called in-process, so checking a worker run
against it compares the workers with the in-process run: the canned
scenarios at seeds 0 and 3, the moving contact and the schedule edges.
For the last two the ledger also holds the run directory, frames saved,
so no episode here runs in-process."""

import multiprocessing
import os
import random
import signal
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import tacgrip.blobs
import tacgrip.episode
import tacgrip.sensor_sim
from tacgrip.control import CONTROL_PERIOD_TICKS, GraspSupervisor, Phase
from tacgrip.episode import (FingerStep, _FingerWorkers,
                             _pin_blas_to_one_thread, _serve, finger_steps,
                             run_grasp)
from tacgrip.errors import ValidationError, WorkerError
from tacgrip.perception import FingerPipeline
from tacgrip.plant import TICK_S
from tacgrip.scenario import CANNED, Scenario, StimulusEvent, static_scenario
from tacgrip.sensor_sim import (ContactStimulus, FrameStream, SensorModel,
                                displace_markers, render_frame)
from trace_ledger import (RUNS, SAVES_FRAMES, SCHEDULE_EDGES,
                          assert_matches_ledger, differences, edge_run, load,
                          moving_scenario, released_early)


def file_names(root):
    return {p.relative_to(root).as_posix()
            for p in Path(root).rglob("*") if p.is_file()}


def test_the_ledger_holds_every_run_and_names_what_differs():
    ledger = load()
    assert set(ledger["runs"]) == set(RUNS)
    assert {run for run, parts in ledger["runs"].items()
            if "files" in parts} == SAVES_FRAMES
    got = dict(ledger["runs"]["static-0"], rows="0" * 64)
    assert differences("static-0", got, ledger) == [
        "static-0 rows: recorded 9b3afd00d1c4ca80, running 0000000000000000"]
    assert differences("static-9", got, ledger) == [
        "static-9: not in the ledger"]
    # a run directory that was not digested is named too
    got = {part: digest for part, digest in ledger["runs"]["moving"].items()
           if part != "files"}
    assert differences("moving", got, ledger) == [
        f"moving files: recorded {ledger['runs']['moving']['files'][:16]}, "
        f"running -"]


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_runs_equal_the_serial_loop_at_seed_0(name, request):
    # the shared session runs are run_grasp's side; the ledger recorded
    # the serial loop's
    got = request.getfixturevalue(f"{name}_run")
    assert got.scenario.sensor.seed == 0
    assert_matches_ledger(f"{name}-0", got)


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_runs_equal_the_serial_loop_at_seed_3(name):
    # the serial loop's seed-3 runs as the ledger recorded them
    assert_matches_ledger(f"{name}-3", run_grasp(CANNED[name](3)))


def test_moving_contact_run_directory_is_byte_identical(tmp_path):
    got = run_grasp(moving_scenario(), out_dir=tmp_path, save_frames=True)
    assert_matches_ledger("moving", got, tmp_path)
    assert len({row[3] for row in got.episode_rows}) > 25  # f1_x moves
    files = file_names(tmp_path)
    assert {"frames/truth_1.csv", "frames/truth_2.csv", "episode.csv",
            "plant.csv", "track_1.csv", "track_2.csv",
            "manifest.txt"} <= files
    assert sum(name.endswith(".pgm") for name in files) \
        == 2 * len(got.episode_rows)


@pytest.mark.parametrize("make, duration", SCHEDULE_EDGES)
def test_the_schedule_edges_equal_the_serial_loop(tmp_path, make, duration):
    got = run_grasp(make(1, duration=duration), out_dir=tmp_path,
                    save_frames=True)
    assert_matches_ledger(edge_run(make, duration), got, tmp_path)
    assert got.terminated == (make is released_early)
    if got.terminated:
        # The release comes less than the grace before the scenario's
        # end; the run goes on through the whole grace, so the release
        # sequence lands and seals every valve.
        assert got.final_phase == Phase.RELEASED
        t_release = got.transitions[-1][0]
        assert t_release < duration
        assert got.plant_rows[-1][0] >= t_release + 1.4
        assert all(v == 0 for v in got.plant_rows[-1][-8:])
    files = file_names(tmp_path)
    # nothing rendered ahead: one frame per finger and instant
    assert sum(name.endswith(".pgm") for name in files) \
        == 2 * len(got.episode_rows)


def test_the_workers_keep_the_fingers_apart(deadline):
    # Most ledger runs give both fingers one stimulus, so a transport
    # that handed both fingers one finger's reply would pass them.
    steps = {finger: lambda now, finger=finger: (finger, now)
             for finger in (1, 2)}
    with _FingerWorkers(steps) as workers:
        for k in range(4):
            now = k * 0.033
            workers.send(now)
            assert workers.receive() == {1: (1, now), 2: (2, now)}


def test_both_fingers_share_one_calibration():
    steps = finger_steps(static_scenario())
    assert steps[1].calibration is steps[2].calibration
    assert [steps[f].stream.finger_id for f in (1, 2)] == [1, 2]
    assert steps[1].window == steps[2].window == steps[1].calibration.window


def test_a_step_passes_its_detection_window_along(monkeypatch):
    # A contact one marker spacing inside the grid's left edge, moving
    # every period, pushes markers out of the calibration's window. The
    # first frame falls back to the full frame and grows the window; a
    # step that passed the window along finds every later frame's markers
    # inside it. Detection gives the same markers either way, so only
    # the fallback count can tell.
    rng = random.Random(5)
    period = CONTROL_PERIOD_TICKS * TICK_S
    instants = [k * period for k in range(10)]
    events = [StimulusEvent(now, finger,
                            x=192.0 + 0.5 * k + rng.uniform(-1.5, 1.5),
                            y=229.5 + 10.0 * finger + rng.uniform(-1.5, 1.5),
                            depth=3.0, radius=40.0)
              for k, now in enumerate(instants) for finger in (1, 2)]
    sc = Scenario(name="edge", duration_s=len(instants) * period,
                  sensor=SensorModel(seed=1), events=events)
    steps = finger_steps(sc)
    full_frame = {1: 0, 2: 0}
    detect_in_box = tacgrip.blobs._detect_in_box

    def counting(frame, config, box):
        h, w = frame.shape
        full_frame[finger] += box == (0, 0, w, h)
        return detect_in_box(frame, config, box)

    monkeypatch.setattr(tacgrip.blobs, "_detect_in_box", counting)
    for now in instants:
        for finger in (1, 2):
            assert steps[finger](now) is not None
    assert max(full_frame.values()) <= 1, full_frame


def test_a_step_displaces_once_per_event_and_stamps_once_per_layout(
        monkeypatch):
    # Both caches live in the worker, where no benchmark span sees them.
    # Finger 1 is touched at 0.1 s, touched again alike by a second event
    # at 0.3 s and released by a depth-0 event at 0.5 s; finger 2 is
    # touched at 0.2 s. A step displaces the markers once per active
    # event, the rest grid included, and its stream stamps once per
    # change of layout: the equal touch and the release to the rest grid
    # give no new stamp and a stamp.
    touch = dict(x=300.0, y=250.0, depth=2.5, radius=40.0)
    events = [StimulusEvent(0.1, 1, **touch), StimulusEvent(0.2, 2, **touch),
              StimulusEvent(0.3, 1, **touch),
              StimulusEvent(0.5, 1, **dict(touch, depth=0.0))]
    sc = Scenario(name="events", duration_s=0.7, sensor=SensorModel(seed=1),
                  events=events)
    steps = finger_steps(sc)
    displaced, stamped = [], []
    displace = tacgrip.episode.displace_markers
    stamp = tacgrip.sensor_sim.disk_coverage

    def counting_displace(model, stimulus):
        displaced.append(finger)
        return displace(model, stimulus)

    def counting_stamp(markers, model):
        stamped.append(finger)
        return stamp(markers, model)

    monkeypatch.setattr(tacgrip.episode, "displace_markers",
                        counting_displace)
    monkeypatch.setattr(tacgrip.sensor_sim, "disk_coverage", counting_stamp)
    period = CONTROL_PERIOD_TICKS * TICK_S
    for k in range(int(0.7 / period) + 1):
        for finger in (1, 2):
            steps[finger](k * period)
    assert [displaced.count(f) for f in (1, 2)] == [4, 2]
    assert [stamped.count(f) for f in (1, 2)] == [3, 2]


def test_the_shared_calibration_equals_finger_2s_own():
    # finger_steps calibrates on finger 1's rest frame; with no noise,
    # finger 2's rest frame calibrates to an equal value.
    sc = static_scenario()
    own = FingerPipeline(2, kde_config=sc.kde, detector_config=sc.detector,
                         calibration_ratio=sc.calibration_ratio)
    rest = replace(sc.sensor, noise_sigma=0.0)
    assert finger_steps(sc)[2].calibration == own.calibrate(
        render_frame(displace_markers(rest, None), rest, finger_id=2, seq=0))


def test_a_finger_at_rest_renders_a_contact_of_depth_0():
    # With no event active, a step renders the rest layout; that is the
    # frame of a depth-0 contact at the frame's center, byte for byte.
    sc = static_scenario(1)
    frames = []
    recorder = SimpleNamespace(
        window=(0, 0, 640, 480),
        process=lambda frame, window: frames.append(frame) or SimpleNamespace(
            center=None, window=window))
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
    """Make finger 2's FingerStep call fail(self) on its fifth frame;
    finger 1 runs on. Returns the list of the control instants at which
    the supervisor ran."""
    step, update = FingerStep.__call__, GraspSupervisor.update
    instants = []

    def counting(self, now):
        self.frames = getattr(self, "frames", 0) + 1
        if self.stream.finger_id == 2 and self.frames == 5:
            fail(self)
        return step(self, now)

    def recording(self, flag1, flag2, now, **fresh):
        instants.append(now)
        return update(self, flag1, flag2, now, **fresh)

    monkeypatch.setattr(FingerStep, "__call__", counting)
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
    sc = replace(sc, detector=replace(sc.detector, threshold_abs=2.83))
    with pytest.raises(ValidationError, match="finger 1: calibration frame"):
        run_grasp(sc)


def test_a_worker_that_raises_is_named(deadline, monkeypatch):
    def fail(step):
        raise ValueError("fifth frame refused")

    instants = fail_on_fifth_frame(monkeypatch, fail)
    with pytest.raises(WorkerError, match="finger 2: its worker raised") \
            as caught:
        run_grasp(static_scenario(duration=8.0))
    assert "ValueError: fifth frame refused" in str(caught.value)
    assert len(instants) == 4  # raised at the fifth instant, not later


def test_a_worker_that_dies_is_named(deadline, monkeypatch):
    test_process = os.getpid()

    def die(step):
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
