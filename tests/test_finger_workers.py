"""run_grasp's per-finger worker processes: the same run as with each
finger's step called in this process, and no worker outlives a run,
whether it returns or fails. The trace ledger (tests/trace_ledger.py) is
recorded with each step called in-process, so checking a worker run
against it compares the workers with the in-process run: the canned
scenarios at seeds 0 and 3, the moving contact and the schedule edges.
The last two also run in-process here, because the ledger does not hold
the frames they save: their run directories are compared byte for
byte."""

import dataclasses
import multiprocessing
import os
import signal
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import tacgrip.episode
from tacgrip.control import GraspSupervisor, Phase
from tacgrip.episode import (EPISODE_COLUMNS, FingerStep,
                             _pin_blas_to_one_thread, _serve, finger_steps,
                             run_grasp)
from tacgrip.errors import ValidationError, WorkerError
from tacgrip.perception import FingerPipeline
from tacgrip.plant import TRACE_COLUMNS
from tacgrip.scenario import CANNED, static_scenario
from tacgrip.sensor_sim import (ContactStimulus, FrameStream,
                                displace_markers, render_frame)
from trace_ledger import (RUNS, SCHEDULE_EDGES, assert_matches_ledger,
                          differences, edge_run, load, moving_scenario,
                          released_early, serial_run_grasp)


def _mismatch(a, b):
    """The first index at which sequences a and b differ (the shorter
    one's length if it is a prefix of the other), or None if they are
    equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def _at(seq, i):
    return repr(seq[i]) if i < len(seq) else "nothing"


def first_difference(got, want):
    """A line naming the first place where run `got` parts from run
    `want`: an episode or plant row with its tick and column, a finger's
    track, a command, a transition or the outcome. None when they are
    the same run."""
    for name, columns in (("episode", EPISODE_COLUMNS),
                          ("plant", TRACE_COLUMNS)):
        a, b = getattr(got, f"{name}_rows"), getattr(want, f"{name}_rows")
        i = _mismatch(a, b)
        if i is None:
            continue
        if i == min(len(a), len(b)):
            return f"{len(a)} {name} rows, not {len(b)}"
        j = _mismatch(a[i], b[i])
        # an episode row holds its tick; plant row i is the plant at tick i
        tick = a[i][0] if name == "episode" else i
        return (f"{name} row {i} (tick {tick}) {columns[j]}: "
                f"{a[i][j]!r} != {b[i][j]!r}")
    for finger, track in got.tracks.items():
        if track != want.tracks[finger]:
            return f"the track of finger {finger}"
    for name in ("commands", "transitions"):
        a, b = getattr(got, name), getattr(want, name)
        i = _mismatch(a, b)
        if i is not None:
            return f"{name}[{i}]: {_at(a, i)} != {_at(b, i)}"
    outcome = [(r.regrasp_count, r.terminated, r.final_phase)
               for r in (got, want)]
    if outcome[0] != outcome[1]:
        return f"outcome (regrasps, terminated, phase): {outcome[0]} != " \
               f"{outcome[1]}"
    return None


def assert_same_run(got, want):
    difference = first_difference(got, want)
    assert difference is None, f"the runs part first at {difference}"


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


def test_assert_same_run_names_the_first_cell_that_differs(static_run):
    assert first_difference(static_run, static_run) is None
    rows = [list(row) for row in static_run.episode_rows]
    rows[5][EPISODE_COLUMNS.index("f1_x")] = "0.000"
    edited = replace(static_run, episode_rows=rows)
    with pytest.raises(AssertionError, match=r"part first at episode row 5 "
                       r"\(tick 165\) f1_x: '0\.000' != "):
        assert_same_run(edited, static_run)
    v3 = TRACE_COLUMNS.index("v3")
    rows = [list(row) for row in static_run.plant_rows]
    rows[40][v3] = 7
    edited = replace(static_run, plant_rows=rows)
    assert first_difference(static_run, edited) == \
        f"plant row 40 (tick 40) v3: {static_run.plant_rows[40][v3]!r} != 7"


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
    if got.terminated:
        # The release comes less than the grace before the scenario's
        # end; the run goes on through the whole grace, so the release
        # sequence lands and seals every valve.
        assert got.final_phase == Phase.RELEASED
        t_release = got.transitions[-1][0]
        assert t_release < duration
        assert got.plant_rows[-1][0] >= t_release + 1.4
        assert all(v == 0 for v in got.plant_rows[-1][-8:])
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
