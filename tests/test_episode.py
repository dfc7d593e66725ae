import csv
import dataclasses
import re

import pytest

import tacgrip.control
import tacgrip.episode
from tacgrip.control import CommandKind, McuEmulator, Phase
from tacgrip.episode import (EPISODE_COLUMNS, episode_row,
                             measure_response_latency, run_grasp)
from tacgrip.errors import NoDisturbanceError, ValidationError
from tacgrip.pgm import iter_frame_files
from tacgrip.plant import TICK_S
from tacgrip.scenario import Scenario, slip_scenario, static_scenario
from trace_ledger import recorded_centers, released_early, replay_run_grasp


def phases(result):
    return [(old.value, new.value) for _, old, new in result.transitions]


def test_static_reaches_stable(static_run):
    assert phases(static_run) == [("idle", "closing"),
                                  ("closing", "contacted"),
                                  ("contacted", "stable")]
    assert static_run.final_phase == Phase.STABLE
    assert not static_run.terminated
    assert static_run.regrasp_count == 0
    # contact at 1 s plus the 3 s stability window plus pipeline latency
    assert 3.0 <= static_run.time_to_stable <= 15.0


def test_static_seals_once(static_run):
    kinds = static_run.command_kinds()
    assert kinds.count(CommandKind.CLOSE_VALVES) == 1
    assert CommandKind.REGRASP not in kinds
    assert static_run.first_seal_time == static_run.time_to_stable


def test_static_flags_settle(static_run):
    tail = [kind for _, kind in static_run.flags[1][-20:]]
    assert set(tail) == {"StableGrasp"}


def test_episode_rows_shape(static_run):
    for row in static_run.episode_rows:
        assert len(row) == len(EPISODE_COLUMNS)
    ticks = [row[0] for row in static_run.episode_rows]
    assert ticks == sorted(ticks)
    assert all(t % 33 == 0 for t in ticks)
    names = {p.value for p in Phase}
    assert all(row[2] in names for row in static_run.episode_rows)


def test_instants_are_what_the_rows_commands_and_flags_read(static_run):
    instants = static_run.instants
    assert [episode_row(rec) for rec in instants] == static_run.episode_rows
    assert static_run.commands == [(rec.tick * TICK_S, cmd)
                                   for rec in instants for cmd in rec.commands]
    assert static_run.flags == {
        f: [(rec.tick * TICK_S, rec.flags[f - 1].value) for rec in instants]
        for f in (1, 2)}
    # each center, and the D it appended, is its track's sample
    for f, track in static_run.tracks.items():
        samples = [(rec.tick * TICK_S, rec.centers[f - 1],
                    rec.displacements[f - 1])
                   for rec in instants if rec.centers[f - 1] is not None]
        assert samples == list(zip(track.timestamps, track.centers,
                                   [None] + track.displacements))


@pytest.mark.parametrize("fixture", ["static_run", "poke_run", "slip_run",
                                     "timeout_run"])
def test_the_control_half_is_a_function_of_the_centers(request, fixture):
    # Fed the centers its tracks hold, with no frame rendered, the run
    # makes the same records, rows, tracks, commands and transitions.
    run = request.getfixturevalue(fixture)
    replay = replay_run_grasp(run.scenario, recorded_centers(run))
    assert replay.instants == run.instants
    for part in ("episode_rows", "plant_rows", "tracks", "commands",
                 "transitions", "regrasp_count", "final_phase"):
        assert getattr(replay, part) == getattr(run, part), part


def test_freshness_is_asked_once_per_finger_per_instant(static_run,
                                                        monkeypatch):
    asked = []
    fresh = tacgrip.control.has_fresh_contact

    def counting(track, now, *args):
        asked.append((track.finger_id, now))
        return fresh(track, now, *args)

    for module in (tacgrip.episode, tacgrip.control):
        monkeypatch.setattr(module, "has_fresh_contact", counting)
    result = replay_run_grasp(static_run.scenario,
                              recorded_centers(static_run))
    assert asked == [(f, rec.tick * TICK_S)
                     for rec in result.instants for f in (1, 2)]


def test_poke_reopens_and_reseals(poke_run):
    kinds = poke_run.command_kinds()
    first_close = kinds.index(CommandKind.CLOSE_VALVES)
    reopen = kinds.index(CommandKind.REOPEN_VALVES, first_close + 1)
    assert CommandKind.CLOSE_VALVES in kinds[reopen + 1:]
    assert poke_run.final_phase == Phase.STABLE
    assert poke_run.regrasp_count == 0
    seq = phases(poke_run)
    assert ("stable", "disturbed") in seq
    assert ("disturbed", "stable") in seq


def test_poke_latency_within_band(poke_run):
    latency = measure_response_latency(poke_run)
    # one control period of detection plus the control and valve delays,
    # allowing a missed frame or two
    assert 0.06 <= latency <= 0.36


def test_slip_triggers_regrasp(slip_run):
    assert slip_run.regrasp_count == 1
    assert CommandKind.REGRASP in slip_run.command_kinds()
    seq = phases(slip_run)
    assert ("stable", "disturbed") in seq
    assert ("disturbed", "regrasping") in seq
    assert ("regrasping", "closing") in seq
    assert seq[-1] == ("contacted", "stable")
    assert slip_run.final_phase == Phase.STABLE


def test_timeout_releases(timeout_run):
    assert timeout_run.final_phase == Phase.RELEASED
    assert timeout_run.terminated
    assert timeout_run.command_kinds()[-1] == CommandKind.RELEASE
    t_release = timeout_run.transitions[-1][0]
    timeout = timeout_run.scenario.thresholds.no_contact_timeout_s
    assert timeout <= t_release <= timeout + 0.2
    assert timeout_run.time_to_stable is None


def test_timeout_run_extends_through_release_grace(timeout_run):
    t_release = timeout_run.transitions[-1][0]
    t_end = timeout_run.plant_rows[-1][0]
    assert t_end >= t_release + 1.4
    # release vents for a second and then seals everything
    assert all(v == 0 for v in timeout_run.plant_rows[-1][-8:])
    assert min(timeout_run.plant_rows[-1][3:11]) < -20.0


def test_release_grace_outlasts_the_scenario():
    # The release comes less than the grace before the scenario's end;
    # the run goes on through the whole grace, so the release sequence
    # lands and seals every valve. Here the release is at 0.528 s of a
    # 0.6 s scenario.
    result = run_grasp(released_early(0, duration=0.6))
    assert result.final_phase == Phase.RELEASED
    t_release = result.transitions[-1][0]
    assert t_release < result.scenario.duration_s
    assert result.plant_rows[-1][0] >= t_release + 1.4
    assert all(v == 0 for v in result.plant_rows[-1][-8:])


def test_regrasp_cap_ends_the_episode_released(tmp_path):
    # With no regrasp allowed, the slip reopens the seal and the latched
    # regrasp becomes a release: the rows, transitions and manifest show
    # the Released phase the valves were sent to.
    scenario = dataclasses.replace(
        slip_scenario(0, slip_time=4.5, duration=6.5), max_regrasps=0)
    result = run_grasp(scenario, out_dir=tmp_path)
    t_release, old, new = result.transitions[-1]
    assert (old, new) == (Phase.DISTURBED, Phase.RELEASED)
    assert t_release > 4.5
    assert result.final_phase == Phase.RELEASED and result.terminated
    assert result.regrasp_count == 0
    assert result.command_kinds()[-1] == CommandKind.RELEASE
    assert CommandKind.REGRASP not in result.command_kinds()
    last = result.episode_rows[-1]
    assert last[2] == "released" and last[11] == "RELEASE"
    assert "final_phase = released" in \
        (tmp_path / "manifest.txt").read_text().splitlines()


def test_no_disturbance_to_measure(static_run, timeout_run):
    with pytest.raises(NoDisturbanceError):
        measure_response_latency(static_run)
    with pytest.raises(NoDisturbanceError):
        measure_response_latency(timeout_run)


def test_invalid_scenario_rejected():
    with pytest.raises(ValidationError):
        run_grasp(Scenario(duration_s=-1.0))


def test_calibration_failure_is_a_scenario_error():
    # both used to escape from run_grasp as bare errors of the pipeline
    sc = static_scenario(duration=0.1)
    sc = dataclasses.replace(
        sc, detector=dataclasses.replace(sc.detector, threshold_abs=2.83))
    with pytest.raises(ValidationError,
                       match="finger 1: calibration frame shows no markers"):
        run_grasp(sc)
    sc = static_scenario(duration=0.1)
    sc = dataclasses.replace(
        sc, sensor=dataclasses.replace(sc.sensor, grid_rows=2))
    with pytest.raises(ValidationError, match="calibration frame: support"):
        run_grasp(sc)


def test_save_frames_needs_an_out_dir():
    # the flag used to write nothing, silently
    with pytest.raises(ValueError, match="save_frames needs an out_dir"):
        run_grasp(static_scenario(duration=0.1), save_frames=True)


@pytest.mark.parametrize("save_frames", [True, False])
def test_a_run_directory_holds_the_frames_of_one_run(tmp_path, monkeypatch,
                                                     save_frames):
    # A second run into the directory left the first run's extra frames
    # beside its own: 7 frames per finger under a manifest of 4 ticks.
    run_grasp(static_scenario(1, duration=0.2), out_dir=tmp_path,
              save_frames=True)
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def never(*args, **kwargs):
        raise AssertionError("calibrated")

    monkeypatch.setattr(tacgrip.episode, "finger_steps", never)
    frames = tmp_path / "frames"
    with pytest.raises(ValueError, match=re.escape(
            f"{frames} already holds frames of another run, first "
            f"frame_1_000000.pgm")):
        run_grasp(static_scenario(1, duration=0.1), out_dir=tmp_path,
                  save_frames=save_frames)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == written


def test_a_frames_directory_without_frames_is_no_run(tmp_path):
    (tmp_path / "frames").mkdir()
    (tmp_path / "frames" / "notes.txt").write_text("not a frame\n")
    result = run_grasp(static_scenario(1, duration=0.1), out_dir=tmp_path,
                       save_frames=True)
    assert len(iter_frame_files(tmp_path / "frames")) \
        == 2 * len(result.episode_rows)


def test_tick_loop_calls_no_mcu_method(monkeypatch):
    # submit puts every valve change on the plant's queue; nothing is
    # left for the MCU to do between control instants.
    def fail(self):
        raise AssertionError("McuEmulator.on_tick called")

    monkeypatch.setattr(McuEmulator, "on_tick", fail)
    result = run_grasp(static_scenario(duration=0.2))
    assert result.command_kinds() == [CommandKind.REOPEN_VALVES]
    assert result.plant_rows[-1][-8:] == [1] * 8


def test_outputs_and_determinism(tmp_path):
    scenario = static_scenario(seed=5, duration=1.0)
    a = run_grasp(scenario, out_dir=tmp_path / "a", save_frames=True)
    b = run_grasp(scenario, out_dir=tmp_path / "b", save_frames=True)

    assert a.episode_rows == b.episode_rows
    assert a.plant_rows == b.plant_rows
    for name in ("episode.csv", "plant.csv", "track_1.csv", "track_2.csv",
                 "manifest.txt"):
        pa, pb = tmp_path / "a" / name, tmp_path / "b" / name
        assert pa.is_file()
        assert pa.read_bytes() == pb.read_bytes()

    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    assert "scenario = static" in manifest
    assert "seed = 5" in manifest
    assert "config_sha256 = " in manifest

    frames = list(iter_frame_files(tmp_path / "a" / "frames"))
    assert len(frames) == 2 * len(a.episode_rows)
    assert {f for f, _, _ in frames} == {1, 2}

    header = (tmp_path / "a" / "episode.csv").read_text().splitlines()[0]
    assert header == ",".join(EPISODE_COLUMNS)
    with open(tmp_path / "a" / "episode.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert a.flags == {f: [(int(row["tick"]) * TICK_S, row[f"flag{f}"])
                           for row in rows] for f in (1, 2)}


def test_saved_frames_carry_their_instants_time(tmp_path):
    # A frame is its pixels; each stream writes the control instant's time,
    # which its caller passes, into the frame's PGM comment.
    result = run_grasp(static_scenario(duration=0.2), tmp_path,
                       save_frames=True)
    frames = list(iter_frame_files(tmp_path / "frames"))
    assert len(frames) == 2 * len(result.episode_rows) == 14
    for _, seq, path in frames:
        t = float(result.episode_rows[seq][1])
        assert path.read_bytes().split(b"\n", 2)[1] == f"# t={t:.6f}".encode()
