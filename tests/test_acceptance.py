"""Acceptance gate: the eight shipping criteria, one test each.

Run `pytest tests/test_acceptance.py -v` for a per-criterion pass/fail
line. Each test also prints a one-line summary with the measured
numbers (visible with -s or on failure).
"""

import math
import time

import numpy as np
import pytest

import tacgrip as tg
from tacgrip.cli import main
from tacgrip.control import (CommandKind, ControlThresholds, FlagKind,
                             GraspSupervisor, PerceptionFlag, Phase,
                             classify_frame)
from tacgrip.density import KdeConfig, estimate_density
from tacgrip.episode import measure_response_latency
from tacgrip import kinematics
from tacgrip.kinematics import (dex_rot_chain, finger_fk_batch, rot_dex_chain,
                                workspace)
from tacgrip.plant import N_CHAMBERS, PneumaticPlant
from tacgrip.scenario import Scenario, StimulusEvent, scenario_to_text
from tacgrip.sensor_sim import ContactStimulus, SensorModel, displace_markers, render_frame
from tacgrip.perception import FingerPipeline
from tacgrip.tracking import ContactTrack

CONTROL_DT = 0.033


def test_criterion_1_kde_oracle():
    """estimate_density matches direct Eq.-summation to <1e-12/point on
    100 random marker sets (M <= 50, 64x48 grid) in under 10 s."""
    h = 15.0
    gx = np.arange(64.0)
    gy = np.arange(48.0)
    xx, yy = np.meshgrid(gx, gy)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * h * h)

    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 51))
        cents = np.column_stack([rng.uniform(0, 63, m),
                                 rng.uniform(0, 47, m)])
        field = estimate_density(tg.MarkerSet(cents), KdeConfig(),
                                 width=64, height=48)
        oracle = np.zeros((48, 64))
        for mx, my in cents:
            oracle += norm * np.exp(
                -((xx - mx) ** 2 + (yy - my) ** 2) / (2.0 * h * h))
        oracle /= m
        worst = max(worst, float(np.abs(field.values - oracle).max()))
    elapsed = time.monotonic() - t0

    assert worst < 1e-12
    assert elapsed < 10.0
    print(f"criterion 1 (KDE oracle): PASS - max abs error {worst:.2e}, "
          f"{elapsed:.1f} s")


def test_criterion_2_perception_round_trip():
    """Over 50 seeded episodes (stimulus depth >= 1 mm), the recovered
    contact center lies within 2 px of the stimulus center in >= 95% of
    frames."""
    frames_per_episode = 8
    hits = 0
    misses = 0
    total = 0
    worst = 0.0
    for episode in range(50):
        rng = np.random.default_rng(episode)
        model = SensorModel(seed=episode)
        ref_model = SensorModel(seed=episode, noise_sigma=0.0)
        cal = FingerPipeline(1).calibrate(
            render_frame(displace_markers(ref_model, None), ref_model))
        window = cal.window
        for seq in range(frames_per_episode):
            stim = ContactStimulus(
                x=float(rng.uniform(240.0, 400.0)),
                y=float(rng.uniform(190.0, 290.0)),
                depth=float(rng.uniform(2.5, 4.5)),
                radius=float(rng.uniform(14.0, 20.0)),
            )
            markers = displace_markers(model, stim)
            frame = render_frame(markers, model, finger_id=1, seq=seq)
            report = cal.process(frame, window)
            window = report.window
            total += 1
            if report.center is None:
                misses += 1
                continue
            err = math.hypot(report.center[0] - stim.x,
                             report.center[1] - stim.y)
            worst = max(worst, err)
            if err <= 2.0:
                hits += 1

    fraction = hits / total
    assert total == 400
    assert fraction >= 0.95
    print(f"criterion 2 (round-trip): PASS - {hits}/{total} within 2 px "
          f"({100 * fraction:.1f}%), {misses} undetected, "
          f"worst localization error {worst:.2f} px")


def _track_with(disps, dt=CONTROL_DT):
    track = ContactTrack(finger_id=1)
    track.append(0.0, (320.0, 240.0))
    for i, d in enumerate(disps, 1):
        track.append(i * dt, (320.0, 240.0), d)
    return track


def test_criterion_3_algorithm_partition():
    """The displacement partition is exact: D <= 0.5 mm sustained 3 s ->
    StableGrasp; 0.5 < D <= 5 -> DisturbanceOccured; D > 5 -> Regrasp;
    10 s without contact after closure -> Release. Zero tolerance."""
    th = ControlThresholds()

    def classify_last(d):
        track = _track_with([0.0] * 94 + [float(d)])
        return classify_frame(track, th, track.timestamps[-1] + CONTROL_DT).kind

    checked = 0
    for d in np.linspace(0.0, 0.5, 51):
        assert classify_last(d) == FlagKind.STABLE_GRASP, f"D={d}"
        checked += 1
    for d in [np.nextafter(0.5, 1.0), *np.linspace(0.51, 5.0, 50)]:
        assert classify_last(d) == FlagKind.DISTURBANCE_OCCURED, f"D={d}"
        checked += 1
    for d in [np.nextafter(5.0, 6.0), *np.linspace(5.01, 50.0, 50), 1e6]:
        assert classify_last(d) == FlagKind.REGRASP, f"D={d}"
        checked += 1

    # sustained-3s edge on the 33 ms control grid: the window spans
    # n*dt seconds after n displacement samples
    for n in (10, 45, 90):
        track = _track_with([0.0] * n)
        assert classify_frame(track, th, track.timestamps[-1] + CONTROL_DT
                              ).kind == FlagKind.NO_CONTACT, f"n={n}"
    track = _track_with([0.0] * 91)
    assert classify_frame(track, th,
                          track.timestamps[-1] + CONTROL_DT
                          ).kind == FlagKind.STABLE_GRASP

    # a violation inside the window suppresses stability until it ages out
    disps = [0.0] * 95 + [2.0] + [0.0] * 120
    track = _track_with(disps)
    t_violation = track.timestamps[96]
    reacquired = None
    for i in range(95, len(disps)):
        prefix = _track_with(disps[: i + 1])
        now = prefix.timestamps[-1] + CONTROL_DT
        kind = classify_frame(prefix, th, now).kind
        if i == 95:
            assert kind == FlagKind.DISTURBANCE_OCCURED
        elif kind == FlagKind.STABLE_GRASP and reacquired is None:
            reacquired = now
        elif reacquired is None:
            assert kind == FlagKind.NO_CONTACT
    assert reacquired is not None
    assert 3.0 <= reacquired - t_violation <= 3.0 + 2 * CONTROL_DT

    # release fires at the first control instant >= 10 s of no contact
    sup = GraspSupervisor()
    sup.start(0.0)
    release_time = None
    k = 1
    while release_time is None and k < 400:
        now = k * CONTROL_DT
        cmds = sup.update(PerceptionFlag(1, FlagKind.NO_CONTACT, now),
                          PerceptionFlag(2, FlagKind.NO_CONTACT, now), now,
                          fresh1=False, fresh2=False)
        if cmds:
            assert [c.kind for c in cmds] == [CommandKind.RELEASE]
            release_time = now
        k += 1
    expected = CONTROL_DT * math.ceil(10.0 / CONTROL_DT)
    assert release_time == pytest.approx(expected, abs=1e-9)
    assert sup.phase.state == Phase.RELEASED
    assert sup.terminated

    print(f"criterion 3 (partition): PASS - {checked} displacement points, "
          f"window edge at 91 samples, release at {release_time:.3f} s")


def test_criterion_4_disturbance_recovery(poke_run):
    """The scripted 2 mm poke produces seal -> reopen -> reseal and a
    measured response latency inside [0.06 s, 0.36 s] at the lower-bound
    latency configs."""
    cfg = poke_run.scenario.plant
    assert (cfg.valve_latency, cfg.control_delay, cfg.line_delay) == \
        (0.010, 0.050, 0.050)

    kinds = poke_run.command_kinds()
    seal = kinds.index(CommandKind.CLOSE_VALVES)
    reopen = kinds.index(CommandKind.REOPEN_VALVES, seal + 1)
    reseal = kinds.index(CommandKind.CLOSE_VALVES, reopen + 1)
    assert seal < reopen < reseal
    assert poke_run.final_phase == Phase.STABLE
    assert poke_run.regrasp_count == 0

    latency = measure_response_latency(poke_run)
    assert 0.06 <= latency <= 0.36
    print(f"criterion 4 (recovery): PASS - seal/reopen/reseal at commands "
          f"{seal}/{reopen}/{reseal}, latency {latency:.3f} s")


def test_criterion_5_pressure_safety_fuzz():
    """1e5 ticks of random valve commands never drive any chamber
    outside [-57, +50] kPa; runtime < 30 s."""
    plant = PneumaticPlant()
    rng = np.random.default_rng(2024)
    lo, hi = 0.0, 0.0
    t0 = time.monotonic()
    for tick in range(100_000):
        if tick % 7 == 0:
            chamber = int(rng.integers(0, N_CHAMBERS))
            command = int(rng.integers(-1, 2))
            plant.apply_valve_command(chamber, command)
        if tick % 997 == 0:
            plant.apply_valve_command(list(range(N_CHAMBERS)),
                                      int(rng.integers(-1, 2)))
        state = plant.step()
        lo = min(lo, float(state.chamber_pressures.min()))
        hi = max(hi, float(state.chamber_pressures.max()))
        assert -57.0 <= state.chamber_pressures.min()
        assert state.chamber_pressures.max() <= 50.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 5 (safety fuzz): PASS - pressures stayed in "
          f"[{lo:.2f}, {hi:.2f}] kPa over 1e5 ticks, {elapsed:.1f} s")


def test_criterion_6_workspace_and_kinematics():
    """volume(RotDex) < volume(DexRot) at default gains; orthonormality
    < 1e-10, kappa->0 continuity < 1e-4 mm, quarter circle < 1e-6 mm."""
    dexrot = workspace(dex_rot_chain(), samples_per_axis=9)
    rotdex = workspace(rot_dex_chain(), samples_per_axis=9)
    assert 0.0 < rotdex.hull_volume < dexrot.hull_volume

    rng = np.random.default_rng(6)
    pressures = rng.uniform(-57.0, 50.0, (200, 4))
    poses = finger_fk_batch(dex_rot_chain(), pressures)
    worst_ortho = max(float(np.abs(r.T @ r - np.eye(3)).max())
                      for r in poses[:, :3, :3])
    assert worst_ortho < 1e-10

    # Three arcs of length 28 mm: nearly straight, straight, a quarter
    # circle.
    length = 28.0
    tiny, straight, quarter = kinematics._arc_transforms(
        np.array([1e-9, 0.0, (math.pi / 2) / length]),
        np.array([0.7, 0.7, 0.0]), np.full(3, length))
    continuity = float(np.linalg.norm(tiny[:3, 3] - straight[:3, 3]))
    assert continuity < 1e-4

    expect = np.array([2 * length / math.pi, 0.0, 2 * length / math.pi])
    quarter_err = float(np.abs(quarter[:3, 3] - expect).max())
    assert quarter_err < 1e-6

    print(f"criterion 6 (workspace): PASS - "
          f"{rotdex.hull_volume:.1f} < {dexrot.hull_volume:.1f} mm^3, "
          f"orthonormality {worst_ortho:.1e}, continuity {continuity:.1e} mm, "
          f"quarter-circle {quarter_err:.1e} mm")


def test_criterion_7_byte_identical_traces(tmp_path):
    """Two runs of a subcommand with the same seed produce byte-identical
    trace files."""
    scn = tmp_path / "det.scn"
    early_contact = Scenario(
        name="det", duration_s=1.0,
        sensor=SensorModel(seed=3),
        events=[StimulusEvent(time=0.2, finger=1, x=320.0, y=240.0,
                              depth=3.0, radius=40.0),
                StimulusEvent(time=0.2, finger=2, x=320.0, y=240.0,
                              depth=3.0, radius=40.0)],
    )
    scn.write_text(scenario_to_text(early_contact))
    names = ["episode.csv", "plant.csv", "track_1.csv", "track_2.csv",
             "manifest.txt"]
    for run in ("r1", "r2"):
        rc = main(["grasp", "--scenario", str(scn),
                   "--out", str(tmp_path / run)])
        assert rc == 0
    compared = []
    for name in names:
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
        compared.append(f"{name} ({len(a)} B)")
    # the tracked contact makes the comparison cover real center data
    assert len((tmp_path / "r1" / "track_1.csv").read_text().splitlines()) > 10

    for run in ("w1", "w2"):
        rc = main(["workspace", "--samples", "3",
                   "--out", str(tmp_path / run)])
        assert rc == 0
    for order in ("dexrot", "rotdex"):
        name = f"workspace_{order}.csv"
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w2" / name).read_bytes()
        compared.append(name)

    print("criterion 7 (determinism): PASS - byte-identical: "
          + ", ".join(compared))


def test_criterion_8_time_to_stable(static_run):
    """The canonical static grasp reaches Stable within 3-15 s simulated
    time."""
    tts = static_run.time_to_stable
    assert tts is not None
    assert 3.0 <= tts <= 15.0
    assert static_run.final_phase == Phase.STABLE
    print(f"criterion 8 (time to stable): PASS - stable at {tts:.3f} s")
