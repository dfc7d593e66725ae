import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tacgrip
from tacgrip.cli import main
from tacgrip.density import KdeConfig
from tacgrip.perception import MAX_CALIBRATION_RATIO
from tacgrip.scenario import poke_scenario, scenario_to_text, static_scenario
from tacgrip.sensor_sim import ContactStimulus, FrameStream, displace_markers
from tacgrip.tracking import ContactTrack, track_displacement, write_track_csv


def _write_frames(directory, model, marker_sets, finger_id):
    """One finger's stream of marker sets, written to a directory with a
    capture time of 0.033 s per frame."""
    stream = FrameStream(model, finger_id, directory)
    for seq, markers in enumerate(marker_sets):
        stream.render(markers, 0.033 * seq)


def test_workspace_command(tmp_path, capsys):
    rc = main(["workspace", "--samples", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "volume(dexrot)" in out
    assert "volume(rotdex)" in out
    assert "volume(rotdex) < volume(dexrot)" in out
    for order in ("dexrot", "rotdex"):
        csv_path = tmp_path / f"workspace_{order}.csv"
        assert csv_path.is_file()
        assert csv_path.read_text().splitlines()[0] == "x,y,z"


def test_workspace_single_order(tmp_path, capsys):
    rc = main(["workspace", "--order", "rotdex", "--samples", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "volume(rotdex)" in out
    assert "<" not in out  # no comparison with one chain
    assert not (tmp_path / "workspace_dexrot.csv").exists()


# sha256 of the workspace CSVs as the per-sample FK loop wrote them,
# before forward kinematics was evaluated in blocks.
WORKSPACE_CSV_SHA256 = {
    3: {"dexrot": "fb7fe3b8027e94985495a96a729b49a0"
                  "3539c68bc7627e8477ef5b8f12ae8cd5",
        "rotdex": "364b503682990a1f819d8e44e64abe85"
                  "a820dc20f16ea40ab4d48992a0e4ec9a"},
    9: {"dexrot": "514b87e68223be7127270b434a214b0d"
                  "c775d75e00bec455d88a5e12d0a7ffc1",
        "rotdex": "10bd57e41a7ab7a332397e89c6b7bc15"
                  "3a4a7fb907bb2d12eef272e1c8317197"},
}


@pytest.mark.parametrize("samples", sorted(WORKSPACE_CSV_SHA256))
def test_workspace_csv_bytes_pinned(tmp_path, samples):
    rc = main(["workspace", "--samples", str(samples), "--out", str(tmp_path)])
    assert rc == 0
    for order, want in WORKSPACE_CSV_SHA256[samples].items():
        data = (tmp_path / f"workspace_{order}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, order


def test_grasp_command(tmp_path, capsys):
    scn = tmp_path / "short.scn"
    scn.write_text(scenario_to_text(static_scenario(seed=1, duration=1.0)))
    out_dir = tmp_path / "run"
    rc = main(["grasp", "--scenario", str(scn), "--out", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "final phase" in stdout
    for name in ("episode.csv", "plant.csv", "track_1.csv", "track_2.csv",
                 "manifest.txt"):
        assert (out_dir / name).is_file()


def test_grasp_refuses_a_directory_with_another_runs_frames(tmp_path,
                                                            capsys):
    scn = tmp_path / "short.scn"
    scn.write_text(scenario_to_text(static_scenario(seed=1, duration=0.1)))
    argv = ["grasp", "--scenario", str(scn), "--out", str(tmp_path / "run"),
            "--save-frames"]
    assert main(argv) == 0
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    capsys.readouterr()
    assert main(argv) == 1
    frames = tmp_path / "run" / "frames"
    assert capsys.readouterr().err == (
        f"error: {frames} already holds frames of another run, first "
        f"frame_1_000000.pgm; give the run a new directory\n")
    assert (tmp_path / "run" / "manifest.txt").read_text() == manifest
    assert len(list(frames.glob("*.pgm"))) == 8


def test_grasp_seed_override(tmp_path, capsys):
    scn = tmp_path / "short.scn"
    scn.write_text(scenario_to_text(static_scenario(seed=1, duration=0.2)))
    rc = main(["grasp", "--seed", "42", "--scenario", str(scn),
               "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "seed 42" in capsys.readouterr().out
    manifest = (tmp_path / "r" / "manifest.txt").read_text()
    assert "seed = 42" in manifest


@pytest.mark.parametrize("argv", [
    ["--seed", "3", "workspace"],
    ["--seed", "3", "grasp", "--scenario", "x.scn", "--out", "r"],
    ["workspace", "--seed", "3"],
    ["analyze", "--frames", "f", "--out", "a", "--seed", "3"],
    ["replay", "--track", "t.csv", "--seed", "3"]])
def test_seed_is_a_grasp_option(capsys, argv):
    # Only grasp reads a seed; anywhere else it is a usage error rather
    # than an option the subcommand ignores.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: tacgrip" in capsys.readouterr().err


@pytest.mark.parametrize("argv, typo", [
    (["replay", "--track", "t.csv", "--period", "0_033"], "float value: '0_033'"),
    (["replay", "--track", "t.csv", "--t1", " 0.5"], "float value: ' 0.5'"),
    (["analyze", "--frames", "f", "--out", "a", "--calibration-ratio", "0_5"],
     "float value: '0_5'"),
    (["grasp", "--scenario", "x.scn", "--out", "r", "--seed", "1_0"],
     "int value: '1_0'"),
    (["workspace", "--samples", "\u0663"], "int value: '\u0663'")])
def test_numeric_options_refuse_literal_spellings(capsys, argv, typo):
    # `--period 0_033` used to run at 33 s
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid {typo}" in capsys.readouterr().err


def test_grasp_missing_scenario(tmp_path, capsys):
    rc = main(["grasp", "--scenario", str(tmp_path / "nope.scn"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_grasp_bad_scenario(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("[scenario]\nwhatkey = 3\n")
    rc = main(["grasp", "--scenario", str(scn), "--out", str(tmp_path)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_saved_frames_reproduce_the_run(tmp_path, capsys):
    # analyze over a run's --save-frames output sees what the loop saw:
    # both fingers' tracks match the run's byte for byte, the poke on
    # finger 1 included.
    scn = tmp_path / "poke.scn"
    scn.write_text(scenario_to_text(
        poke_scenario(2, poke_time=1.8, duration=2.5)))
    run_dir, analysis = tmp_path / "run", tmp_path / "analysis"
    assert main(["grasp", "--scenario", str(scn), "--out", str(run_dir),
                 "--save-frames"]) == 0
    assert main(["analyze", "--frames", str(run_dir / "frames"),
                 "--out", str(analysis)]) == 0
    capsys.readouterr()
    for finger in (1, 2):
        name = f"track_{finger}.csv"
        assert len((run_dir / name).read_text().splitlines()) > 30
        assert (analysis / name).read_bytes() == (run_dir / name).read_bytes()


def test_analyze_command(tmp_path, capsys, nominal_model):
    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=16.0)
    sets = [displace_markers(nominal_model, None),
            displace_markers(nominal_model, stim),
            displace_markers(nominal_model, stim)]
    _write_frames(frames_dir, nominal_model, sets, finger_id=1)
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--frames", str(frames_dir), "--out", str(out_dir),
               "--heatmaps"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "finger 1: 3 frames, 2 with contact" in stdout
    assert (out_dir / "track_1.csv").is_file()
    heatmaps = sorted(out_dir.glob("density_1_*.pgm"))
    assert len(heatmaps) == 3  # one per processed frame


def test_heatmaps_skip_a_markerless_frame(tmp_path, capsys, nominal_model):
    # A blank frame yields an empty marker set and no region; analyze
    # goes on and writes heatmaps for the frames that show markers.
    from tacgrip.blobs import MarkerSet
    from tacgrip.pgm import read_pgm
    from tacgrip.perception import FingerPipeline

    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=16.0)
    _write_frames(frames_dir, nominal_model,
                  [displace_markers(nominal_model, None),
                   MarkerSet(np.empty((0, 2))),
                   displace_markers(nominal_model, stim)], finger_id=1)
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--frames", str(frames_dir), "--out",
                 str(out_dir), "--heatmaps"]) == 0
    assert "finger 1: 3 frames, 1 with contact" in capsys.readouterr().out
    assert [p.name for p in sorted(out_dir.glob("density_1_*.pgm"))] == \
        ["density_1_000000.pgm", "density_1_000002.pgm"]

    frames = [read_pgm(p) for p in sorted(frames_dir.glob("frame_1_*.pgm"))]
    cal = FingerPipeline(1).calibrate(frames[0])
    blank = cal.process(frames[1], cal.window)
    assert blank.center is None and blank.region is None
    assert isinstance(blank.markers, MarkerSet) and len(blank.markers) == 0


def test_analyze_rejects_a_touched_first_frame(tmp_path, capsys,
                                              nominal_model):
    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=40.0)
    sets = [displace_markers(nominal_model, stim),
            displace_markers(nominal_model, None)]
    _write_frames(frames_dir, nominal_model, sets, finger_id=1)
    rc = main(["analyze", "--frames", str(frames_dir),
               "--out", str(tmp_path / "analysis")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "frame_1_000000.pgm: calibration frame shows a contact" in err


def test_analyze_names_a_frame_of_another_size(tmp_path, capsys,
                                               nominal_model):
    from tacgrip.pgm import frame_filename, read_pgm, write_pgm

    frames_dir = tmp_path / "frames"
    _write_frames(frames_dir, nominal_model,
                  [displace_markers(nominal_model, None)] * 2, finger_id=1)
    second = frames_dir / frame_filename(1, 1)
    write_pgm(second, read_pgm(second)[:240, :320])
    rc = main(["analyze", "--frames", str(frames_dir),
               "--out", str(tmp_path / "analysis")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"{second}: frame is 320x240, but the pipeline was calibrated "
            f"on a 640x480 frame") in err


def test_analyze_names_two_files_of_one_frame(tmp_path, capsys,
                                              nominal_model):
    frames_dir = tmp_path / "frames"
    _write_frames(frames_dir, nominal_model,
                  [displace_markers(nominal_model, None)] * 2, finger_id=1)
    alias = frames_dir / "frame_1_1.pgm"
    alias.write_bytes((frames_dir / "frame_1_000001.pgm").read_bytes())
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--frames", str(frames_dir), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: {frames_dir / 'frame_1_000001.pgm'} and {alias} "
                   f"are both frame 1 of finger 1\n")
    assert not out_dir.exists()


def test_analyze_names_the_frame_whose_time_does_not_advance(
        tmp_path, capsys, nominal_model):
    # Past 2**53 two sequence numbers read as one float time.
    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=16.0)
    _write_frames(frames_dir, nominal_model,
                  [displace_markers(nominal_model, None)]
                  + [displace_markers(nominal_model, stim)] * 2, finger_id=1)
    late = []
    for seq in (1, 2):
        late.append(frames_dir / f"frame_1_{2**53 + seq - 1}.pgm")
        (frames_dir / f"frame_1_00000{seq}.pgm").rename(late[-1])
    rc = main(["analyze", "--frames", str(frames_dir),
               "--out", str(tmp_path / "analysis"), "--period", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {late[1]}: timestamp 9007199254740992.0 does not advance "
        f"past 9007199254740992.0\n")


def test_analyze_empty_dir(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    rc = main(["analyze", "--frames", str(tmp_path / "empty"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "no frame_" in capsys.readouterr().err


def test_replay_command(tmp_path, capsys):
    cfg = KdeConfig()  # pixel_scale_s = 0.05
    track = ContactTrack()
    centers = [(320.0, 240.0)] * 95 + [(340.0, 240.0)] + [(500.0, 240.0)]
    for i, c in enumerate(centers):
        track_displacement(track, c, 0.033 * (i + 1), cfg)
    src = tmp_path / "track_1.csv"
    write_track_csv(track, src)

    rc = main(["replay", "--track", str(src), "--out", str(tmp_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "DisturbanceOccured: 1" in stdout  # 20 px = 1.0 mm
    assert "Regrasp: 1" in stdout            # 160 px = 8.0 mm
    assert "StableGrasp:" in stdout
    flags = (tmp_path / "flags_track_1.csv").read_text().splitlines()
    assert flags[0] == "t,flag"
    assert len(flags) == len(centers) + 1


def test_replay_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b\n1,2\n")
    rc = main(["replay", "--track", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_replay_misaligned_d_mm(tmp_path, capsys):
    # a blank d_mm after the first row would shift every later
    # displacement onto the wrong timestamp
    src = tmp_path / "track_1.csv"
    src.write_text("t,x,y,d_mm\n0.033,320,240,\n0.066,320,240,\n")
    rc = main(["replay", "--track", str(src)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{src}: row 3:" in err


def test_replay_rejects_a_nan_displacement(tmp_path, capsys):
    # as the latest sample, a NaN d_mm used to replay as StableGrasp
    rows = [f"{0.033 * (i + 1):.6f},320,240,{'' if i == 0 else '0.0'}"
            for i in range(95)]
    rows.append("3.168000,320,240,nan")
    src = tmp_path / "track_1.csv"
    src.write_text("t,x,y,d_mm\n" + "\n".join(rows) + "\n")
    rc = main(["replay", "--track", str(src), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{src}: row 97: d_mm nan is not finite" in err
    assert not (tmp_path / "flags_track_1.csv").exists()


def test_density_heatmap_values(tmp_path, nominal_model):
    # analyze writes normalized heatmaps; spot-check one renders dark at
    # the pressed region
    from tacgrip.pgm import read_pgm

    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=200.0, y=200.0, depth=3.0, radius=16.0)
    sets = [displace_markers(nominal_model, None),
            displace_markers(nominal_model, stim)]
    _write_frames(frames_dir, nominal_model, sets, finger_id=2)
    out_dir = tmp_path / "a"
    rc = main(["analyze", "--frames", str(frames_dir), "--out", str(out_dir),
               "--heatmaps"])
    assert rc == 0
    img = read_pgm(sorted(out_dir.glob("density_2_*.pgm"))[1])
    h, w = img.shape
    assert img[200 * h // 480, 200 * w // 640] < 64


def test_heatmaps_are_full_frame_fields(tmp_path, nominal_model):
    # The pipeline computes density on the support box only; a heatmap is
    # still the whole frame's field over the frame's markers.
    from tacgrip.blobs import detect_markers
    from tacgrip.density import estimate_density, write_density_pgm
    from tacgrip.pgm import read_pgm

    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=180.0, y=160.0, depth=3.0, radius=16.0)
    sets = [displace_markers(nominal_model, None),
            displace_markers(nominal_model, stim)]
    _write_frames(frames_dir, nominal_model, sets, finger_id=1)
    out_dir = tmp_path / "a"
    assert main(["analyze", "--frames", str(frames_dir), "--out",
                 str(out_dir), "--heatmaps"]) == 0
    written = sorted(out_dir.glob("density_1_*.pgm"))
    frames = sorted(frames_dir.glob("frame_1_*.pgm"))
    assert len(written) == len(frames) == 2
    for heatmap, frame_path in zip(written, frames):
        want = tmp_path / "want.pgm"
        write_density_pgm(estimate_density(detect_markers(
            read_pgm(frame_path))), want)
        assert heatmap.read_bytes() == want.read_bytes()


def _calm_track(tmp_path, samples=120):
    track = ContactTrack()
    for i in range(samples):
        track_displacement(track, (320.0, 240.0), 0.033 * (i + 1), KdeConfig())
    src = tmp_path / "track_1.csv"
    write_track_csv(track, src)
    return src


@pytest.mark.parametrize("period", ["0", "nan", "-0.033", "inf"])
def test_replay_rejects_a_period_not_positive(tmp_path, capsys, period):
    # 0 divided by zero in the stability window; nan and negative periods
    # printed all-NoContact for a calm track that settles at 0.033 s.
    src = _calm_track(tmp_path)
    assert main(["replay", "--track", str(src), "--period", "0.033"]) == 0
    assert "120 samples (NoContact: 92, StableGrasp: 28)" in \
        capsys.readouterr().out
    rc = main(["replay", "--track", str(src), "--period", period])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --period = ")


# Runs one command in a fresh interpreter, then prints its exit code and
# every module it loaded as the last line.
_RUN_AND_LIST_MODULES = """
import json, sys
from tacgrip.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh_run(argv):
    """(stdout lines before the module list, loaded module names)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(tacgrip.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES,
                           *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    *printed, last = done.stdout.splitlines()
    code, modules = json.loads(last)
    assert code == 0, printed
    return printed, modules


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_replay_loads_no_scipy(tmp_path):
    printed, modules = _fresh_run(["replay", "--track",
                                   str(_calm_track(tmp_path))])
    assert "120 samples (NoContact: 92, StableGrasp: 28)" in printed
    assert _under(modules, "scipy") == []
    assert _under(modules, "tacgrip.density") == []


def test_workspace_loads_no_image_filtering(tmp_path):
    # No --samples: the default is read from workspace() when it runs.
    printed, modules = _fresh_run(["workspace", "--order", "rotdex",
                                   "--out", str(tmp_path)])
    assert any("(6561 samples)" in line for line in printed), printed
    assert _under(modules, "scipy.ndimage") == []
    assert _under(modules, "tacgrip.density") == []


@pytest.fixture(scope="module")
def rest_rest_touch(tmp_path_factory, nominal_model):
    frames_dir = tmp_path_factory.mktemp("frames")
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=16.0)
    rest = displace_markers(nominal_model, None)
    _write_frames(frames_dir, nominal_model,
                  [rest, rest, displace_markers(nominal_model, stim)],
                  finger_id=1)
    return frames_dir


@pytest.mark.parametrize("option, value", [
    ("--period", "nan"),          # wrote NaN timestamps replay rejects
    ("--period", "0"),
    ("--period", "-0.033"),
    ("--calibration-ratio", "5"),  # read the two rest frames as contact
    ("--calibration-ratio", "nan"),  # these three missed the contact
    ("--calibration-ratio", "0"),
    ("--calibration-ratio", "-1"),
    ("--calibration-ratio", "1"),  # read the second rest frame as contact
])
def test_analyze_rejects_an_option_outside_its_domain(tmp_path, capsys,
                                                      rest_rest_touch,
                                                      option, value):
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--frames", str(rest_rest_touch),
               "--out", str(out_dir), option, value])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {option} = ")
    assert not (out_dir / "track_1.csv").exists()


def test_analyze_at_the_largest_calibration_ratio(tmp_path, capsys,
                                                  rest_rest_touch):
    # The domain's upper end is a usable value: the second rest frame
    # reads no contact, the touch does.
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--frames", str(rest_rest_touch), "--out",
               str(out_dir), "--calibration-ratio",
               repr(MAX_CALIBRATION_RATIO)])
    assert rc == 0
    assert "finger 1: 3 frames, 1 with contact" in capsys.readouterr().out
