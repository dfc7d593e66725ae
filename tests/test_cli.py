import numpy as np

from tacgrip.cli import main
from tacgrip.density import KdeConfig
from tacgrip.scenario import scenario_to_text, static_scenario
from tacgrip.sensor_sim import ContactStimulus, displace_markers, write_frames
from tacgrip.tracking import ContactTrack, track_displacement, write_track_csv


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


def test_grasp_seed_override(tmp_path, capsys):
    scn = tmp_path / "short.scn"
    scn.write_text(scenario_to_text(static_scenario(seed=1, duration=0.2)))
    rc = main(["--seed", "42", "grasp", "--scenario", str(scn),
               "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "seed 42" in capsys.readouterr().out
    manifest = (tmp_path / "r" / "manifest.txt").read_text()
    assert "seed = 42" in manifest


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


def test_analyze_command(tmp_path, capsys, nominal_model):
    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=320.0, y=240.0, depth=3.0, radius=16.0,
                           timestamp=0.0)
    sets = [displace_markers(nominal_model, None),
            displace_markers(nominal_model, stim),
            displace_markers(nominal_model, stim)]
    write_frames(frames_dir, nominal_model, sets, finger_id=1)
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--frames", str(frames_dir), "--out", str(out_dir),
               "--heatmaps"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "finger 1: 3 frames, 2 with contact" in stdout
    assert (out_dir / "track_1.csv").is_file()
    heatmaps = sorted(out_dir.glob("density_1_*.pgm"))
    assert len(heatmaps) == 3  # one per processed frame


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


def test_density_heatmap_values(tmp_path, nominal_model):
    # analyze writes normalized heatmaps; spot-check one renders dark at
    # the pressed region
    from tacgrip.pgm import read_pgm

    frames_dir = tmp_path / "frames"
    stim = ContactStimulus(x=200.0, y=200.0, depth=3.0, radius=16.0,
                           timestamp=0.0)
    sets = [displace_markers(nominal_model, None),
            displace_markers(nominal_model, stim)]
    write_frames(frames_dir, nominal_model, sets, finger_id=2)
    out_dir = tmp_path / "a"
    rc = main(["analyze", "--frames", str(frames_dir), "--out", str(out_dir),
               "--heatmaps"])
    assert rc == 0
    img = read_pgm(sorted(out_dir.glob("density_2_*.pgm"))[1])
    h, w = img.shape
    assert img[200 * h // 480, 200 * w // 640] < 64
