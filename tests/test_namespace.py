"""The package namespace: what `import tacgrip` exports and what it loads."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tacgrip

SRC = Path(tacgrip.__file__).resolve().parent.parent

# The package's public names, by the submodule that defines each.
HOMES = {
    "blobs": {"DetectorConfig", "MarkerSet", "detect_markers"},
    "control": {"CONTROL_PERIOD_S", "CommandKind", "ControlThresholds",
                "FlagKind", "GraspPhase", "GraspSupervisor",
                "LEGAL_TRANSITIONS", "McuCommand", "McuEmulator",
                "PerceptionFlag", "Phase", "classify_frame", "decode_frame",
                "encode_frame", "measure_valve_response"},
    "density": {"ContactRegion", "DensityField", "KdeConfig",
                "calibrate_threshold", "estimate_density", "extract_contact",
                "marker_support_box", "write_density_pgm"},
    "episode": {"EpisodeResult", "measure_response_latency", "run_grasp"},
    "errors": {"NoDisturbanceError", "ParseError", "TacgripError",
               "ValidationError", "WorkerError"},
    "kinematics": {"FingerChain", "JointModel", "WorkspaceResult",
                   "dex_joint", "dex_rot_chain", "hull_volume",
                   "rot_dex_chain", "rot_joint", "tip_position",
                   "workspace", "write_workspace_csv"},
    "perception": {"FingerPipeline"},
    "pgm": {"frame_filename", "iter_frame_files", "read_pgm", "write_pgm"},
    "plant": {"N_CHAMBERS", "PlantConfig", "PlantState", "PneumaticPlant",
              "safety_loop", "write_plant_trace_csv"},
    "scenario": {"Scenario", "StimulusEvent", "load_scenario",
                 "parse_scenario_text", "poke_scenario", "scenario_to_text",
                 "slip_scenario", "static_scenario", "timeout_scenario"},
    "sensor_sim": {"ContactStimulus", "SensorModel", "displace_markers",
                   "nominal_grid", "render_frame"},
    "tracking": {"ContactTrack", "read_track_csv", "track_displacement",
                 "write_track_csv"},
}
SUBMODULES = tuple(HOMES)
EXPORTED = set().union(*HOMES.values())


def test_all_lists_the_exported_names_once():
    assert len(SUBMODULES) == 12
    assert sum(map(len, HOMES.values())) == len(EXPORTED) == 74
    assert len(tacgrip.__all__) == len(set(tacgrip.__all__))
    assert set(tacgrip.__all__) == EXPORTED


@pytest.mark.parametrize("home", SUBMODULES)
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"tacgrip.{home}")
    for name in sorted(HOMES[home]):
        assert getattr(tacgrip, name) is getattr(module, name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve_after_bare_import(name):
    assert getattr(tacgrip, name) is importlib.import_module(f"tacgrip.{name}")


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match=r"'tacgrip'.*no_such_name"):
        tacgrip.no_such_name
    assert not hasattr(tacgrip, "no_such_name")


def test_every_submodule_is_the_home_of_a_public_name():
    assert all(tacgrip._EXPORTS.values())
    assert tacgrip._EXPORTS.keys() == HOMES.keys()
    for gone in ("tactile", "ScenarioError"):
        with pytest.raises(AttributeError, match=gone):
            getattr(tacgrip, gone)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from tacgrip import *", namespace)
    assert EXPORTED <= set(namespace)
    assert all(namespace[n] is getattr(tacgrip, n) for n in EXPORTED)


def test_dir_covers_all_and_the_submodules():
    listed = set(dir(tacgrip))
    assert EXPORTED <= listed
    assert set(SUBMODULES) <= listed
    assert "__version__" in listed


# Builds what the benchmark's long_hold set-up builds, then the control
# half's per-period calls, then a workspace with its hull volume; each
# stage prints the modules it must not have loaded, so a failure names
# them.
_CONTROL_HALF = textwrap.dedent("""
    import json
    import sys
    from types import SimpleNamespace

    import tacgrip as tg

    VISION = ("tacgrip.blobs", "tacgrip.density", "tacgrip.sensor_sim",
              "tacgrip.perception", "tacgrip.episode")

    def loaded(prefixes):  # loaded packages, cut to two name levels
        return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                       if m in prefixes or m.startswith(
                           tuple(p + "." for p in prefixes))})

    plant = tg.PneumaticPlant(tg.PlantConfig())
    tg.McuEmulator(plant)
    thresholds = tg.ControlThresholds()
    tg.GraspSupervisor(thresholds=thresholds)
    track = tg.ContactTrack(finger_id=1)
    scale = SimpleNamespace(pixel_scale_s=0.05)
    for k in range(10):
        now = k * tg.CONTROL_PERIOD_S
        tg.track_displacement(track, (100.0 + k, 80.0), now, scale)
        tg.classify_frame(track, thresholds, now)
    print(json.dumps(["control",
                      loaded(("scipy", "tacgrip.kinematics") + VISION)]))

    assert tg.workspace(tg.dex_rot_chain(), samples_per_axis=3).hull_volume > 0
    print(json.dumps(["workspace", loaded(("scipy.ndimage",) + VISION)]))
""")


def test_control_half_and_workspace_start_without_the_vision_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _CONTROL_HALF],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    stages = dict(json.loads(line) for line in done.stdout.splitlines())
    for stage in ("control", "workspace"):
        assert stages[stage] == [], f"{stage} loaded {stages[stage]}"
