"""Marker-density tactile perception and pneumatic grasp control.

A hardware-free stack for a two-finger pneumatic gripper with
camera-based tactile fingertips: synthetic marker-grid sensing, kernel
density contact perception, a grasp/disturbance state machine, a valve
and tank plant simulation, and constant-curvature finger kinematics.

Public names resolve on first read: `import tacgrip` loads no
submodule, and `tacgrip.GraspSupervisor` imports `tacgrip.control` and
nothing else it does not need. So the control half (control, plant,
tracking, errors) starts on numpy alone, and scipy loads only with the
vision stack or the kinematics.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "blobs": ("DetectorConfig", "MarkerSet", "detect_markers"),
    "control": ("CONTROL_PERIOD_S", "CommandKind", "ControlThresholds",
                "FlagKind", "GraspPhase", "GraspSupervisor",
                "LEGAL_TRANSITIONS", "McuCommand", "McuEmulator",
                "PerceptionFlag", "Phase", "classify_frame", "decode_frame",
                "encode_frame", "measure_valve_response"),
    "density": ("ContactRegion", "DensityField", "KdeConfig",
                "calibrate_threshold", "estimate_density", "extract_contact",
                "marker_support_box", "write_density_pgm"),
    "episode": ("EpisodeResult", "measure_response_latency", "run_grasp"),
    "errors": ("NoDisturbanceError", "ParseError", "TacgripError",
               "ValidationError", "WorkerError"),
    "kinematics": ("FingerChain", "JointModel", "WorkspaceResult",
                   "dex_joint", "dex_rot_chain", "hull_volume",
                   "rot_dex_chain", "rot_joint", "tip_position",
                   "workspace", "write_workspace_csv"),
    "pgm": ("frame_filename", "iter_frame_files", "read_pgm", "write_pgm"),
    "plant": ("N_CHAMBERS", "PlantConfig", "PlantState", "PneumaticPlant",
              "safety_loop", "write_plant_trace_csv"),
    "perception": ("FingerPipeline",),
    "scenario": ("Scenario", "StimulusEvent", "load_scenario",
                 "parse_scenario_text", "poke_scenario", "scenario_to_text",
                 "slip_scenario", "static_scenario", "timeout_scenario"),
    "sensor_sim": ("ContactStimulus", "SensorModel", "displace_markers",
                   "nominal_grid", "render_frame"),
    "tracking": ("ContactTrack", "read_track_csv", "track_displacement",
                 "write_track_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_HOME)


def __getattr__(name):
    """Import the submodule `name`, or the home of public name `name`."""
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        home = _importlib.import_module(f"{__name__}.{_HOME[name]}")
        return getattr(home, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
