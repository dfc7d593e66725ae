"""Marker-density tactile perception and pneumatic grasp control.

A hardware-free stack for a two-finger pneumatic gripper with
camera-based tactile fingertips: synthetic marker-grid sensing, kernel
density contact perception, a grasp/disturbance state machine, a valve
and tank plant simulation, and constant-curvature finger kinematics.
"""

__version__ = "0.1.0"

from .blobs import DetectorConfig, MarkerSet, detect_markers
from .control import (CONTROL_PERIOD_S, CommandKind, ControlThresholds,
                      FlagKind, GraspPhase, GraspSupervisor,
                      LEGAL_TRANSITIONS, McuCommand, McuEmulator,
                      PerceptionFlag, Phase, classify_frame,
                      decode_frame, encode_frame, measure_valve_response)
from .density import (ContactRegion, DensityField, KdeConfig,
                      calibrate_threshold, estimate_density, extract_contact,
                      marker_support_box, write_density_pgm)
from .episode import (EpisodeResult, measure_response_latency, run_grasp)
from .errors import (EmptyMarkerSetError, InvalidSelectorError,
                     NoDisturbanceError, NonMonotonicTimeError, ParseError,
                     PressureOutOfRangeError, ScenarioError, StaleFlagsError,
                     TacgripError, ValidationError)
from .kinematics import (CcSegment, FingerChain, JointModel, WorkspaceResult,
                         cc_transform, dex_joint, dex_rot_chain, finger_fk,
                         hull_volume, pressure_to_cc, rot_dex_chain,
                         rot_joint, tip_position, workspace,
                         write_workspace_csv)
from .pgm import frame_filename, iter_frame_files, read_pgm, write_pgm
from .plant import (N_CHAMBERS, PlantConfig, PlantState, PneumaticPlant,
                    safety_loop, write_plant_trace_csv)
from .perception import FingerPipeline
from .scenario import (Scenario, StimulusEvent, load_scenario,
                       parse_scenario_text, poke_scenario, scenario_to_text,
                       slip_scenario, static_scenario, timeout_scenario)
from .sensor_sim import (ContactStimulus, SensorModel, displace_markers,
                         nominal_grid, render_frame, write_frames)
from .tactile import TactileFrame
from .tracking import (ContactTrack, read_track_csv, track_displacement,
                       write_track_csv)
