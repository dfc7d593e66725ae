"""Scenario definition, the line-based file format, and canned scripts.

A scenario bundles everything an episode needs: sensor model, perception
config, plant config, thresholds, and a stimulus script (timed contact
events per finger). The file format is strict `[section]` headers with
`key = value` lines; unknown keys are errors, not warnings, so a typo
cannot silently fall back to a default.
"""

from dataclasses import dataclass, field
from typing import List

from .blobs import DetectorConfig
from .control import (DEFAULT_GRASP_MASK, MAX_REGRASPS, ControlThresholds)
from .density import KdeConfig
from .errors import ParseError, ValidationError
from .perception import DEFAULT_CALIBRATION_RATIO
from .plant import PlantConfig
from .sensor_sim import ContactStimulus, SensorModel


@dataclass
class StimulusEvent:
    """At `time`, the finger's active stimulus becomes these parameters.

    depth = 0 removes the contact. Events are stepwise: the latest event
    at or before the frame time wins.
    """

    time: float
    finger: int
    x: float
    y: float
    depth: float
    radius: float
    shear_x: float = 0.0
    shear_y: float = 0.0

    def stimulus(self, timestamp):
        return ContactStimulus(x=self.x, y=self.y, depth=self.depth,
                               radius=self.radius, shear_x=self.shear_x,
                               shear_y=self.shear_y, timestamp=timestamp)


@dataclass
class Scenario:
    name: str = "unnamed"
    seed: int = 0
    duration_s: float = 10.0
    sensor: SensorModel = field(default_factory=SensorModel)
    kde: KdeConfig = field(default_factory=KdeConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    thresholds: ControlThresholds = field(default_factory=ControlThresholds)
    calibration_ratio: float = DEFAULT_CALIBRATION_RATIO
    grasp_mask: int = DEFAULT_GRASP_MASK
    max_regrasps: int = MAX_REGRASPS
    events: List[StimulusEvent] = field(default_factory=list)

    def validate(self):
        if self.duration_s <= 0:
            raise ValidationError("duration must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if not 0x01 <= self.grasp_mask <= 0xFF:
            raise ValidationError(
                f"grasp_mask {self.grasp_mask:#04x} outside 0x01..0xFF: "
                f"it must select one to eight chambers"
            )
        last_t = None
        for ev in self.events:
            if last_t is not None and ev.time < last_t:
                raise ValidationError(
                    f"stimulus event times must be nondecreasing "
                    f"(saw {ev.time} after {last_t})"
                )
            last_t = ev.time
            if ev.finger not in (1, 2):
                raise ValidationError(f"event finger must be 1 or 2, got {ev.finger}")
            if ev.depth < 0:
                raise ValidationError("event depth must be >= 0")
            if ev.radius <= 0:
                raise ValidationError("event radius must be > 0")
        return self

    def active_event(self, finger_id, t, eps=1e-9):
        """Latest event for this finger at or before time t, or None."""
        current = None
        for ev in self.events:
            if ev.finger == finger_id and ev.time <= t + eps:
                current = ev
            elif ev.time > t + eps:
                break
        return current


# -- file format --------------------------------------------------------------

_FLOAT = float
_INT = int


def _mask(text):
    return int(text, 0)  # accepts 0xFF and decimal


_SCHEMA = {
    "scenario": {"name": str, "seed": _INT, "duration": _FLOAT},
    "sensor": {
        "grid_rows": _INT, "grid_cols": _INT, "spacing": _FLOAT,
        "marker_radius": _FLOAT, "marker_intensity": _FLOAT,
        "background": _FLOAT, "displacement_gain_k": _FLOAT,
        "noise_sigma": _FLOAT,
    },
    "kde": {
        "kernel_width_h": _FLOAT,
        "pixel_scale_s": _FLOAT, "connectivity": _INT,
        "calibration_ratio": _FLOAT,
    },
    "detector": {
        "scales": str, "threshold_rel": _FLOAT, "threshold_abs": _FLOAT,
        "min_separation": _FLOAT,
    },
    "plant": {
        "valve_latency": _FLOAT, "control_delay": _FLOAT,
        "line_delay": _FLOAT, "chamber_time_constant": _FLOAT,
        "tank_pos_setpoint": _FLOAT, "tank_neg_setpoint": _FLOAT,
        "tank_hysteresis": _FLOAT, "pump_rate": _FLOAT,
    },
    "thresholds": {
        "t1_mm": _FLOAT, "t2_mm": _FLOAT, "stability_window_s": _FLOAT,
        "no_contact_timeout_s": _FLOAT, "window_coverage": _FLOAT,
    },
    "control": {"grasp_mask": _mask, "max_regrasps": _INT},
    "events": {"event": str},
}


def _parse_event(value, line_no):
    parts = value.split()
    if len(parts) not in (6, 8):
        raise ParseError(
            "event needs 'time finger x y depth radius [shear_x shear_y]'",
            line_no,
        )
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-numeric event field in {value!r}", line_no)
    shear = (nums[6], nums[7]) if len(nums) == 8 else (0.0, 0.0)
    if nums[1] != int(nums[1]):
        raise ParseError(f"event finger must be an integer, got {parts[1]}", line_no)
    return StimulusEvent(time=nums[0], finger=int(nums[1]), x=nums[2], y=nums[3],
                         depth=nums[4], radius=nums[5],
                         shear_x=shear[0], shear_y=shear[1])


def parse_scenario_text(text):
    """Parse the scenario format; see load_scenario."""
    section = None
    raw = {name: {} for name in _SCHEMA}
    events = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line_no)
        if section is None:
            raise ParseError("key before any [section] header", line_no)
        key, _, value = stripped.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _SCHEMA[section]:
            raise ParseError(f"unknown key {key!r} in [{section}]", line_no)
        if section == "events":
            events.append(_parse_event(value, line_no))
            continue
        try:
            raw[section][key] = _SCHEMA[section][key](value)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"bad value {value!r} for {key}", line_no)

    return _build_scenario(raw, events)


def _build_scenario(raw, events):
    sc = raw["scenario"]
    seed = sc.get("seed", 0)

    sensor_kwargs = dict(raw["sensor"])
    sensor_kwargs["seed"] = seed
    try:
        sensor = SensorModel(**sensor_kwargs)
    except ValueError as exc:
        raise ValidationError(f"sensor: {exc}")

    kde_kwargs = dict(raw["kde"])
    ratio = kde_kwargs.pop("calibration_ratio", DEFAULT_CALIBRATION_RATIO)
    det_kwargs = dict(raw["detector"])
    if "scales" in det_kwargs:
        det_kwargs["scales"] = tuple(
            float(s) for s in det_kwargs["scales"].split(",")
        )
    plant_kwargs = dict(raw["plant"])
    sp_pos = plant_kwargs.pop("tank_pos_setpoint", None)
    sp_neg = plant_kwargs.pop("tank_neg_setpoint", None)
    if sp_pos is not None or sp_neg is not None:
        base = PlantConfig()
        plant_kwargs["tank_setpoints"] = (
            sp_pos if sp_pos is not None else base.tank_setpoints[0],
            sp_neg if sp_neg is not None else base.tank_setpoints[1],
        )
    try:
        scenario = Scenario(
            name=sc.get("name", "unnamed"),
            seed=seed,
            duration_s=sc.get("duration", 10.0),
            sensor=sensor,
            kde=KdeConfig(**kde_kwargs),
            detector=DetectorConfig(**det_kwargs),
            plant=PlantConfig(**plant_kwargs),
            thresholds=ControlThresholds(**raw["thresholds"]),
            calibration_ratio=ratio,
            grasp_mask=raw["control"].get("grasp_mask", DEFAULT_GRASP_MASK),
            max_regrasps=raw["control"].get("max_regrasps", MAX_REGRASPS),
            events=events,
        )
    except ValueError as exc:
        raise ValidationError(str(exc))
    return scenario.validate()


def load_scenario(path):
    """Load and validate a scenario file.

    Raises ParseError (with line number) for format problems and
    ValidationError for violated invariants.
    """
    with open(path) as fh:
        return parse_scenario_text(fh.read())


def scenario_to_text(scenario):
    """Serialize a scenario to the file format (full explicit config)."""
    s, k, p, t = scenario.sensor, scenario.kde, scenario.plant, scenario.thresholds
    d = scenario.detector
    lines = [
        "[scenario]",
        f"name = {scenario.name}",
        f"seed = {scenario.seed}",
        f"duration = {scenario.duration_s!r}",
        "",
        "[sensor]",
        f"grid_rows = {s.grid_rows}",
        f"grid_cols = {s.grid_cols}",
        f"spacing = {s.spacing!r}",
        f"marker_radius = {s.marker_radius!r}",
        f"marker_intensity = {s.marker_intensity!r}",
        f"background = {s.background!r}",
        f"displacement_gain_k = {s.displacement_gain_k!r}",
        f"noise_sigma = {s.noise_sigma!r}",
        "",
        "[kde]",
        f"kernel_width_h = {k.kernel_width_h!r}",
        f"pixel_scale_s = {k.pixel_scale_s!r}",
        f"connectivity = {k.connectivity}",
        f"calibration_ratio = {scenario.calibration_ratio!r}",
        "",
        "[detector]",
        f"scales = {','.join(repr(x) for x in d.scales)}",
        f"threshold_rel = {d.threshold_rel!r}",
        f"threshold_abs = {d.threshold_abs!r}",
        f"min_separation = {d.min_separation!r}",
        "",
        "[plant]",
        f"valve_latency = {p.valve_latency!r}",
        f"control_delay = {p.control_delay!r}",
        f"line_delay = {p.line_delay!r}",
        f"chamber_time_constant = {p.chamber_time_constant!r}",
        f"tank_pos_setpoint = {p.tank_setpoints[0]!r}",
        f"tank_neg_setpoint = {p.tank_setpoints[1]!r}",
        f"tank_hysteresis = {p.tank_hysteresis!r}",
        f"pump_rate = {p.pump_rate!r}",
        "",
        "[thresholds]",
        f"t1_mm = {t.t1_mm!r}",
        f"t2_mm = {t.t2_mm!r}",
        f"stability_window_s = {t.stability_window_s!r}",
        f"no_contact_timeout_s = {t.no_contact_timeout_s!r}",
        f"window_coverage = {t.window_coverage!r}",
        "",
        "[control]",
        f"grasp_mask = 0x{scenario.grasp_mask:02X}",
        f"max_regrasps = {scenario.max_regrasps}",
        "",
        "[events]",
    ]
    for ev in scenario.events:
        parts = [f"{ev.time!r}", str(ev.finger), f"{ev.x!r}", f"{ev.y!r}",
                 f"{ev.depth!r}", f"{ev.radius!r}"]
        if ev.shear_x or ev.shear_y:
            parts += [f"{ev.shear_x!r}", f"{ev.shear_y!r}"]
        lines.append("event = " + " ".join(parts))
    return "\n".join(lines) + "\n"


# -- canned scenarios ---------------------------------------------------------


def static_scenario(seed=0, depth=3.0, duration=8.0):
    """Object held still: contact at 1 s on both fingers, then nothing."""
    events = [
        StimulusEvent(time=1.0, finger=1, x=320.0, y=240.0, depth=depth, radius=40.0),
        StimulusEvent(time=1.0, finger=2, x=320.0, y=240.0, depth=depth, radius=40.0),
    ]
    return Scenario(name="static", seed=seed, duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events).validate()


def poke_scenario(seed=0, shift_px=40.0, poke_time=6.0, duration=12.0):
    """Sealed grasp disturbed by a poke: finger 1's contact center shifts
    by shift_px (40 px = 2 mm at the default pixel scale)."""
    events = [
        StimulusEvent(time=1.0, finger=1, x=320.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=1.0, finger=2, x=320.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=poke_time, finger=1, x=320.0 + shift_px, y=240.0,
                      depth=3.0, radius=40.0),
    ]
    return Scenario(name="poke", seed=seed, duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events).validate()


def slip_scenario(seed=0, slip_px=110.0, slip_time=6.0, duration=15.0):
    """Object slips in the grip: both contact centers jump by slip_px
    (110 px = 5.5 mm, past T2), forcing a regrasp."""
    events = [
        StimulusEvent(time=1.0, finger=1, x=300.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=1.0, finger=2, x=300.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=slip_time, finger=1, x=300.0 + slip_px, y=240.0,
                      depth=3.0, radius=40.0),
        StimulusEvent(time=slip_time, finger=2, x=300.0 + slip_px, y=240.0,
                      depth=3.0, radius=40.0),
    ]
    return Scenario(name="slip", seed=seed, duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events).validate()


def timeout_scenario(seed=0, duration=12.0):
    """Nothing is ever touched: the gripper gives up after the no-contact
    timeout and releases."""
    return Scenario(name="timeout", seed=seed, duration_s=duration,
                    sensor=SensorModel(seed=seed), events=[]).validate()


CANNED = {
    "static": static_scenario,
    "poke": poke_scenario,
    "slip": slip_scenario,
    "timeout": timeout_scenario,
}
