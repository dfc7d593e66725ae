"""Scenario definition, the line-based file format, and canned scripts.

A scenario bundles everything an episode needs: sensor model, perception
config, plant config, thresholds, and a stimulus script (timed contact
events per finger). The file format is strict `[section]` headers with
`key = value` lines; unknown keys are errors, not warnings, so a typo
cannot silently fall back to a default.
"""

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

from .blobs import DetectorConfig
from .control import (DEFAULT_GRASP_MASK, MAX_REGRASPS, ControlThresholds)
from .density import KdeConfig
from .errors import ParseError, ValidationError, check_range, plain_float, plain_int
from .perception import DEFAULT_CALIBRATION_RATIO, MAX_CALIBRATION_RATIO
from .plant import PlantConfig
from .sensor_sim import ContactStimulus, SensorModel

# An event is active at a frame time it precedes by at most this much, so
# float rounding of frame times cannot delay it by a period.
_EVENT_SLACK_S = 1e-9


@dataclass(frozen=True)
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

    def stimulus(self):
        return ContactStimulus(x=self.x, y=self.y, depth=self.depth,
                               radius=self.radius, shear_x=self.shear_x,
                               shear_y=self.shear_y)


@dataclass(frozen=True)
class Scenario:
    """An episode's whole configuration, checked when built and frozen
    with its configs and events, so one that exists is valid."""

    name: str = "unnamed"
    duration_s: float = 10.0
    sensor: SensorModel = field(default_factory=SensorModel)
    kde: KdeConfig = field(default_factory=KdeConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    thresholds: ControlThresholds = field(default_factory=ControlThresholds)
    calibration_ratio: float = DEFAULT_CALIBRATION_RATIO
    grasp_mask: int = DEFAULT_GRASP_MASK
    max_regrasps: int = MAX_REGRASPS
    events: Tuple[StimulusEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

        def check(name, value, **domain):
            check_range(name, value, error=ValidationError, **domain)

        # A day of 1 ms ticks; past ~1.8e305 s the tick count overflows.
        check("duration", self.duration_s, lo=0.0, hi=86400.0, lo_open=True)
        check("calibration_ratio", self.calibration_ratio, lo=0.0,
              hi=MAX_CALIBRATION_RATIO, lo_open=True)
        check("max_regrasps", self.max_regrasps, lo=0)
        if not 0x01 <= self.grasp_mask <= 0xFF:
            raise ValidationError(
                f"grasp_mask {self.grasp_mask:#04x} outside 0x01..0xFF: "
                f"it must select one to eight chambers")
        for last, ev in zip((None,) + self.events, self.events):
            if last is not None and ev.time < last.time:
                raise ValidationError(
                    f"stimulus event times must be nondecreasing "
                    f"(saw {ev.time} after {last.time})")
            if ev.finger not in (1, 2):
                raise ValidationError(f"event finger must be 1 or 2, got {ev.finger}")
            check("event time", ev.time, lo=0.0)
            try:
                ev.stimulus()
            except ValueError as exc:
                raise ValidationError(f"event: {exc}") from None

    def active_event(self, finger_id, t):
        """Latest event for this finger at or before time t, or None.

        A bisection over the event times, which construction checked
        nondecreasing, then a step back over the other finger's events
        to this finger's latest. A call costs O(log n + k), with k the
        other finger's events since this finger's latest one: a step or
        two when the fingers' events interleave, as in every canned and
        benchmark script, and at most n.
        """
        events = self.events
        i = bisect_right(events, t + _EVENT_SLACK_S, key=attrgetter("time"))
        for j in range(i - 1, -1, -1):
            if events[j].finger == finger_id:
                return events[j]
        return None


# -- file format --------------------------------------------------------------


class _Key(NamedTuple):
    """One `key = value` line: parse turns its text into the value of
    field (an attribute, or (attribute, index) into a tuple) on owner
    (None for the Scenario, else the config attribute holding it); show
    writes the value back so that parse(show(v)) == v. A key holds a
    float unless it says otherwise."""

    section: str
    key: str
    owner: Optional[str]
    field: object
    parse: Callable = plain_float
    show: Callable = repr


def _parse_event(text):
    parts = text.split()
    if len(parts) not in (6, 8):
        raise ParseError("event needs 'time finger x y depth radius [shear_x shear_y]'")
    try:
        nums = [plain_float(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-numeric event field in {text!r}")
    shear = (nums[6], nums[7]) if len(nums) == 8 else (0.0, 0.0)
    if not nums[1].is_integer():
        raise ParseError(f"event finger must be an integer, got {parts[1]}")
    return StimulusEvent(time=nums[0], finger=int(nums[1]), x=nums[2], y=nums[3],
                         depth=nums[4], radius=nums[5],
                         shear_x=shear[0], shear_y=shear[1])


def _show_event(ev):
    shear = [ev.shear_x, ev.shear_y] if ev.shear_x or ev.shear_y else []
    return " ".join(map(repr, [ev.time, ev.finger, ev.x, ev.y, ev.depth,
                               ev.radius] + shear))


# Every key, in file order. The `event` row repeats: each line appends
# one StimulusEvent to Scenario.events.
_KEYS = (
    _Key("scenario", "name", None, "name", str, str),
    _Key("scenario", "seed", "sensor", "seed", plain_int),  # the noise seed
    _Key("scenario", "duration", None, "duration_s"),
    _Key("sensor", "grid_rows", "sensor", "grid_rows", plain_int),
    _Key("sensor", "grid_cols", "sensor", "grid_cols", plain_int),
    _Key("sensor", "spacing", "sensor", "spacing"),
    _Key("sensor", "marker_radius", "sensor", "marker_radius"),
    _Key("sensor", "marker_intensity", "sensor", "marker_intensity"),
    _Key("sensor", "background", "sensor", "background"),
    _Key("sensor", "displacement_gain_k", "sensor", "displacement_gain_k"),
    _Key("sensor", "noise_sigma", "sensor", "noise_sigma"),
    _Key("kde", "kernel_width_h", "kde", "kernel_width_h"),
    _Key("kde", "pixel_scale_s", "kde", "pixel_scale_s"),
    _Key("kde", "calibration_ratio", None, "calibration_ratio"),
    _Key("detector", "scale", "detector", "scale"),
    _Key("detector", "threshold_rel", "detector", "threshold_rel"),
    _Key("detector", "threshold_abs", "detector", "threshold_abs"),
    _Key("detector", "min_separation", "detector", "min_separation"),
    _Key("plant", "valve_latency", "plant", "valve_latency"),
    _Key("plant", "control_delay", "plant", "control_delay"),
    _Key("plant", "line_delay", "plant", "line_delay"),
    _Key("plant", "chamber_time_constant", "plant", "chamber_time_constant"),
    _Key("plant", "tank_pos_setpoint", "plant", ("tank_setpoints", 0)),
    _Key("plant", "tank_neg_setpoint", "plant", ("tank_setpoints", 1)),
    _Key("plant", "tank_hysteresis", "plant", "tank_hysteresis"),
    _Key("plant", "pump_rate", "plant", "pump_rate"),
    _Key("thresholds", "t1_mm", "thresholds", "t1_mm"),
    _Key("thresholds", "t2_mm", "thresholds", "t2_mm"),
    _Key("thresholds", "stability_window_s", "thresholds", "stability_window_s"),
    _Key("thresholds", "no_contact_timeout_s", "thresholds", "no_contact_timeout_s"),
    _Key("thresholds", "window_coverage", "thresholds", "window_coverage"),
    _Key("control", "grasp_mask", None, "grasp_mask",
         lambda text: plain_int(text, 0), "0x{:02X}".format),  # 0xFF or decimal
    _Key("control", "max_regrasps", None, "max_regrasps", plain_int),
    _Key("events", "event", None, "events", _parse_event, _show_event),
)


def _with_fields(obj, values):
    """obj with the parsed {field: value} pairs replaced; constructing
    the copy runs its domain checks."""
    changes = {}
    for name, value in values.items():
        if isinstance(name, tuple):
            name, index = name
            items = list(changes.get(name, getattr(obj, name)))
            items[index] = value
            value = tuple(items)
        changes[name] = value
    return replace(obj, **changes)


def parse_scenario_text(text):
    """Parse the scenario format; see load_scenario."""
    keys = {(row.section, row.key): row for row in _KEYS}
    section = None
    values = {}  # owner -> {field: value}
    events = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if all(row.section != section for row in _KEYS):
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line_no)
        if section is None:
            raise ParseError("key before any [section] header", line_no)
        key, _, value = stripped.partition("=")
        key, value = key.strip().lower(), value.strip()
        row = keys.get((section, key))
        if row is None:
            raise ParseError(f"unknown key {key!r} in [{section}]", line_no)
        try:
            parsed = row.parse(value)
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from None
        except ValueError:
            raise ParseError(f"bad value {value!r} for {key}", line_no) from None
        if row.field == "events":
            events.append(parsed)
        else:
            values.setdefault(row.owner, {})[row.field] = parsed

    base = Scenario()
    kwargs = values.pop(None, {})
    for owner, fields in values.items():
        try:
            kwargs[owner] = _with_fields(getattr(base, owner), fields)
        except ValueError as exc:
            raise ValidationError(f"{owner}: {exc}") from None
    return replace(base, events=events, **kwargs)


def load_scenario(path):
    """Load a scenario file; the Scenario checks itself when built.

    Raises ParseError (with line number) for format problems, bytes
    that are not UTF-8 text among them, and ValidationError for violated
    invariants.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {data[exc.start]:#04x} of {path} is not "
                         f"UTF-8 text", data.count(b"\n", 0, exc.start) + 1) \
            from None
    return parse_scenario_text(text)


def scenario_to_text(scenario):
    """Serialize a scenario to the file format (full explicit config)."""
    lines = []
    section = None
    for row in _KEYS:
        if row.section != section:
            if section is not None:
                lines.append("")
            section = row.section
            lines.append(f"[{section}]")
        owner = scenario if row.owner is None else getattr(scenario, row.owner)
        if isinstance(row.field, tuple):
            value = getattr(owner, row.field[0])[row.field[1]]
        else:
            value = getattr(owner, row.field)
        for item in value if row.field == "events" else [value]:
            lines.append(f"{row.key} = {row.show(item)}")
    return "\n".join(lines) + "\n"


# -- canned scenarios ---------------------------------------------------------


def static_scenario(seed=0, duration=8.0):
    """Object held still: contact at 1 s on both fingers, then nothing."""
    events = [
        StimulusEvent(time=1.0, finger=1, x=320.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=1.0, finger=2, x=320.0, y=240.0, depth=3.0, radius=40.0),
    ]
    return Scenario(name="static", duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events)


def poke_scenario(seed=0, poke_time=6.0, duration=12.0):
    """Sealed grasp disturbed by a poke: finger 1's contact center shifts
    by 40 px (2 mm at the default pixel scale)."""
    events = [
        StimulusEvent(time=1.0, finger=1, x=320.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=1.0, finger=2, x=320.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=poke_time, finger=1, x=360.0, y=240.0,
                      depth=3.0, radius=40.0),
    ]
    return Scenario(name="poke", duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events)


def slip_scenario(seed=0, slip_time=6.0, duration=15.0):
    """Object slips in the grip: both contact centers jump by 110 px
    (5.5 mm, past T2), forcing a regrasp."""
    events = [
        StimulusEvent(time=1.0, finger=1, x=300.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=1.0, finger=2, x=300.0, y=240.0, depth=3.0, radius=40.0),
        StimulusEvent(time=slip_time, finger=1, x=410.0, y=240.0,
                      depth=3.0, radius=40.0),
        StimulusEvent(time=slip_time, finger=2, x=410.0, y=240.0,
                      depth=3.0, radius=40.0),
    ]
    return Scenario(name="slip", duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events)


def timeout_scenario(seed=0, duration=12.0):
    """Nothing is ever touched: the gripper gives up after the no-contact
    timeout and releases."""
    return Scenario(name="timeout", duration_s=duration,
                    sensor=SensorModel(seed=seed))


CANNED = {
    "static": static_scenario,
    "poke": poke_scenario,
    "slip": slip_scenario,
    "timeout": timeout_scenario,
}
