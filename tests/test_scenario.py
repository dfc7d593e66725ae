import collections
import dataclasses
import hashlib
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from tacgrip import scenario as scenario_module
from tacgrip.blobs import DetectorConfig
from tacgrip.control import ControlThresholds
from tacgrip.density import KdeConfig
from tacgrip.episode import run_grasp
from tacgrip.errors import ParseError, ValidationError
from tacgrip.plant import PlantConfig, PneumaticPlant
from tacgrip.scenario import (CANNED, Scenario, StimulusEvent, load_scenario,
                              parse_scenario_text, poke_scenario,
                              scenario_to_text, slip_scenario,
                              static_scenario, timeout_scenario)
from tacgrip.sensor_sim import SensorModel

MINIMAL = """
[scenario]
name = demo
seed = 7
duration = 5.0

[events]
event = 1.0 1 320 240 3.0 40
event = 1.0 2 320 240 3.0 40
event = 2.5 1 360 240 3.0 40 5.0 -2.0
"""


def test_parse_minimal():
    sc = parse_scenario_text(MINIMAL)
    assert sc.name == "demo"
    assert sc.duration_s == 5.0
    assert sc.sensor.seed == 7  # scenario seed is the sensor noise seed
    assert len(sc.events) == 3
    ev = sc.events[-1]
    assert (ev.time, ev.finger, ev.x) == (2.5, 1, 360.0)
    assert (ev.shear_x, ev.shear_y) == (5.0, -2.0)


def test_defaults_fill_missing_sections():
    sc = parse_scenario_text("[scenario]\nname = bare\n")
    assert sc.duration_s == 10.0
    assert sc.kde.kernel_width_h == 15.0
    assert sc.plant.tick_dt == 0.001
    assert sc.thresholds.t2_mm == 5.0
    assert sc.grasp_mask == 0xFF
    assert sc.events == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("[scenario]\nname = x\n[nosuch]\n")
    assert err.value.line_no == 3
    with pytest.raises(ParseError) as err:
        parse_scenario_text("[scenario]\nbogus_key = 1\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_scenario_text("name = orphan\n")
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_scenario_text("[scenario]\nseed = notanint\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_scenario_text("[scenario]\njust some words\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_scenario_text("[kde]\ngrid_stride = 2")
    assert err.value.line_no == 2
    with pytest.raises(ParseError, match="line 3: bad value 'abc' for scale"):
        parse_scenario_text("[detector]\n\nscale = abc\n")
    # the three-scale key is gone
    with pytest.raises(ParseError,
                       match="line 2: unknown key 'scales' in \\[detector\\]"):
        parse_scenario_text("[detector]\nscales = 2.0,2.83,4.0\n")
    # so is the connectivity key: contacts are 4-connected regions
    with pytest.raises(ParseError,
                       match="line 2: unknown key 'connectivity' in \\[kde\\]"):
        parse_scenario_text("[kde]\nconnectivity = 8\n")


def test_a_file_that_is_not_text_fails_with_its_line(tmp_path):
    # a bare UnicodeDecodeError named neither the file nor the line
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"[scenario]\nname = x\n# caf\xe9\n")
    with pytest.raises(ParseError, match="line 3: byte 0xe9 of ") as err:
        load_scenario(path)
    assert err.value.line_no == 3
    assert f"{path} is not UTF-8 text" in str(err.value)


def test_event_parse_errors():
    with pytest.raises(ParseError):
        parse_scenario_text("[events]\nevent = 1.0 1 320\n")
    with pytest.raises(ParseError):
        parse_scenario_text("[events]\nevent = 1.0 one 320 240 3 40\n")
    with pytest.raises(ParseError):
        parse_scenario_text("[events]\nevent = 1.0 1.5 320 240 3 40\n")
    with pytest.raises(ParseError, match="line 2: event finger"):
        parse_scenario_text("[events]\nevent = 1.0 inf 320 240 3 40\n")


@pytest.mark.parametrize("section, line, message", [
    # each of these read as another value: 10, 10.5, 0xFF, 2, 1.0, 10.0
    ("scenario", "seed = 1_0", "bad value '1_0' for seed"),
    ("scenario", "duration = 1_0.5", "bad value '1_0.5' for duration"),
    ("control", "grasp_mask = 0x_F_F", "bad value '0x_F_F' for grasp_mask"),
    ("control", "max_regrasps = 0_2", "bad value '0_2' for max_regrasps"),
    ("sensor", "spacing = \u0661\u0665", "bad value '\u0661\u0665' for spacing"),
    ("events", "event = 1_0 1 320 240 3 40", "non-numeric event field"),
])
def test_numeric_literal_spellings_rejected_at_parse(section, line, message):
    with pytest.raises(ParseError, match=f"line 2: {message}"):
        parse_scenario_text(f"[{section}]\n{line}\n")


def test_comments_and_blank_lines_ignored():
    sc = parse_scenario_text(
        "# header comment\n\n[scenario]\n# inner\nname = c\n\n")
    assert sc.name == "c"


def test_grasp_mask_accepts_hex():
    sc = parse_scenario_text("[control]\ngrasp_mask = 0x0F\n")
    assert sc.grasp_mask == 0x0F
    sc = parse_scenario_text("[control]\ngrasp_mask = 15\n")
    assert sc.grasp_mask == 15


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_scenario_text("[scenario]\nduration = -1\n")
    with pytest.raises(ValidationError):
        parse_scenario_text("[events]\nevent = 2.0 1 0 0 1 10\n"
                            "event = 1.0 1 0 0 1 10\n")
    with pytest.raises(ValidationError):
        parse_scenario_text("[events]\nevent = 1.0 3 0 0 1 10\n")
    with pytest.raises(ValidationError):
        parse_scenario_text("[events]\nevent = 1.0 1 0 0 -1 10\n")
    with pytest.raises(ValidationError):
        parse_scenario_text("[events]\nevent = 1.0 1 0 0 1 0\n")
    with pytest.raises(ValidationError):
        parse_scenario_text("[sensor]\nspacing = -3\n")
    # a mask must select a chamber and fit the frame's one byte
    for mask in ("0x00", "0x100"):
        with pytest.raises(ValidationError, match=f"grasp_mask {mask} outside"):
            parse_scenario_text(f"[control]\ngrasp_mask = {mask}\n")


@pytest.mark.parametrize("section,line", [
    ("scenario", "duration = nan"),
    ("scenario", "seed = -1"),
    ("plant", "valve_latency = nan"),
    ("plant", "pump_rate = -40"),
    ("plant", "tank_hysteresis = -2"),
    ("thresholds", "window_coverage = 5"),
    ("control", "max_regrasps = -1"),
    ("scenario", "duration = inf"),
    ("thresholds", "t2_mm = inf"),
    ("kde", "calibration_ratio = 1.5"),
    ("kde", "calibration_ratio = 1.0"),
    ("kde", "kernel_width_h = nan"),
    ("events", "event = nan 1 320 240 3 40"),
    ("events", "event = 1.0 1 inf 240 3 40"),
    ("sensor", "marker_radius = -3"),
    ("sensor", "noise_sigma = -0.01"),
    ("sensor", "noise_sigma = nan"),
    ("sensor", "displacement_gain_k = inf"),
    ("sensor", "spacing = nan"),
    ("sensor", "grid_rows = 0"),
    ("sensor", "grid_cols = -1"),
    ("detector", "scale = nan"),
    ("detector", "threshold_rel = nan"),
    ("detector", "threshold_abs = -1e-4"),
    ("detector", "min_separation = nan"),
    ("detector", "scale = 1e9"),
    # each of these used to fail mid-run with OverflowError or
    # ZeroDivisionError
    ("sensor", "grid_rows = " + "9" * 400),
    ("scenario", "duration = 1e308"),
    ("plant", "control_delay = 1e308"),
    ("detector", "min_separation = 1e308"),
    ("kde", "kernel_width_h = 1e-300"),
    # overflowed the float32 cast of the detection threshold
    ("detector", "threshold_abs = 1e308"),
    ("events", "event = 1.0 1 320 240 3 1e200"),
    # its square underflowed to 0, and the marker at the center got 0 / 0
    ("events", "event = 0.0 1 327 239.5 3 1e-300"),
    # each of these rendered inf or NaN marker positions
    ("events", "event = 1.0 1 1e308 240 3 40"),
    ("events", "event = 1.0 1 320 240 1e308 40"),
    ("events", "event = 1.0 1 320 240 3 40 -1e308 0"),
    ("sensor", "displacement_gain_k = 1e308"),
])
def test_values_outside_their_domain_rejected_at_parse(section, line):
    # each of these used to parse, then fail mid-run or run silently
    key = line.split()[0]
    with pytest.raises(ValidationError, match=key if key != "event" else
                       "event"):
        parse_scenario_text(f"[{section}]\n{line}\n")


@pytest.mark.parametrize("fields, message", [
    (dict(time=math.nan, finger=7, x=math.inf, y=0.0, depth=-1.0,
          radius=0.0), "event finger must be 1 or 2, got 7"),
    (dict(time=-1.0, finger=1, x=320.0, y=240.0, depth=3.0, radius=40.0),
     "event time = -1.0 is not"),
    (dict(time=math.nan, finger=2, x=320.0, y=240.0, depth=3.0, radius=40.0),
     "event time = nan is not"),
    (dict(time=1.0, finger=1, x=math.inf, y=240.0, depth=3.0, radius=40.0),
     "event: "),
    (dict(time=1.0, finger=1, x=320.0, y=240.0, depth=-1.0, radius=40.0),
     "event: "),
    # True in (1, 2) holds, and the text said `True`, which did not parse
    (dict(time=1.0, finger=True, x=320.0, y=240.0, depth=3.0, radius=40.0),
     "event finger must be 1 or 2, got True"),
    (dict(time=1.0, finger=2.0, x=320.0, y=240.0, depth=3.0, radius=40.0),
     "event finger must be 1 or 2, got 2.0"),
    (dict(time=True, finger=1, x=320.0, y=240.0, depth=3.0, radius=40.0),
     "event time = True is not"),
], ids=["finger", "negative time", "nan time", "inf x", "negative depth",
        "bool finger", "float finger", "bool time"])
def test_an_event_is_checked_when_built(fields, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        StimulusEvent(**fields)


@pytest.mark.parametrize("fields, message", [
    # each of these used to build, though its text cannot hold it exactly
    (dict(max_regrasps=1.5), "max_regrasps = 1.5 is not an integer"),
    (dict(grasp_mask=3.5), "grasp_mask 3.5 is not an integer"),
    (dict(grasp_mask=True), "grasp_mask True is not an integer"),
    (dict(max_regrasps=np.True_), "max_regrasps = np.True_ is not"),
    (dict(duration_s=True), "duration = True is not a finite number"),
    (dict(name="two\nlines"), "name 'two\\nlines' is not one line"),
    (dict(name=" padded"), "name ' padded' is not one line"),
    (dict(name=7), "name 7 is not one line"),
    (dict(name=""), "name '' is not one line"),
], ids=["float max_regrasps", "float grasp_mask", "bool grasp_mask",
        "numpy bool max_regrasps", "bool duration", "two-line name",
        "padded name", "int name", "empty name"])
def test_a_scenario_refuses_what_its_text_cannot_hold(fields, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        Scenario(**fields)


@pytest.mark.parametrize("text, key, section, first, line_no", [
    ("[thresholds]\nt1_mm = 0.5\nt1_mm = 0.7\n", "t1_mm", "thresholds",
     2, 3),
    ("[scenario]\nduration = 1.0\n[scenario]\nduration = 2.0\n",
     "duration", "scenario", 2, 4),
], ids=["one section", "repeated section"])
def test_a_repeated_key_is_refused_at_its_line(text, key, section, first,
                                               line_no):
    with pytest.raises(ParseError, match=re.escape(
            f"line {line_no}: repeated key '{key}' in [{section}], first "
            f"set on line {first}")) as err:
        parse_scenario_text(text)
    assert err.value.line_no == line_no


def test_a_repeated_section_may_set_other_keys_and_events_repeat():
    sc = parse_scenario_text(
        "[scenario]\nname = two\n[events]\nevent = 1.0 1 320 240 3 40\n"
        "[scenario]\nduration = 2.0\n[events]\nevent = 1.5 1 330 240 3 40\n"
        "event = 1.5 2 320 240 3 40\n")
    assert (sc.name, sc.duration_s) == ("two", 2.0)
    assert [(ev.time, ev.finger) for ev in sc.events] == [
        (1.0, 1), (1.5, 1), (1.5, 2)]


def test_a_scenario_is_checked_when_built_and_cannot_be_changed():
    sc = static_scenario(duration=0.2)
    with pytest.raises(ValidationError, match="duration = nan"):
        dataclasses.replace(sc, duration_s=float("nan"))
    with pytest.raises(ValidationError, match="max_regrasps"):
        dataclasses.replace(sc, max_regrasps=-1)
    # assigning would skip those checks, in the scenario or its configs
    for owner, name, value in ((sc, "duration_s", float("nan")),
                               (sc, "max_regrasps", -1), (sc, "events", []),
                               (sc.detector, "scale", 1e9),
                               (sc.events[0], "time", -1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(owner, name, value)
    assert sc == static_scenario(duration=0.2)


def test_round_trip_through_text(tmp_path):
    for name, make in sorted(CANNED.items()):
        for seed in (0, 3):
            original = make(seed=seed)
            path = tmp_path / f"{name}_{seed}.scn"
            path.write_text(scenario_to_text(original))
            assert load_scenario(path) == original


def _every_key_changed():
    """A scenario whose value for every key of the format differs from
    the default."""
    return Scenario(
        name="every key", duration_s=2.5,
        sensor=SensorModel(width=320, height=240, grid_rows=12,
                           grid_cols=16, spacing=18.0,
                           marker_radius=3.5, marker_intensity=0.2,
                           background=0.9, displacement_gain_k=8.5,
                           noise_sigma=0.02, seed=4),
        kde=KdeConfig(kernel_width_h=12.5, pixel_scale_s=0.04),
        detector=DetectorConfig(scale=3.1, threshold_rel=0.2,
                                threshold_abs=2e-4, min_separation=5.5),
        plant=PlantConfig(valve_latency=0.02, control_delay=0.04,
                          line_delay=0.03, chamber_time_constant=0.2,
                          tank_pos_setpoint=40.5, tank_neg_setpoint=-50.25,
                          tank_hysteresis=1.5, pump_rate=30.0),
        thresholds=ControlThresholds(t1_mm=0.6, t2_mm=4.5,
                                     stability_window_s=2.5,
                                     no_contact_timeout_s=8.0,
                                     window_coverage=0.85),
        calibration_ratio=0.7, grasp_mask=0x0F, max_regrasps=2,
        events=[StimulusEvent(0.5, 1, 300.5, 250.25, 2.0, 30.0),
                StimulusEvent(1.5, 2, 310.0, 240.0, 2.5, 35.0,
                              shear_x=1.5, shear_y=-0.5)],
    )


def test_round_trip_sees_every_key():
    sc = _every_key_changed()
    text = scenario_to_text(sc)
    assert parse_scenario_text(text) == sc
    # every key of the table is written with a value other than its default
    default_lines = set(scenario_to_text(Scenario()).splitlines())
    for row in scenario_module._KEYS:
        lines = [line for line in text.splitlines()
                 if line.startswith(f"{row.key} = ")]
        assert lines and not default_lines.intersection(lines), row.key


def test_each_field_has_exactly_one_key():
    # The config sections' rows come from the configs' fields. Written by
    # hand, they had missed width and height, so a 320 x 240 scenario
    # re-parsed as 640 x 480 under the same config_sha256.
    rows = collections.Counter((row.owner, row.field)
                               for row in scenario_module._KEYS)
    configs = ("sensor", "kde", "detector", "plant", "thresholds")
    expected = {(owner, f.name) for owner in configs
                for f in dataclasses.fields(getattr(Scenario(), owner))}
    expected |= {(None, f.name) for f in dataclasses.fields(Scenario)
                 if f.name not in configs}
    assert set(rows) == expected
    assert set(rows.values()) == {1}
    assert len({(row.section, row.key) for row in scenario_module._KEYS}) \
        == len(scenario_module._KEYS)


def _random_scenario(seed):
    """A valid scenario drawn from `seed`, each key off its default and
    about half of the events sheared. Floats are drawn as float64,
    float32 or two-decimal values."""
    rng = np.random.default_rng(seed)

    def real(lo, hi):
        value = rng.uniform(lo, hi)
        return (value, float(np.float32(value)), round(value, 2))[
            rng.integers(3)]

    def whole(lo, hi):
        return int(rng.integers(lo, hi + 1))

    width, height = whole(200, 1000), whole(150, 800)
    radius = real(0.5, 4.0)
    spacing = real(2.05 * radius, 6.0 * radius)
    sensor = SensorModel(
        width=width, height=height,
        grid_rows=whole(1, min(20, int((height - 2 * radius) / spacing))),
        grid_cols=whole(1, min(20, int((width - 2 * radius) / spacing))),
        spacing=spacing, marker_radius=radius,
        marker_intensity=real(0.0, 0.5), background=real(0.6, 1.0),
        displacement_gain_k=real(0.0, 20.0), noise_sigma=real(0.0, 0.05),
        seed=whole(0, 60000))
    t1_mm = real(0.1, 2.0)
    duration = real(0.5, 100.0)
    times = sorted(real(0.0, duration) for _ in range(rng.integers(7)))
    events = []
    for time in times:
        shear = (real(-10.0, 10.0), real(-10.0, 10.0)) \
            if rng.random() < 0.5 else (0.0, 0.0)
        events.append(StimulusEvent(
            time, whole(1, 2), real(0.0, width), real(0.0, height),
            real(0.0, 5.0), real(5.0, 60.0), *shear))
    return Scenario(
        name=f"random {seed}", duration_s=duration, sensor=sensor,
        kde=KdeConfig(kernel_width_h=real(0.5, 30.0),
                      pixel_scale_s=real(0.01, 0.1)),
        detector=DetectorConfig(scale=real(0.5, 8.0),
                                threshold_rel=real(0.0, 1.0),
                                threshold_abs=real(0.0, 1e-2),
                                min_separation=real(0.5, 20.0)),
        plant=PlantConfig(valve_latency=real(0.0, 0.2),
                          control_delay=real(0.0, 0.2),
                          line_delay=real(0.0, 0.2),
                          chamber_time_constant=real(0.01, 1.0),
                          tank_pos_setpoint=real(0.0, 50.0),
                          tank_neg_setpoint=real(-57.0, -1.0),
                          tank_hysteresis=real(0.0, 5.0),
                          pump_rate=real(1.0, 100.0)),
        thresholds=ControlThresholds(
            t1_mm=t1_mm, t2_mm=t1_mm + real(0.1, 5.0),
            stability_window_s=real(0.5, 10.0),
            no_contact_timeout_s=real(0.5, 20.0),
            window_coverage=real(0.0, 1.0)),
        calibration_ratio=real(0.1, 0.99), grasp_mask=whole(1, 0xFF),
        max_regrasps=whole(0, 5), events=events)


def _as_numpy(value, rng):
    """value rebuilt with each number a numpy scalar of the same value,
    of a type that rng, a random.Random, picks."""
    if dataclasses.is_dataclass(value):
        return type(value)(**{f.name: _as_numpy(getattr(value, f.name), rng)
                              for f in dataclasses.fields(value)})
    if isinstance(value, tuple):
        return tuple(_as_numpy(item, rng) for item in value)
    if isinstance(value, int):
        return rng.choice([np.int64, np.int32, np.uint16])(value)
    if isinstance(value, float):
        exact32 = float(np.float32(value)) == value
        return rng.choice([np.float64] + [np.float32] * exact32)(value)
    return value


def test_random_scenarios_round_trip_exactly():
    # numpy scalars were written with repr (`duration = np.float64(2.0)`),
    # which does not parse, and width and height were not written at all.
    sizes, sheared = set(), 0
    for seed in range(200):
        sc = _random_scenario(seed)
        text = scenario_to_text(sc)
        back = parse_scenario_text(text)
        assert back == sc, seed
        assert scenario_to_text(back) == text, seed
        # equal scenarios give equal text, whatever types hold the numbers
        as_numpy = _as_numpy(sc, random.Random(seed))
        assert as_numpy == sc, seed
        assert scenario_to_text(as_numpy) == text, seed
        assert parse_scenario_text(text) == as_numpy, seed
        sizes.add((sc.sensor.width, sc.sensor.height))
        sheared += sum(bool(ev.shear_x or ev.shear_y) for ev in sc.events)
    assert len(sizes) > 190 and (640, 480) not in sizes
    assert sheared >= 100


def test_the_text_keeps_the_sign_of_zero():
    # A tank set to -0.0 kPa traces as -0.000000, so the text keeps the
    # sign the run shows, although -0.0 == 0.0 makes the scenarios equal.
    sc = Scenario(plant=PlantConfig(tank_pos_setpoint=-0.0),
                  events=[StimulusEvent(-0.0, 1, -0.0, 240.0, 3.0, 40.0)])
    text = scenario_to_text(sc)
    assert "\ntank_pos_setpoint = -0.0\n" in text
    assert "\nevent = -0.0 1 -0.0 240.0 3.0 40.0\n" in text
    back = parse_scenario_text(text)
    assert scenario_to_text(back) == text
    assert f"{PneumaticPlant(back.plant).trace_row()[1]:.6f}" == "-0.000000"


def test_the_readme_example_is_the_poke_scenario():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Scenario file format\n", 1)[1]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    sc = parse_scenario_text(example)
    assert sc.name == "demo"
    assert dataclasses.replace(sc, name="poke") == poke_scenario()


# sha256 of scenario_to_text for each canned scenario at seed 0; the run
# manifest records this digest as config_sha256.
CANNED_TEXT_SHA256 = {
    "poke": "4e1fd8210651bfaaf50d6dbc34e2a2c37c49d9557b2b5b54f47fd0cdee36e770",
    "slip": "c7599f12d4903008e9d54595cda4488bfbe613cb34a4f2e4cc97a1003375c2d7",
    "static": "0636fe09f395060919b071af663db9fb6026d385eb39c0e8e2cc254fa3bb48a9",
    "timeout": "ee77508f15d2f4fd68d7bc1422e90d63d8aea4419607edacc93d4cb6038b933c",
}


def test_canned_scenario_text_is_pinned():
    for name, make in CANNED.items():
        text = scenario_to_text(make())
        assert hashlib.sha256(text.encode()).hexdigest() == \
            CANNED_TEXT_SHA256[name], name


def test_round_trip_preserves_shear(tmp_path):
    sc = parse_scenario_text(MINIMAL)
    back = parse_scenario_text(scenario_to_text(sc))
    assert back.events == sc.events


def test_active_event_steps():
    sc = parse_scenario_text(MINIMAL)
    assert sc.active_event(1, 0.5) is None
    assert sc.active_event(1, 1.0).x == 320.0
    assert sc.active_event(1, 2.4).x == 320.0
    assert sc.active_event(1, 2.5).x == 360.0
    assert sc.active_event(1, 4.9).x == 360.0
    assert sc.active_event(2, 4.9).x == 320.0  # finger 2 never moved


def _scan_active_event(sc, finger_id, t):
    """The scan from the first event that the bisection replaced."""
    current = None
    limit = t + scenario_module._EVENT_SLACK_S
    for ev in sc.events:
        if ev.finger == finger_id and ev.time <= limit:
            current = ev
        elif ev.time > limit:
            break
    return current


def test_active_event_bisection_matches_scan():
    # Seeded scripts with ties within and across fingers, queried at,
    # around and one float step either side of each event time minus the
    # slack, and at frame times k * 0.033.
    slack = scenario_module._EVENT_SLACK_S
    rng = random.Random(11)
    for trial in range(300):
        times = sorted(rng.choice([0.0, 0.033, 0.1, 0.5, 1.0, 1.0 + 1e-9,
                                   rng.uniform(0, 3)])
                       for _ in range(rng.randint(0, 12)))
        events = [StimulusEvent(time=t, finger=rng.choice((1, 2)),
                                x=float(i), y=240.0, depth=1.0, radius=40.0)
                  for i, t in enumerate(times)]
        sc = Scenario(events=events)
        queries = [k * 0.033 for k in range(100)] + [-1.0, 5.0]
        for ev in events:
            edge = ev.time - slack
            queries += [ev.time, edge, math.nextafter(edge, -1.0),
                        math.nextafter(edge, 2.0), ev.time - 2 * slack,
                        ev.time + slack]
        for t in queries:
            for finger in (1, 2):
                assert sc.active_event(finger, t) is \
                    _scan_active_event(sc, finger, t)
    # The scenario keeps its own tuple: a change to the list it was built
    # from is not seen, and an extended or edited script is a new one.
    events = [StimulusEvent(1.0, 1, 1.0, 2.0, 1.0, 40.0)]
    sc = Scenario(events=events)
    events.append(StimulusEvent(0.5, 1, 5.0, 2.0, 1.0, 40.0))
    assert sc.events == tuple(events[:1])
    assert sc.active_event(1, 1.0).x == 1.0
    sc = dataclasses.replace(sc, events=sc.events + (
        StimulusEvent(2.0, 1, 5.0, 2.0, 1.0, 40.0),))
    assert sc.active_event(1, 2.0).x == 5.0
    sc = dataclasses.replace(sc, events=[
        StimulusEvent(0.5, 2, 7.0, 2.0, 1.0, 40.0)])
    assert sc.active_event(1, 2.0) is None
    assert sc.active_event(2, 2.0).x == 7.0
    sc = static_scenario()
    assert sc.active_event(1, 1.5).x == 320.0
    events = list(sc.events)
    events[0] = StimulusEvent(1.0, 1, 99.0, 240.0, 3.0, 40.0)
    assert dataclasses.replace(sc, events=events).active_event(1, 1.5).x \
        == 99.0
    events[0] = StimulusEvent(1.0, 2, 98.0, 240.0, 3.0, 40.0)
    sc = dataclasses.replace(sc, events=events)
    assert sc.active_event(1, 1.5) is None
    assert sc.active_event(2, 1.5).x == 320.0  # the later of finger 2's
    events[1] = StimulusEvent(1.0, 1, 97.0, 240.0, 3.0, 40.0)
    sc = dataclasses.replace(sc, events=events)
    assert sc.active_event(2, 1.5).x == 98.0
    assert sc.active_event(1, 1.5).x == 97.0


def test_depth_zero_clears_contact():
    sc = Scenario(events=[
        StimulusEvent(time=1.0, finger=1, x=320, y=240, depth=3.0, radius=40),
        StimulusEvent(time=2.0, finger=1, x=320, y=240, depth=0.0, radius=40),
    ])
    assert sc.active_event(1, 1.5).depth == 3.0
    assert sc.active_event(1, 2.5).depth == 0.0


def test_canned_scenarios_validate():
    assert set(CANNED) == {"static", "poke", "slip", "timeout"}
    static = static_scenario()
    assert static.events[0].time == 1.0
    assert {ev.finger for ev in static.events} == {1, 2}
    poke = poke_scenario()
    assert poke.events[-1].finger == 1
    assert poke.events[-1].x - poke.events[0].x == 40.0
    slip = slip_scenario()
    assert slip.events[-1].x - slip.events[1].x == 110.0
    assert timeout_scenario().events == ()


# Replacement values for one key, or for one field of an event line.
_FUZZ_VALUES = ("nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-0.5", "0.5",
                "2", "0x10", "0xFF", "1,2", "2.0,nan", "", "1e9", "1e308",
                "9" * 400, "abc", "1e-9", "64", "1.0 2.0", ",")
# Replacements for a whole line: unknown sections and keys, and junk.
_FUZZ_LINES = ("[nosuch]", "[events", "bogus_key = 1", "= 3", "just words",
               "tick_dt = 0.001", "event = 0.1 1 320 240 3 40", "seed = 2")


def _fuzz_mutants(text, count, seed):
    """Seeded one-line mutants of a scenario text."""
    rng = random.Random(seed)
    base = text.splitlines()
    for _ in range(count):
        lines = list(base)
        i = rng.randrange(len(lines))
        key, eq, value = lines[i].partition(" = ")
        roll = rng.random()
        if eq and roll < 0.75:
            if key == "event":
                fields = value.split()
                k = rng.randrange(len(fields) + 1)
                if k == len(fields):
                    del fields[rng.randrange(len(fields)):]
                else:
                    fields[k] = rng.choice(_FUZZ_VALUES)
                value = " ".join(fields)
            else:
                value = rng.choice(_FUZZ_VALUES)
            lines[i] = f"{key} = {value}"
        elif roll < 0.85:
            lines[i] = rng.choice(_FUZZ_LINES)
        elif roll < 0.92:
            del lines[i]
        else:
            lines[i] = f"[{key.strip('[]')}x]" if not eq else f"{key}_x = {value}"
        yield "\n".join(lines) + "\n"


def test_fuzzed_scenarios_fail_at_the_door_or_run():
    base = scenario_to_text(static_scenario(1, duration=0.2))
    valid = {}
    for text in _fuzz_mutants(base, 600, seed=8):
        try:
            sc = parse_scenario_text(text)
        except (ParseError, ValidationError):
            continue
        valid.setdefault(scenario_to_text(sc), sc)
    valid.pop(base, None)
    assert len(valid) >= 8
    # A scenario that parses either runs or is turned away at calibration.
    for key in random.Random(8).sample(sorted(valid), 8):
        try:
            run_grasp(valid[key])
        except ValidationError as exc:
            assert "calibration frame" in str(exc)


def test_fuzzed_events_are_rendered_or_fail_at_the_door():
    # The events start at t = 0, so each 0.2 s run renders the events a
    # mutant leaves valid; the mutants change only the [events] section.
    sc = static_scenario(1, duration=0.2)
    sc = dataclasses.replace(
        sc, events=[dataclasses.replace(ev, time=0.0) for ev in sc.events])
    base = scenario_to_text(sc)
    head, events = base.split("[events]\n")
    valid = {}
    for text in _fuzz_mutants("[events]\n" + events, 600, seed=9):
        try:
            mutant = parse_scenario_text(head + text)
        except (ParseError, ValidationError):
            continue
        valid.setdefault(scenario_to_text(mutant), mutant)
    valid.pop(base, None)
    assert len(valid) >= 8
    rendered = 0
    for key in random.Random(9).sample(sorted(valid), 8):
        mutant = valid[key]
        rendered += any(ev.time < mutant.duration_s for ev in mutant.events)
        try:
            run_grasp(mutant)
        except ValidationError as exc:
            assert "calibration frame" in str(exc)
    assert rendered >= 6
