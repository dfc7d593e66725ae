import dataclasses
import hashlib
import math
import random

import pytest

from tacgrip import scenario as scenario_module
from tacgrip.blobs import DetectorConfig
from tacgrip.control import ControlThresholds
from tacgrip.density import KdeConfig
from tacgrip.episode import run_grasp
from tacgrip.errors import ParseError, ValidationError
from tacgrip.plant import PlantConfig
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
        sensor=SensorModel(grid_rows=12, grid_cols=16, spacing=18.0,
                           marker_radius=3.5, marker_intensity=0.2,
                           background=0.9, displacement_gain_k=8.5,
                           noise_sigma=0.02, seed=4),
        kde=KdeConfig(kernel_width_h=12.5, pixel_scale_s=0.04),
        detector=DetectorConfig(scale=3.1, threshold_rel=0.2,
                                threshold_abs=2e-4, min_separation=5.5),
        plant=PlantConfig(valve_latency=0.02, control_delay=0.04,
                          line_delay=0.03, chamber_time_constant=0.2,
                          tank_setpoints=(40.5, -50.25), tank_hysteresis=1.5,
                          pump_rate=30.0),
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


# sha256 of scenario_to_text for each canned scenario at seed 0; the run
# manifest records this digest as config_sha256.
CANNED_TEXT_SHA256 = {
    "poke": "9059025679beaff8a12051fdff9f35cf0cff9dc57363ca0e18f922edacf8e862",
    "slip": "0529bd8403cd67c36572115a7cfa297e15f37d6d822d3d8e292588b75df16d83",
    "static": "5d0998493ab7fcf3589a7a5530683a3952a4242fc5aa4e1b70a98a4aefdb8bd9",
    "timeout": "a2016af24ee281cab3c6d9eb821fefaab91dde8ad1c17bab0b683e402a17e60c",
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
