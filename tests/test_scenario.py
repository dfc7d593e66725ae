import pytest

from tacgrip.errors import ParseError, ValidationError
from tacgrip.scenario import (CANNED, Scenario, StimulusEvent, load_scenario,
                              parse_scenario_text, poke_scenario,
                              scenario_to_text, slip_scenario,
                              static_scenario, timeout_scenario)

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
    assert sc.seed == 7
    assert sc.duration_s == 5.0
    assert sc.sensor.seed == 7  # scenario seed feeds the sensor noise
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
    assert sc.events == []


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


def test_event_parse_errors():
    with pytest.raises(ParseError):
        parse_scenario_text("[events]\nevent = 1.0 1 320\n")
    with pytest.raises(ParseError):
        parse_scenario_text("[events]\nevent = 1.0 one 320 240 3 40\n")
    with pytest.raises(ParseError):
        parse_scenario_text("[events]\nevent = 1.0 1.5 320 240 3 40\n")


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


def test_round_trip_through_text(tmp_path):
    original = poke_scenario(seed=3)
    text = scenario_to_text(original)
    path = tmp_path / "poke.scn"
    path.write_text(text)
    back = load_scenario(path)
    assert back.name == original.name
    assert back.seed == original.seed
    assert back.duration_s == original.duration_s
    assert back.sensor == original.sensor
    assert back.kde == original.kde
    assert back.plant == original.plant
    assert back.thresholds == original.thresholds
    assert back.grasp_mask == original.grasp_mask
    assert back.events == original.events


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


def test_depth_zero_clears_contact():
    sc = Scenario(events=[
        StimulusEvent(time=1.0, finger=1, x=320, y=240, depth=3.0, radius=40),
        StimulusEvent(time=2.0, finger=1, x=320, y=240, depth=0.0, radius=40),
    ]).validate()
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
    assert timeout_scenario().events == []
