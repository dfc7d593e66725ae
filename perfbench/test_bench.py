"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest perfbench/test_bench.py

They check that every end-to-end metric is printed with its unit and
sample count, that the traced run prints every per-layer metric, and
that a run whose outcome differs from the expected one counts as failed.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402

# Every end-to-end metric named for each workload, with its unit.
NAMED = {
    "static_grasp": {"rtf": "sim_s/host_s", "center_err_px_p95": "px",
                     "sim_time_to_stable_s": "sim_s"},
    "moving_contact": {"rtf": "sim_s/host_s", "center_err_px_p95": "px",
                       "sim_response_latency_s": "sim_s"},
    "long_hold": {"rtf": "sim_s/host_s"},
    "workspace": {"workspace_points_per_s": "1/s"},
}
COMMON = {"ops_per_ref_s": "1/s", "ops_per_s": "1/s", "setup_s": "s",
          "setup_host_s": "s", "peak_rss_mb": "MB", "speed_factor": "ratio",
          "fail_rate": "ratio"}


def bench(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)],
                    length="tiny")
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def printed(out, workload):
    """{metric: (value, unit, n)} from the metric lines of a run."""
    pattern = re.compile(
        rf"^metric {workload} (\S+) = (\S+) (\S+) \(n=(\d+)", re.M)
    return {m[0]: (m[1], m[2], int(m[3])) for m in pattern.findall(out)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed(capsys, workload):
    code, out, result = bench(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    lines = printed(out, workload)
    for name, unit in {**COMMON, **NAMED[workload]}.items():
        assert name in lines, f"{name} not printed"
        assert lines[name][1] == unit
    for name in run.END_TO_END:
        assert lines[name][2] >= 1, f"{name} has no samples"


def test_traced_run_prints_every_per_layer_metric(capsys):
    code, out, result = bench(capsys, "long_hold", trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    lines = printed(out, "long_hold")
    assert all(name in lines for name in run.PER_LAYER)
    assert result["metrics"]["plant.ticks"]["value"] == \
        inputs.LONG_HOLD_PERIODS["tiny"] * inputs.PERIOD_TICKS
    assert result["metrics"]["trace.overhead"]["value"] > 0


@pytest.mark.parametrize("field,value", [("regrasps", 1),
                                         ("final_phase", "released")])
def test_altered_expectation_counts_as_failure(capsys, monkeypatch, field,
                                               value):
    real = inputs.expected

    def altered(workload, length="full"):
        return dataclasses.replace(real(workload, length), **{field: value})

    monkeypatch.setattr(inputs, "expected", altered)
    code, out, result = bench(capsys, "long_hold")
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
    assert "FAILED long_hold" in out
    assert "fail_rate = 1 ratio" in out


def test_altered_volume_counts_as_failure(capsys, monkeypatch):
    real = inputs.expected

    def altered(workload, length="full"):
        exp = real(workload, "full")
        return dataclasses.replace(exp, volumes_mm3=(1.0, 0.5))

    monkeypatch.setattr(inputs, "expected", altered)
    code, out, result = bench(capsys, "workspace")
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    assert inputs.moving_contact_text(5) == inputs.moving_contact_text(5)
    assert inputs.moving_contact_text(5) != inputs.moving_contact_text(6)
    assert inputs.long_hold_centers(5, "tiny") == \
        inputs.long_hold_centers(5, "tiny")
