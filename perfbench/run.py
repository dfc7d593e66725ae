"""Closed-loop gripper benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout: tacgrip is imported from its
src/ directory. A run repeats one unit of work (an episode, a long hold,
or both workspaces) until S host seconds of work are done, at least
once, checks every unit's simulated outcome, prints every metric with
its unit and sample count, and ends with one JSON line. With --trace 0
that line holds the end-to-end metrics; with --trace 1 the run makes an
untraced pass and then a traced pass of the same units, and the line
holds the per-layer metrics from the traced pass.

"host" marks wall-clock time on the machine running the benchmark;
"sim" marks simulated time, which is deterministic.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("workspace", "long_hold", "static_grasp", "moving_contact")
EPISODES = ("static_grasp", "moving_contact")
SETUP_PROBES = 3
MODULES = ("sensor_sim", "blobs", "density", "perception", "tracking",
           "control", "plant", "episode", "scenario", "kinematics", "bench")

# The metrics of the final JSON line, as BENCHMARK.json lists them.
END_TO_END = ("ops_per_ref_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "sensor_sim.render_ms_p50", "sensor_sim.render_ms_p95",
    "sensor_sim.layout_repeat_ratio",
    "blobs.detect_ms_p50", "blobs.detect_ms_p95",
    "blobs.markers_per_frame_min",
    "density.kde_ms_p50", "density.kde_ms_p95", "density.extract_ms_p50",
    "density.kde_calls", "density.calibrate_ms",
    "perception.process_ms_p50", "perception.process_ms_p95",
    "perception.calibrate_ms", "perception.contact_ratio",
    "perception.center_err_px_p95",
    "tracking.track_us_p50",
    "control.classify_us_p50", "control.classify_us_p95",
    "control.classify_growth", "control.supervise_us_p50",
    "control.mcu_tick_us_p50", "control.mcu_frames", "control.transitions",
    "control.sim_time_to_stable_s", "control.sim_response_latency_s",
    "plant.step_us_p50", "plant.step_us_p95", "plant.ticks",
    "episode.self_ms_per_instant", "episode.write_s",
    "scenario.parse_ms",
    "kinematics.fk_us_p50", "kinematics.hull_ms",
) + tuple(f"{m}.self_s" for m in MODULES) + ("trace.overhead",)
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def conditions():
    import numpy
    import scipy

    import speed

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration")
        or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "speed_probe_nominal_s": speed.NOMINAL_S,
    }


def measure_setup(workload, seed, length):
    """Set-up host seconds of fresh processes: (median rescaled to
    nominal host speed, rescaled values, values as measured)."""
    from speed import KERNEL, NOMINAL_S

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
           str(seed), length]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        setup_s, probe_s = (float(v) for v in done.stdout.split()[-2:])
        raw.append(setup_s)
        scaled.append(setup_s * NOMINAL_S[KERNEL[workload]] / probe_s)
    return statistics.median(scaled), scaled, raw


def run_one(runner, seed, length):
    """One unit, or None when it raised: a crash is a failed unit,
    reported with its traceback, and the run goes on to report it."""
    try:
        return runner(seed, length, OUT_DIR)
    except Exception:
        traceback.print_exc()
        return None


def run_units(runner, step_call, seed, length, seconds, probe, tracer=None):
    """Run units until `seconds` of untraced unit host time are done.

    Each untraced unit runs under the speed probe, whose own time is
    taken out of the unit's host time. With a tracer, each untraced unit
    is followed by a traced one, so the two passes see the same machine
    load. Returns (untraced units, traced units, units that raised).
    """
    units, traced, errors = [], [], 0
    if tracer is not None:
        traced_runner = tracer.wrap(runner, "bench.unit")
    while True:
        probe.start_unit()
        with probe.hooked(*step_call):
            unit = run_one(runner, seed, length)
        if unit is None:
            errors += 1
        else:
            unit.host_s -= probe.spent
            unit.speed_factor = probe.factor()
            units.append(unit)
        if tracer is not None:
            tracer.run_id += 1
            with tracer:
                unit = run_one(traced_runner, seed, length)
            if unit is None:
                errors += 1
            else:
                traced.append(unit)
        if errors or sum(u.host_s for u in units) >= seconds:
            return units, traced, errors


def pct(values, q):
    """Quantile q of values (inclusive linear interpolation)."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


class Report:
    """Collects metric lines and prints them labelled."""

    def __init__(self, workload):
        self.workload = workload
        self.values = {}

    def add(self, name, value, unit, n, note=""):
        self.values[name] = (value, unit)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {self.workload} {name} = {shown} {unit} "
              f"(n={n}{'; ' + note if note else ''})")


def end_to_end(rep, workload, units, attempted, failed, setup):
    ok = [u for u in units if not u.failures]

    def median(values):
        # Medians over units, so one unit slowed by a neighbour on the
        # shared host does not move the result.
        return statistics.median(values) if values else None

    what = "FK samples" if workload == "workspace" else "control periods"
    per_unit = ok[0].ops if ok else 0
    rep.add("ops_per_ref_s",
            median([u.ops / u.host_s * u.speed_factor for u in ok]), "1/s",
            len(ok), f"{what} per host second at nominal host speed, "
            f"median over units of {per_unit}")
    rate = median([u.ops / u.host_s for u in ok])
    rep.add("ops_per_s", rate, "1/s", len(ok),
            f"{what} per host second as measured, median over units")
    rep.add("speed_factor", median([u.speed_factor for u in ok]), "ratio",
            len(ok), "speed probe time over nominal; above 1 is a slow host")
    if workload == "workspace":
        rep.add("workspace_points_per_s", rate, "1/s", len(ok),
                "FK samples per host second, median over units")
    else:
        rep.add("rtf", median([u.sim_s / u.host_s for u in ok]),
                "sim_s/host_s", len(ok),
                "simulated seconds per host second, median over units")
    rep.add("setup_s", setup[0], "s", len(setup[1]),
            "host, median over fresh processes, at nominal host speed: "
            + ", ".join(f"{v:.3f}" for v in setup[1]))
    rep.add("setup_host_s", statistics.median(setup[2]), "s", len(setup[2]),
            "host, as measured: " + ", ".join(f"{v:.3f}" for v in setup[2]))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rep.add("peak_rss_mb", rss, "MB", 1,
            "peak resident memory of this process")
    episode_metrics(rep, workload, ok)
    rep.add("fail_rate", failed / attempted, "ratio", attempted,
            f"{failed} failed of {attempted} attempted units")


def episode_metrics(rep, workload, ok):
    """The simulated and accuracy metrics of the episode workloads."""
    if workload not in EPISODES:
        return
    errs = [e for u in ok for e in u.center_err_px]
    rep.add("center_err_px_p95", pct(errs, 0.95), "px", len(errs),
            "contact center vs scripted stimulus center; simulator "
            "ground truth, model not validated against hardware")
    if workload == "static_grasp":
        tts = [u.outcome["sim_time_to_stable_s"] for u in ok]
        rep.add("sim_time_to_stable_s", tts[0] if tts else None, "sim_s",
                len(tts), "simulated, deterministic")
    else:
        lat = [u.outcome["sim_response_latency_s"] for u in ok
               if "sim_response_latency_s" in u.outcome]
        rep.add("sim_response_latency_s", lat[0] if lat else None, "sim_s",
                len(lat), "poke onset to first valve change; simulated")


def per_layer(rep, workload, tracer, traced, untraced):
    """Per-layer metrics from the traced pass; 0 for a layer the
    workload does not run."""
    n_units = max(len(traced), 1)

    def dist(name, span, q, scale, unit):
        values = tracer.durations(span)
        v = pct(values, q)
        rep.add(name, 0.0 if v is None else v * scale, unit, len(values),
                "host")

    def count(name, value, n, note=""):
        rep.add(name, value, "count", n, note)

    def ratio(name, num, den, note=""):
        rep.add(name, num / den if den else 0.0, "ratio", den,
                f"{num}/{den}{'; ' + note if note else ''}")

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    ms, us = 1e3, 1e6
    dist("sensor_sim.render_ms_p50", "sensor_sim.render", 0.5, ms, "ms")
    dist("sensor_sim.render_ms_p95", "sensor_sim.render", 0.95, ms, "ms")
    ratio("sensor_sim.layout_repeat_ratio", tracer.render_repeats,
          tracer.render_calls, "renders whose layout equals the finger's last")
    dist("blobs.detect_ms_p50", "blobs.detect", 0.5, ms, "ms")
    dist("blobs.detect_ms_p95", "blobs.detect", 0.95, ms, "ms")
    markers = tracer.markers_per_frame
    count("blobs.markers_per_frame_min", min(markers) if markers else 0,
          len(markers))
    dist("density.kde_ms_p50", "density.kde", 0.5, ms, "ms")
    dist("density.kde_ms_p95", "density.kde", 0.95, ms, "ms")
    dist("density.extract_ms_p50", "density.extract", 0.5, ms, "ms")
    kde_calls = len(tracer.durations("density.kde"))
    count("density.kde_calls", kde_calls / n_units, n_units, "per unit")
    cal_density = tracer.child_time("perception.calibrate", "density.")
    rep.add("density.calibrate_ms", median_or_zero(cal_density) * ms, "ms",
            len(cal_density), "host, density share of one calibrate")
    dist("perception.process_ms_p50", "perception.process", 0.5, ms, "ms")
    dist("perception.process_ms_p95", "perception.process", 0.95, ms, "ms")
    cal = tracer.durations("perception.calibrate")
    rep.add("perception.calibrate_ms", median_or_zero(cal) * ms, "ms",
            len(cal), "host, one finger")
    ratio("perception.contact_ratio", tracer.process_regions,
          tracer.process_calls, "frames that yield a contact region")
    errs = [e for u in traced for e in u.center_err_px]
    v = pct(errs, 0.95)
    rep.add("perception.center_err_px_p95", v or 0.0, "px", len(errs),
            "simulator ground truth")
    dist("tracking.track_us_p50", "tracking.track", 0.5, us, "us")
    dist("control.classify_us_p50", "control.classify", 0.5, us, "us")
    dist("control.classify_us_p95", "control.classify", 0.95, us, "us")
    classify = tracer.durations("control.classify")
    tenth = len(classify) // 10
    growth = (statistics.median(classify[-tenth:])
              / statistics.median(classify[:tenth])) if tenth else 0.0
    rep.add("control.classify_growth", growth, "ratio", len(classify),
            "median classify time, last tenth of the run over first tenth")
    dist("control.supervise_us_p50", "control.supervise", 0.5, us, "us")
    dist("control.mcu_tick_us_p50", "control.mcu_tick", 0.5, us, "us")
    count("control.mcu_frames",
          len(tracer.durations("control.mcu_submit")) / n_units, n_units,
          "per unit")
    count("control.transitions",
          median_or_zero([u.outcome.get("transitions", 0) for u in traced]),
          len(traced), "per unit")
    tts = [u.outcome["sim_time_to_stable_s"] for u in traced
           if u.outcome.get("sim_time_to_stable_s") is not None]
    rep.add("control.sim_time_to_stable_s", median_or_zero(tts), "sim_s",
            len(tts), "simulated")
    lat = [u.outcome["sim_response_latency_s"] for u in traced
           if "sim_response_latency_s" in u.outcome]
    rep.add("control.sim_response_latency_s", median_or_zero(lat), "sim_s",
            len(lat), "simulated")
    dist("plant.step_us_p50", "plant.step", 0.5, us, "us")
    dist("plant.step_us_p95", "plant.step", 0.95, us, "us")
    count("plant.ticks", len(tracer.durations("plant.step")) / n_units,
          n_units, "per unit")

    selves = tracer.self_by_module()
    grasp_self = tracer.self_times().get("episode.run_grasp", 0.0)
    instants = sum(u.ops for u in traced) if workload in EPISODES else 0
    rep.add("episode.self_ms_per_instant",
            grasp_self / instants * ms if instants else 0.0, "ms", instants,
            "host, run_grasp minus its child spans")
    rep.add("episode.write_s", sum(tracer.durations("episode.write"))
            / n_units, "s", n_units, "host, trace writers per unit")
    parse = tracer.durations("scenario.parse")
    rep.add("scenario.parse_ms", median_or_zero(parse) * ms, "ms",
            len(parse), "host")
    dist("kinematics.fk_us_p50", "kinematics.fk", 0.5, us, "us")
    hull = tracer.durations("kinematics.hull")
    rep.add("kinematics.hull_ms", median_or_zero(hull) * ms, "ms",
            len(hull), "host")
    for module in MODULES:
        rep.add(f"{module}.self_s", selves.get(module, 0.0) / n_units, "s",
                n_units, "host self time per unit")

    pairs = [(u.ops / u.host_s) / (t.ops / t.host_s)
             for u, t in zip(untraced, traced)]
    rep.add("trace.overhead", statistics.median(pairs), "ratio", len(pairs),
            "untraced over traced ops_per_s, median over adjacent pairs")


def recorded_sha(workload, seed, length):
    path = BENCH_DIR / "baseline.json"
    if length != "full" or not path.is_file():
        return None
    shas = json.loads(path.read_text()).get("trace_sha256", {})
    return shas.get(workload, {}).get(str(seed))


def main(argv=None, length="full"):
    args = parse_args(argv)
    if not (SRC / "tacgrip" / "__init__.py").is_file():
        print(f"perfbench: no tacgrip sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread for this process and its set-up probes only.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    import workloads
    from spans import Tracer
    from speed import KERNEL, SpeedProbe

    runner = workloads.RUNNERS[args.workload]
    cond = conditions()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} length={length}")
    print("conditions " + json.dumps(cond, sort_keys=True))

    setup = (measure_setup(args.workload, args.seed, length)
             if args.trace == 0 else None)
    tracer = Tracer() if args.trace else None
    units, traced, errors = run_units(
        runner, workloads.STEP_CALLS[args.workload], args.seed, length,
        args.seconds, SpeedProbe(KERNEL[args.workload]), tracer)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv.gz")
        for site in tracer.missing:
            print(f"untraced: {site} does not exist; its layer reads 0")

    all_units = units + traced
    attempted = len(all_units) + errors
    failed = errors + sum(1 for u in all_units if u.failures)
    for u in all_units:
        for msg in u.failures:
            print(f"FAILED {args.workload} seed={args.seed}: {msg}")

    rep = Report(args.workload)
    if args.trace == 0:
        end_to_end(rep, args.workload, units, attempted, failed, setup)
    elif units and traced:
        per_layer(rep, args.workload, tracer, traced, units)
        rep.add("fail_rate", failed / attempted, "ratio", attempted,
                f"{failed} failed of {attempted} attempted units")

    if units and "trace_sha256" in units[0].outcome:
        sha = units[0].outcome["trace_sha256"]
        same = all(u.outcome["trace_sha256"] == sha for u in all_units)
        want = recorded_sha(args.workload, args.seed, length)
        verdict = ("unrecorded seed" if want is None
                   else str(want == sha).lower() + " against the baseline")
        print(f"trace_identical {args.workload} = {verdict}; units agree: "
              f"{str(same).lower()}; sha256 {sha}")

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": rep.values[name][0],
                      "unit": rep.values[name][1]}
               for name in names if rep.values.get(name, (None,))[0]
               is not None}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, length=length, conditions=cond,
                  all_metrics=rep.values,
                  outcomes=[u.outcome for u in all_units])
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}"
     f".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if len(metrics) == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
