"""Per-stage times of one finger frame, measured in this process.

    python tests/stage_times.py            # static and moving, seed 1
    python tests/stage_times.py --seed 7

`run_grasp` renders and perceives each finger's frames in a worker
process, where no outside timer sees them. This script builds the same
two `FingerStep`s (`episode.finger_steps`) and calls them here, at every
control instant of a static contact (`static_scenario`) and of a contact
that moves every period (the trace ledger's `moving_scenario`), with each
stage wrapped in a timer. OpenBLAS runs one thread, as in the workers.

Per stage it prints the calls, the median of a call, and the mean cost
per frame (the stage's total over the frames), in ms:
layout (`displace_markers`), render (`FrameStream.render`, stamping
included), stamp (`disk_coverage`), detect, kde, extract, and frame (the
whole step). Layouts and stamps are made only when the scene changes, so
read their per-frame means. Timings are wall time of this process on
whatever else the host runs; compare two trees in alternating runs.
"""

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

# OpenBLAS reads its thread count when it loads, so this precedes numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

if __name__ == "__main__":  # run from a checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import tacgrip.episode
import tacgrip.perception
import tacgrip.sensor_sim
from tacgrip.control import CONTROL_PERIOD_TICKS
from tacgrip.plant import TICK_S
from tacgrip.scenario import static_scenario
from trace_ledger import moving_scenario

# (module or class, attribute, stage name), in the order a frame runs them
STAGES = (
    (tacgrip.episode, "displace_markers", "layout"),
    (tacgrip.sensor_sim.FrameStream, "render", "render"),
    (tacgrip.sensor_sim, "disk_coverage", "stamp"),
    (tacgrip.perception, "detect_markers", "detect"),
    (tacgrip.perception, "estimate_density", "kde"),
    (tacgrip.perception, "extract_contact", "extract"),
)


def _timed(fn, samples):
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(perf_counter() - start)
    return timed


def stage_times(scenario):
    """{stage: list of call durations in s} over every control instant of
    the scenario, both fingers, and the number of frames."""
    samples = {name: [] for _, _, name in STAGES}
    samples["frame"] = []
    steps = tacgrip.episode.finger_steps(scenario)  # calibration untimed
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in STAGES]
    try:
        for owner, attr, name in STAGES:
            setattr(owner, attr, _timed(getattr(owner, attr), samples[name]))
        total = int(round(scenario.duration_s / TICK_S))
        for tick in range(0, total + 1, CONTROL_PERIOD_TICKS):
            for finger in (1, 2):
                start = perf_counter()
                steps[finger](tick * TICK_S)
                samples["frame"].append(perf_counter() - start)
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return samples, len(samples["frame"])


def report(title, samples, frames):
    print(f"{title}: {frames} frames")
    print(f"  {'stage':<8} {'calls':>6} {'p50 ms':>8} {'ms/frame':>9}")
    for name, times in samples.items():
        p50 = 1e3 * float(np.median(times)) if times else 0.0
        print(f"  {name:<8} {len(times):>6} {p50:>8.3f} "
              f"{1e3 * sum(times) / frames:>9.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time each stage of a finger frame in this process.")
    parser.add_argument("--seed", type=int, default=1,
                        help="sensor noise seed of both scenarios")
    args = parser.parse_args(argv)
    runs = (("static", static_scenario(args.seed, duration=4.2)),
            ("moving", moving_scenario(args.seed, duration=2.0)))
    for title, scenario in runs:
        report(title, *stage_times(scenario))
    return 0


if __name__ == "__main__":
    sys.exit(main())
