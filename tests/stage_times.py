"""Per-stage times of one finger frame, measured in this process.

    python tests/stage_times.py            # static and moving, seed 1
    python tests/stage_times.py --seed 7

`run_grasp` renders and perceives each finger's frames in a worker
process, where no outside timer sees them. This script builds the same
two `FingerStep`s (`episode.finger_steps`) and calls them here, at every
control instant of a static contact (`static_scenario`) and of a contact
that moves every period (the trace ledger's `moving_scenario`), with each
stage wrapped in a timer. OpenBLAS runs one thread, as in the workers.

Per scenario it prints how many of its frames were detected on the
whole frame because their dark box could not be shown to hold every
marker (`blobs._detect_in_box` called on the whole frame): 0 when every
frame's own dark box answered. Per stage it prints the calls, the
median of a call, and the mean cost per frame (the stage's total over
the frames), in ms: layout (`displace_markers`), render
(`FrameStream.render`, stamping included), stamp (`disk_coverage`),
detect, kde, extract, and frame (the whole step). Layouts and stamps
are made only when the scene changes, so read their per-frame means.
The last row, control, is the parent's side of an instant: `run_grasp`
replayed on the frames' contact centers (`trace_ledger.replay_run_grasp`),
timed from one instant's receive to the next, which spans the control
step and the plant's ticks. Its calls are instants, and its median the
cost of one.

A last block times `kinematics.workspace` at 9 samples per axis, as
`tacgrip workspace` and perfbench run it, 20 calls per chain: per
chain, the median ms of its forward kinematics (the call less its hull)
and of its hull (`hull_volume`), and how many of the chain's points the
hull reads (the ends of each dex joint's extension axis). Timings are
wall time of this process on whatever else the host runs; compare two
trees in alternating runs.
"""

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

# OpenBLAS reads its thread count when it loads, so this precedes numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

if __name__ == "__main__":  # run from a checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import tacgrip.blobs
import tacgrip.episode
import tacgrip.kinematics
import tacgrip.perception
import tacgrip.sensor_sim
from tacgrip.control import CONTROL_PERIOD_TICKS
from tacgrip.plant import TICK_S
from tacgrip.scenario import static_scenario
from trace_ledger import ReplayFingers, moving_scenario, replay_run_grasp

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


class TimedReplay(ReplayFingers):
    """ReplayFingers that appends the time of each receive to `marks`."""

    def __init__(self, marks, centers, steps):
        super().__init__(centers, steps)
        self.marks = marks

    def receive(self):
        self.marks.append(perf_counter())
        return super().receive()


def stage_times(scenario):
    """{stage: list of call durations in s} over every control instant of
    the scenario, both fingers, the number of frames and the number of
    them detected on the whole frame."""
    samples = {name: [] for _, _, name in STAGES}
    samples["frame"] = []
    centers = {1: {}, 2: {}}
    steps = tacgrip.episode.finger_steps(scenario)  # calibration untimed
    blobs, whole = tacgrip.blobs, []
    detect_in_box = blobs._detect_in_box

    def counted(frame, config, box):
        whole.append(box == (0, 0, *frame.shape[::-1]))
        return detect_in_box(frame, config, box)

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in STAGES]
    originals.append((blobs, "_detect_in_box", detect_in_box))
    try:
        for owner, attr, name in STAGES:
            setattr(owner, attr, _timed(getattr(owner, attr), samples[name]))
        blobs._detect_in_box = counted
        total = int(round(scenario.duration_s / TICK_S))
        for tick in range(0, total + 1, CONTROL_PERIOD_TICKS):
            now = tick * TICK_S
            for finger in (1, 2):
                start = perf_counter()
                center = steps[finger](now)
                samples["frame"].append(perf_counter() - start)
                if center is not None:
                    centers[finger][now] = center
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    marks = []
    replay_run_grasp(scenario, centers, partial(TimedReplay, marks))
    samples["control"] = np.diff(marks).tolist()
    return samples, len(samples["frame"]), sum(whole)


# Samples per axis and calls per chain of the workspace block.
WORKSPACE_SAMPLES, WORKSPACE_CALLS = 9, 20


def workspace_times():
    """{chain: (FK durations, hull durations, hull points, points)}, the
    durations in s over WORKSPACE_CALLS calls of `kinematics.workspace`
    per chain, hull_volume wrapped in a timer that also counts the
    points it is given."""
    kin = tacgrip.kinematics
    times = {}
    original = kin.hull_volume
    try:
        for name, chain in (("dex-rot", kin.dex_rot_chain()),
                            ("rot-dex", kin.rot_dex_chain())):
            fk, hull, read = [], [], []
            timed = _timed(original, hull)

            def counted(points):
                read.append(len(points))
                return timed(points)

            kin.hull_volume = counted
            for _ in range(WORKSPACE_CALLS):
                start = perf_counter()
                points = kin.workspace(chain, WORKSPACE_SAMPLES).points
                fk.append(perf_counter() - start - hull[-1])
            times[name] = fk, hull, read[-1], len(points)
    finally:
        kin.hull_volume = original
    return times


def report(title, samples, frames, whole):
    print(f"{title}: {frames} frames, {whole} detected on the whole frame")
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
    print(f"workspace: {WORKSPACE_SAMPLES} samples per axis, "
          f"{WORKSPACE_CALLS} calls per chain")
    print(f"  {'chain':<8} {'fk ms':>8} {'hull ms':>8}  hull reads")
    for name, (fk, hull, read, total) in workspace_times().items():
        print(f"  {name:<8} {1e3 * float(np.median(fk)):>8.3f} "
              f"{1e3 * float(np.median(hull)):>8.3f}  {read} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
