"""The trace ledger: sha256 digests of what a fixed set of grasp episodes
produce, kept in trace_ledger.json beside this file together with the
Python, numpy and scipy versions they were recorded with.

    python tests/trace_ledger.py          # run every episode and check
    python tests/trace_ledger.py --write  # run every episode and record

The ledger is the in-process reference for run_grasp's worker
processes. `--write` records each run through `serial_run_grasp`: the
same `run_grasp`, with an in-process stand-in for the workers that calls
each finger's step in this process, so the record holds the loop's rules
and not the transport. A check runs `run_grasp` with its workers, prints
the recorded and running versions, then one line per run and component
that differs, and exits 1 if any does. Record again only in a change
that alters traces on purpose, and say why in CHANGES.md. The tier-1
tests check the worker episodes they run anyway against the ledger with
`assert_matches_ledger`, so the ledger costs them no extra episode, and
no tier-1 test runs an episode in-process.

For each run the ledger holds one digest per part of an EpisodeResult:
episode rows, plant rows, the two contact tracks, the commands, the
phase transitions, and the outcome (final phase and regrasp count).
`rows`, the digest of `(episode_rows, plant_rows)` together, is the hash
earlier changes recorded by hand. Digests are of `repr`, so a float that
parts in its last bit shows; on another platform (libm, BLAS) the
versions line tells what else differs. The runs in SAVES_FRAMES write
their run directory with the frames saved, and `files` digests it.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # run from a checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy
import scipy

import tacgrip.episode
from tacgrip.control import CONTROL_PERIOD_TICKS
from tacgrip.episode import run_grasp
from tacgrip.plant import TICK_S
from tacgrip.scenario import (CANNED, Scenario, StimulusEvent,
                              static_scenario, timeout_scenario)
from tacgrip.sensor_sim import SensorModel

LEDGER = Path(__file__).with_name("trace_ledger.json")


class InProcessFingers:
    """`_FingerWorkers` without the processes: each receive calls every
    finger's step here, at the instant sent last."""

    def __init__(self, steps):
        self.steps = steps

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def send(self, now):
        self.now = now

    def receive(self):
        return {finger: step(self.now) for finger, step in self.steps.items()}


def serial_run_grasp(scenario, out_dir=None, save_frames=False):
    """run_grasp with each finger's step called in this process instead
    of in its worker: the run the workers must reproduce."""
    with mock.patch.object(tacgrip.episode, "_FingerWorkers",
                           InProcessFingers):
        return run_grasp(scenario, out_dir, save_frames)


def moving_scenario(seed=4, duration=1.2):
    """Untouched for three periods, then both contact centers move every
    control period, so no two rendered layouts repeat."""
    period = CONTROL_PERIOD_TICKS * TICK_S
    events = [StimulusEvent(time=k * period, finger=finger,
                            x=260.0 + 3.7 * k + 5.0 * finger,
                            y=230.0 + 1.3 * k, depth=2.0 + 0.02 * k,
                            radius=40.0)
              for k in range(3, int(duration / period) + 1)
              for finger in (1, 2)]
    return Scenario(name="moving", duration_s=duration,
                    sensor=SensorModel(seed=seed), events=events)


def released_early(seed, duration):
    """Nothing is touched, and the supervisor releases at 0.528 s."""
    sc = timeout_scenario(seed, duration=duration)
    return replace(sc, thresholds=replace(sc.thresholds,
                                          no_contact_timeout_s=0.5))


SCHEDULE_EDGES = [
    (static_scenario, 0.099),  # the last instant falls on the final tick
    (static_scenario, 0.1),
    (static_scenario, 0.132),
    (released_early, 1.0),
    (released_early, 0.6),  # the release grace outlasts the scenario
]


def edge_run(make, duration):
    """The ledger's name for a schedule-edge case, run at seed 1."""
    return f"{make.__name__}-1-{duration}s"


# run name -> a call that builds its scenario
RUNS = {f"{name}-{seed}": partial(CANNED[name], seed)
        for name in sorted(CANNED) for seed in (0, 3)}
RUNS["moving"] = moving_scenario
RUNS.update((edge_run(make, duration), partial(make, 1, duration=duration))
            for make, duration in SCHEDULE_EDGES)
# the runs whose run directory, frames saved, the ledger digests too
SAVES_FRAMES = {"moving"} | {edge_run(make, duration)
                             for make, duration in SCHEDULE_EDGES}


def directory_digest(root):
    """sha256 of a run directory's files in path order: each one's path
    relative to root, its size and its bytes. manifest.txt is left out:
    it holds the package version, and the other digests cover the rest
    of its lines."""
    sha = hashlib.sha256()
    files = {p.relative_to(root).as_posix(): p
             for p in Path(root).rglob("*") if p.is_file()}
    files.pop("manifest.txt", None)
    for name in sorted(files):
        data = files[name].read_bytes()
        sha.update(f"{name}\n{len(data)}\n".encode())
        sha.update(data)
    return sha.hexdigest()


def digests(result, out_dir=None):
    """{component: sha256 of its repr} for one EpisodeResult, and
    `files`, the digest of the run directory, when out_dir is given."""
    texts = {name: repr(getattr(result, name))
             for name in ("episode_rows", "plant_rows", "tracks", "commands",
                          "transitions")}
    # the repr of the pair, without a second repr of the plant's rows
    texts["rows"] = f"({texts['episode_rows']}, {texts['plant_rows']})"
    texts["outcome"] = repr((result.final_phase, result.regrasp_count))
    got = {name: hashlib.sha256(text.encode()).hexdigest()
           for name, text in texts.items()}
    if out_dir is not None:
        got["files"] = directory_digest(out_dir)
    return got


def run_digests(run, run_episode):
    """The digests of ledger run `run`, run by run_episode: in a
    temporary run directory, frames saved, for a run in SAVES_FRAMES."""
    if run not in SAVES_FRAMES:
        return digests(run_episode(RUNS[run]()))
    with tempfile.TemporaryDirectory() as out_dir:
        return digests(run_episode(RUNS[run](), out_dir, save_frames=True),
                       out_dir)


def versions():
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def load():
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def versions_line(ledger):
    def show(v):
        return f"Python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}"
    return (f"recorded with {show(ledger['versions'])}; "
            f"running {show(versions())}")


def differences(run, got, ledger):
    """One line per component of `run` whose digest in `got` is not the
    ledger's, or that only one of them holds."""
    want = ledger["runs"].get(run)
    if want is None:
        return [f"{run}: not in the ledger"]
    return [f"{run} {part}: recorded {want.get(part, '-')[:16]}, "
            f"running {got.get(part, '-')[:16]}"
            for part in {**want, **got} if want.get(part) != got.get(part)]


def assert_matches_ledger(run, result, out_dir=None):
    """Fail naming each component of `run` that parts from the ledger,
    and the versions it was recorded with and runs with. A run in
    SAVES_FRAMES needs its run directory, out_dir."""
    ledger = load()
    lines = differences(run, digests(result, out_dir), ledger)
    assert not lines, "\n".join(
        ["the trace ledger's digests differ:"] + lines
        + [versions_line(ledger)])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check every ledger run, with run_grasp's workers, "
                    "against trace_ledger.json, or record them in-process "
                    "with --write.")
    parser.add_argument("--write", action="store_true",
                        help="record the runs' digests in the ledger")
    args = parser.parse_args(argv)
    run_episode = serial_run_grasp if args.write else run_grasp
    got = {run: run_digests(run, run_episode) for run in RUNS}
    if args.write:
        LEDGER.write_text(json.dumps({"versions": versions(), "runs": got},
                                     indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"recorded {len(got)} runs in {LEDGER}")
        return 0
    ledger = load()
    print(versions_line(ledger))
    lines = [line for run, digest in got.items()
             for line in differences(run, digest, ledger)]
    lines += [f"{run}: recorded, but no longer run"
              for run in ledger["runs"] if run not in got]
    print("\n".join(lines) if lines else f"all {len(got)} runs match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
