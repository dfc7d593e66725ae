"""Command-line interface.

Subcommands:
  grasp      run a closed-loop grasp episode from a scenario file
  workspace  sample finger workspaces and report hull volumes
  analyze    run the perception pipeline over a directory of PGM frames
  replay     re-run flag classification over a recorded track CSV

Each command imports the modules it runs when it runs, so `replay`
loads no scipy and `workspace` no `scipy.ndimage`. The defaults that
live in those modules (`analyze --pixel-scale` and
`--calibration-ratio`) are read from them then too, and `workspace`
without `--samples` leaves `samples_per_axis` to `workspace` itself.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .control import CONTROL_PERIOD_S, ControlThresholds, classify_frame
from .errors import (NoDisturbanceError, TacgripError, ValidationError,
                     check_range, plain_float, plain_int)


def _cmd_grasp(args):
    from .episode import measure_response_latency, run_grasp
    from .scenario import load_scenario

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario,
                           sensor=replace(scenario.sensor, seed=args.seed))
    result = run_grasp(scenario, out_dir=args.out, save_frames=args.save_frames)
    print(f"scenario {scenario.name} (seed {scenario.sensor.seed}): "
          f"final phase {result.final_phase.value}, "
          f"{len(result.instants)} control ticks")
    tts = result.time_to_stable
    if tts is not None:
        print(f"time to stable: {tts:.3f} s")
    try:
        latency = measure_response_latency(result)
        print(f"disturbance response latency: {latency:.3f} s")
    except NoDisturbanceError:
        pass
    print(f"traces written to {args.out}")
    return 0


def _cmd_workspace(args):
    from .kinematics import (dex_rot_chain, rot_dex_chain, workspace,
                             write_workspace_csv)

    samples = {} if args.samples is None else {
        "samples_per_axis": args.samples}
    orders = ["dexrot", "rotdex"] if args.order == "both" else [args.order]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    volumes = {}
    for order in orders:
        chain = dex_rot_chain() if order == "dexrot" else rot_dex_chain()
        res = workspace(chain, **samples)
        write_workspace_csv(res.points, out / f"workspace_{order}.csv")
        volumes[order] = res.hull_volume
        print(f"volume({order}) = {res.hull_volume:.1f} mm^3 "
              f"({len(res.points)} samples)")
    if len(volumes) == 2:
        smaller = min(volumes, key=volumes.get)
        larger = max(volumes, key=volumes.get)
        print(f"volume({smaller}) < volume({larger})")
    return 0


def _check_period(period):
    check_range("--period", period, lo=0.0, lo_open=True,
                error=ValidationError)


def _cmd_analyze(args):
    from .density import KdeConfig, estimate_density, write_density_pgm
    from .perception import (DEFAULT_CALIBRATION_RATIO, MAX_CALIBRATION_RATIO,
                             FingerPipeline)
    from .pgm import iter_frame_files, read_pgm
    from .tracking import ContactTrack, track_displacement, write_track_csv

    _check_period(args.period)
    if args.pixel_scale is None:
        args.pixel_scale = KdeConfig().pixel_scale_s
    if args.calibration_ratio is None:
        args.calibration_ratio = DEFAULT_CALIBRATION_RATIO
    check_range("--calibration-ratio", args.calibration_ratio, lo=0.0,
                hi=MAX_CALIBRATION_RATIO, lo_open=True, error=ValidationError)
    frames = iter_frame_files(args.frames)
    if not frames:
        print(f"no frame_<finger>_<seq>.pgm files in {args.frames}",
              file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kde = KdeConfig(pixel_scale_s=args.pixel_scale)

    by_finger = {}
    for finger_id, seq, path in frames:
        by_finger.setdefault(finger_id, []).append((seq, path))

    for finger_id, items in sorted(by_finger.items()):
        items.sort()
        pipe = FingerPipeline(finger_id, kde_config=kde,
                              calibration_ratio=args.calibration_ratio)
        try:
            calibration = pipe.calibrate(read_pgm(items[0][1]))
        except ValidationError as exc:
            raise ValidationError(f"{items[0][1]}: {exc}") from None
        window = calibration.window
        track = ContactTrack(finger_id=finger_id)
        for seq, path in items:
            frame = read_pgm(path)
            try:
                report = calibration.process(frame, window)
                window = report.window
                if report.center is not None:
                    track_displacement(track, report.center,
                                       seq * args.period, kde)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            if args.heatmaps and len(report.markers):
                # The pipeline's field covers the support box only; the
                # heatmap shows the whole frame.
                height, width = frame.shape
                field = estimate_density(report.markers,
                                         calibration.kde_config,
                                         width=width, height=height)
                write_density_pgm(field,
                                  out / f"density_{finger_id}_{seq:06d}.pgm")
        write_track_csv(track, out / f"track_{finger_id}.csv")
        print(f"finger {finger_id}: {len(items)} frames, "
              f"{len(track)} with contact, track -> track_{finger_id}.csv")
    return 0


def _cmd_replay(args):
    from .tracking import ContactTrack, read_track_csv

    _check_period(args.period)
    track = read_track_csv(args.track)
    thresholds = ControlThresholds(t1_mm=args.t1, t2_mm=args.t2)
    flags = []
    prefix = ContactTrack(finger_id=track.finger_id)
    for t, center, d in zip(track.timestamps, track.centers,
                            [None] + track.displacements):
        prefix.append(t, center, d)
        flag = classify_frame(prefix, thresholds, t, control_period=args.period)
        flags.append((t, flag.kind.value))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dest = out / f"flags_{Path(args.track).stem}.csv"
        with open(dest, "w", newline="") as fh:
            fh.write("t,flag\n")
            for t, kind in flags:
                fh.write(f"{t:.6f},{kind}\n")
        print(f"flags -> {dest}")
    counts = {}
    for _, kind in flags:
        counts[kind] = counts.get(kind, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"{len(flags)} samples ({summary})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tacgrip",
        description="Tactile gripping stack: perception, control, plant "
                    "and kinematics simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grasp", help="run a scenario closed-loop")
    g.add_argument("--scenario", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=plain_int, default=None,
                   help="override the scenario seed")
    g.add_argument("--save-frames", action="store_true",
                   help="also write the rendered PGM frames")
    g.set_defaults(func=_cmd_grasp)

    w = sub.add_parser("workspace", help="finger workspace volumes")
    w.add_argument("--order", choices=["dexrot", "rotdex", "both"],
                   default="both")
    w.add_argument("--samples", type=plain_int, default=None,
                   help="pressure samples per chamber axis")
    w.add_argument("--out", default=".")
    w.set_defaults(func=_cmd_workspace)

    a = sub.add_parser("analyze", help="perception over a PGM directory")
    a.add_argument("--frames", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--pixel-scale", type=plain_float, default=None,
                   help="mm per pixel")
    a.add_argument("--calibration-ratio", type=plain_float, default=None)
    a.add_argument("--period", type=plain_float, default=CONTROL_PERIOD_S,
                   help="seconds between frames")
    a.add_argument("--heatmaps", action="store_true",
                   help="write per-frame density PGMs")
    a.set_defaults(func=_cmd_analyze)

    r = sub.add_parser("replay", help="reclassify a recorded track")
    r.add_argument("--track", required=True)
    r.add_argument("--out", default=None)
    r.add_argument("--t1", type=plain_float, default=ControlThresholds().t1_mm)
    r.add_argument("--t2", type=plain_float, default=ControlThresholds().t2_mm)
    r.add_argument("--period", type=plain_float, default=CONTROL_PERIOD_S)
    r.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TacgripError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
