"""Time one workload's set-up in a fresh process; prints host seconds.

Usage: python3 setup_probe.py WORKLOAD SEED LENGTH, with tacgrip's src/
on PYTHONPATH. Set-up is `import tacgrip` plus what the workload builds
before its loop: the scenario (built or parsed) and, for the episode
workloads, each finger's reference render and FingerPipeline.calibrate,
through the same public calls run_grasp makes. Prints the set-up time and
then the median time of three speed probes taken right after it.
"""

import statistics
import sys
from dataclasses import replace
from time import perf_counter

import inputs


def main():
    workload, seed, length = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    text = (inputs.moving_contact_text(seed, length)
            if workload == "moving_contact" else None)

    start = perf_counter()
    import tacgrip as tg

    if workload in ("static_grasp", "moving_contact"):
        if text is None:
            sc = tg.static_scenario(
                seed, duration=inputs.STATIC_DURATION_S[length])
        else:
            sc = tg.parse_scenario_text(text)
        period_s = inputs.PERIOD_TICKS * sc.plant.tick_dt
        ref_model = replace(sc.sensor, noise_sigma=0.0)
        for finger in (1, 2):
            pipe = tg.FingerPipeline(
                finger, kde_config=sc.kde, detector_config=sc.detector,
                calibration_ratio=sc.calibration_ratio,
                control_period=period_s)
            ref = tg.render_frame(tg.displace_markers(ref_model, None),
                                  ref_model, finger_id=finger, seq=0)
            pipe.calibrate(ref)
    elif workload == "long_hold":
        pl = tg.PneumaticPlant(tg.PlantConfig())
        tg.McuEmulator(pl)
        tg.GraspSupervisor(thresholds=tg.ControlThresholds())
    elif workload == "workspace":
        tg.dex_rot_chain()
        tg.rot_dex_chain()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    elapsed = perf_counter() - start

    from speed import KERNEL, SpeedProbe  # imports numpy: after the timing

    probe = SpeedProbe(KERNEL[workload])
    probe_s = statistics.median(probe.probe() for _ in range(3))
    print(f"{elapsed:.6f} {probe_s:.6f}")


if __name__ == "__main__":
    main()
