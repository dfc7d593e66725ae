"""Seeded inputs and expected outcomes for the benchmark workloads.

Everything here is plain Python with no import of tacgrip, so a set-up
probe can build a workload's inputs before it starts timing the import.
The seed changes positions, magnitudes, directions and jitter; the
timeline of each workload is fixed, so the expected simulated outcome
below holds for every seed.
"""

import random
from dataclasses import dataclass
from typing import Optional, Tuple

# One control instant every 33 plant ticks of 1 ms.
PERIOD_TICKS = 33
TICK_S = 0.001
PERIOD_S = PERIOD_TICKS * TICK_S

# Rest grid of the default sensor model (640x480 frame, 20x15 markers,
# 15 px spacing), used to put contacts at the edge of the grid.
GRID_X = (177.0, 462.0)
GRID_Y = (134.5, 344.5)

# T1 = 0.5 mm and T2 = 5 mm at 0.05 mm/px are 10 px and 100 px.
POKE_PX = (30.0, 60.0)  # D in (T1, T2]
SLIP_PX = (120.0, 140.0)  # D above T2


@dataclass(frozen=True)
class Expected:
    """Simulated outcome a correct run must reproduce."""

    final_phase: str
    command_kinds: Tuple[str, ...]
    regrasps: int
    transitions: int
    stable_within_s: Optional[Tuple[float, float]] = None
    volumes_mm3: Optional[Tuple[float, float]] = None  # (dex-rot, rot-dex)


def instant(k):
    """Time of control instant k, written as the scenario text writes it."""
    return round(k * PERIOD_S, 6)


# -- static_grasp -----------------------------------------------------------
# static_scenario(seed) touches both fingers at 1 s; the 3 s stability
# window puts the seal near 4.06 s, so 4.2 s is the shortest run that seals.

STATIC_DURATION_S = {"full": 4.2, "tiny": 1.2}


# -- moving_contact ----------------------------------------------------------
# A fresh contact center every control period (sub-pixel jitter), starting
# one marker spacing inside the left or right edge of the grid. A 0.5 s
# stability window lets it seal early; then finger 1 is poked along y and
# both fingers slip inward along x, which starts a regrasp whose MCU
# schedule (suction, then seal 1 s later) completes before the end.

MOVING_WINDOW_S = 0.5
MOVING_POKE_K = 20  # 0.660 s; the grasp seals at 0.561 s
MOVING_SLIP_K = 24  # 0.792 s; the suction ends 1.06 s later
MOVING_PERIODS = {"full": 58, "tiny": 9}


def _jitter(rng, value, limit=1.5, step=0.3):
    return max(-limit, min(limit, value + rng.gauss(0.0, step)))


def moving_contact_text(seed, length="full"):
    """Scenario text for the moving_contact workload."""
    rng = random.Random(f"moving_contact/{seed}")
    inward = rng.choice((+1.0, -1.0))
    edge_x = GRID_X[0] if inward > 0 else GRID_X[1]
    mid_y = sum(GRID_Y) / 2.0
    base = {f: [edge_x + inward * (15.0 + rng.uniform(-2.0, 2.0)),
                mid_y + rng.uniform(-20.0, 20.0)] for f in (1, 2)}
    poke = rng.choice((+1.0, -1.0)) * rng.uniform(*POKE_PX)
    slip = inward * rng.uniform(*SLIP_PX)
    jit = {f: [0.0, 0.0] for f in (1, 2)}
    depth = round(rng.uniform(2.8, 3.2), 3)

    lines = [
        "[scenario]",
        f"name = moving_contact_{seed}",
        f"seed = {seed}",
        f"duration = {instant(MOVING_PERIODS[length]):.3f}",
        "",
        "[thresholds]",
        f"stability_window_s = {MOVING_WINDOW_S}",
        "",
        "[events]",
    ]
    for k in range(MOVING_PERIODS[length] + 1):
        if k == MOVING_POKE_K:
            base[1][1] += poke
        if k == MOVING_SLIP_K:
            base[1][0] += slip
            base[2][0] += slip
        for f in (1, 2):
            jit[f] = [_jitter(rng, jit[f][0]), _jitter(rng, jit[f][1])]
            x = base[f][0] + jit[f][0]
            y = base[f][1] + jit[f][1]
            lines.append(f"event = {instant(k):.3f} {f} {x:.4f} {y:.4f} "
                         f"{depth} 40.0")
    return "\n".join(lines) + "\n"


def moving_poke_time():
    return instant(MOVING_POKE_K)


# -- long_hold ---------------------------------------------------------------
# Control half only: seeded contact centers per finger straight into
# track_displacement, a poke on one finger about every 20 s, default
# thresholds (3 s window). Each poke reopens the valves; the grasp
# reseals 3 s later.

LONG_HOLD_PERIODS = {"full": 9091, "tiny": 121}  # 300.0 s and 4.0 s
LONG_HOLD_POKE_EVERY_S = 20.0


def long_hold_pokes(periods):
    """Control instants of the pokes: one every 20 s, none in the last
    5 s so the final reseal lands. The seed picks each poke's finger,
    axis and size."""
    last = periods - int(5.0 / PERIOD_S)
    slot = int(LONG_HOLD_POKE_EVERY_S / PERIOD_S)
    return list(range(slot, last, slot))


def long_hold_centers(seed, length="full"):
    """Per control instant, the (x, y) contact center of each finger."""
    rng = random.Random(f"long_hold/{seed}")
    periods = LONG_HOLD_PERIODS[length]
    pokes = set(long_hold_pokes(periods))
    base = {f: [rng.uniform(280.0, 360.0), rng.uniform(200.0, 280.0)]
            for f in (1, 2)}
    jit = {f: [0.0, 0.0] for f in (1, 2)}
    out = []
    for k in range(periods):
        if k in pokes:
            f = rng.choice((1, 2))
            axis = rng.choice((0, 1))
            # Alternate sides of the grid centre so the contact stays on it.
            sign = -1.0 if base[f][axis] > (320.0, 240.0)[axis] else 1.0
            base[f][axis] += sign * rng.uniform(*POKE_PX)
        row = []
        for f in (1, 2):
            jit[f] = [_jitter(rng, jit[f][0]), _jitter(rng, jit[f][1])]
            row.append((base[f][0] + jit[f][0], base[f][1] + jit[f][1]))
        out.append(tuple(row))
    return out


# -- workspace ---------------------------------------------------------------

WORKSPACE_SAMPLES = {"full": 9, "tiny": 3}


# -- expected outcomes -------------------------------------------------------

SEAL = ("REOPEN_VALVES", "CLOSE_VALVES")


def expected(workload, length="full"):
    """The simulated outcome every seed must give at this length."""
    if workload == "static_grasp":
        if length == "tiny":  # contact at 1 s, window not yet full
            return Expected("contacted", ("REOPEN_VALVES",), 0, 2)
        return Expected("stable", SEAL, 0, 3, stable_within_s=(3.0, 15.0))
    if workload == "moving_contact":
        if length == "tiny":
            return Expected("contacted", ("REOPEN_VALVES",), 0, 2)
        return Expected("regrasping", SEAL + ("REOPEN_VALVES", "REGRASP"),
                        1, 5)
    if workload == "long_hold":
        n = len(long_hold_pokes(LONG_HOLD_PERIODS[length]))
        return Expected("stable", SEAL * (n + 1), 0, 3 + 2 * n)
    if workload == "workspace":
        volumes = {"full": (137602.6359271968, 67219.12613113047),
                   "tiny": None}[length]
        return Expected("", (), 0, 0, volumes_mm3=volumes)
    raise KeyError(workload)
