"""Machine-speed probe for a shared, noisy host.

On a shared 2-core Xeon VM, host speed drifts by up to ~2x over minutes
as other tenants come and go, and a 50 s episode is not long enough to
average that out. So every run also times a fixed reference kernel. It
runs before each unit and about every quarter second inside it, through
a hook on a call the program makes once per step. The probe's own time
is taken out of the unit's host time, and `ops_per_ref_s` rescales the
unit's throughput to a host on which the probe takes its nominal time.

There are two kernels, because host drift slows big-array work less
than interpreter-bound work. "frame" filters, adds noise to and clips
640x480 arrays, like rendering, marker detection and the KDE; it runs
for the episode workloads. "interpreter" does small matrix products and
a pure-Python loop, like the control loop, the plant and forward
kinematics. Over ~230 paired samples on that VM, the episode step time
moved as the frame probe time to the power 0.81, against 0.64 for the
interpreter probe; the workspace time moved as the interpreter probe
time to the power 1.08.

The kernels use numpy and scipy only, never tacgrip, so a change to the
program cannot change them.
"""

import contextlib
import functools
import statistics
from time import perf_counter

import numpy as np
from scipy import ndimage

# Nominal probe times, host seconds. They only set the scale of the
# rescaled metrics; each is within 1.5x of its kernel's median on the
# 2-core Xeon VM that recorded baseline.json.
NOMINAL_S = {"frame": 0.0170, "interpreter": 0.0085}
KERNEL = {"static_grasp": "frame", "moving_contact": "frame",
          "long_hold": "interpreter", "workspace": "interpreter"}
EVERY_S = 0.25


class SpeedProbe:
    """Times one reference kernel; one instance per benchmark run."""

    def __init__(self, kernel):
        rng = np.random.default_rng(0)
        self.nominal_s = NOMINAL_S[kernel]
        self._kernel = {"frame": self._frame,
                        "interpreter": self._interpreter}[kernel]
        self._image = rng.random((480, 640)).astype(np.float32)
        self._field = rng.random((480, 640))
        self._rot = np.linalg.qr(rng.random((4, 4)))[0]
        self.times = []  # probe durations of the current unit, host s
        self.spent = 0.0  # host s spent probing inside the current unit
        self._next = 0.0

    def _frame(self):
        ndimage.gaussian_filter(self._image, 2.0, order=(2, 0),
                                mode="nearest", truncate=3.0)
        noisy = self._field + np.random.default_rng(1).normal(
            0.0, 0.01, self._field.shape)
        np.clip(noisy, 0.0, 1.0, out=noisy)
        acc = np.zeros_like(noisy)
        for y in range(0, 450, 8):
            acc[y:y + 30, 100:190] += noisy[y:y + 30, 100:190]

    def _interpreter(self):
        m = np.eye(4)
        for _ in range(1200):
            m = m @ self._rot
        s = 0.0
        for i in range(20000):
            s += (i * 0.5) % 7.0
        return s

    def probe(self):
        start = perf_counter()
        self._kernel()
        end = perf_counter()
        self.times.append(end - start)
        self._next = end + EVERY_S
        return end - start

    def start_unit(self):
        """Reset the per-unit record and take the unit's first probe."""
        self.times, self.spent = [], 0.0
        self.probe()

    def factor(self):
        """Median probe time of the unit over the nominal time; above 1
        when the host ran slower than nominal."""
        return statistics.median(self.times) / self.nominal_s

    @contextlib.contextmanager
    def hooked(self, owner, attr):
        """Probe at most every EVERY_S inside calls to owner.attr."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def probing(*args, **kwargs):
            if perf_counter() >= self._next:
                self.spent += self.probe()
            return original(*args, **kwargs)

        setattr(owner, attr, probing)
        try:
            yield self
        finally:
            setattr(owner, attr, original)
