"""In-memory span recorder that wraps tacgrip's public functions.

The traced run replaces each function at the name its caller looks it
up under (for example `tacgrip.episode.render_frame`, which run_grasp
resolves through its own module globals) with a wrapper that records a
span: name, host start, host end, parent span and run id. Nothing under
src/ changes, and the wrappers are removed when the run ends. Spans are
written to the benchmark's own output directory, never into an episode
run directory, so the episode trace files stay byte-identical.
"""

import csv
import functools
import gzip
import itertools
from array import array
from time import perf_counter


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    from tacgrip import (control, density, episode, kinematics, perception,
                         plant, scenario, tracking)

    return [
        (episode, "run_grasp", "episode.run_grasp"),
        (episode, "_write_outputs", "episode.write"),
        (episode, "displace_markers", "sensor_sim.displace"),
        (episode, "render_frame", "sensor_sim.render"),
        (episode, "encode_frame", "control.encode"),
        (scenario, "parse_scenario_text", "scenario.parse"),
        (scenario, "static_scenario", "scenario.build"),
        (perception.FingerPipeline, "calibrate", "perception.calibrate"),
        (perception.FingerPipeline, "process", "perception.process"),
        (perception, "detect_markers", "blobs.detect"),
        (perception, "estimate_density", "density.kde"),
        (density, "estimate_density", "density.kde"),
        (perception, "calibrate_threshold", "density.calibrate_threshold"),
        (perception, "marker_support_mask", "density.support_mask"),
        (perception, "extract_contact", "density.extract"),
        (perception, "track_displacement", "tracking.track"),
        (tracking, "track_displacement", "tracking.track"),
        (perception, "classify_frame", "control.classify"),
        (control, "classify_frame", "control.classify"),
        (control, "encode_frame", "control.encode"),
        (control.GraspSupervisor, "update", "control.supervise"),
        (control.McuEmulator, "submit", "control.mcu_submit"),
        (control.McuEmulator, "on_tick", "control.mcu_tick"),
        (plant.PneumaticPlant, "step", "plant.step"),
        (kinematics, "workspace", "kinematics.workspace"),
        (kinematics, "tip_position", "kinematics.fk"),
        (kinematics, "hull_volume", "kinematics.hull"),
    ]


class Tracer:
    """Records spans while installed; `with Tracer() as tr:` wraps the
    call sites on entry and restores the originals on exit.

    A span gets its id when it opens and is stored when it closes, as six
    numbers appended to one flat typed array: name id, span id, parent id
    (-1 for a root), run id, start and end. A long_hold run records ~600k
    spans; one tuple each would slow every garbage collection and the
    wrapper itself, and inflate the traced times.
    """

    FIELDS = 6

    def __init__(self):
        self.names = []  # span name of each name id
        self.data = array("d")
        self.run_id = 0
        self._next_id = itertools.count()
        self._stack = [-1]
        self._saved = []
        self.missing = []  # call sites of _targets() that do not exist
        self._columns = None
        # Counts taken at the same boundaries as the spans.
        self.render_calls = 0
        self.render_repeats = 0
        self._last_layout = {}
        self.markers_per_frame = []
        self.process_calls = 0
        self.process_regions = 0

    def __enter__(self):
        self.missing = []
        for owner, attr, name in _targets():
            original = owner.__dict__.get(attr)
            if original is None:  # call site renamed or removed
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        """A wrapper around fn that records a span named `name`."""
        name_id = self._name_id(name)
        next_id, stack, store = self._next_id.__next__, self._stack, \
            self.data.extend
        tracer = self
        observe = {
            "sensor_sim.render": self._observe_render,
            "blobs.detect": self._observe_detect,
            "perception.process": self._observe_process,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next_id()
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                store((name_id, span_id, parent, tracer.run_id, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_render(self, args, kwargs, result):
        finger = kwargs.get("finger_id", args[2] if len(args) > 2 else 1)
        layout = args[0].centroids.tobytes()
        self.render_calls += 1
        if self._last_layout.get(finger) == layout:
            self.render_repeats += 1
        self._last_layout[finger] = layout

    def _observe_detect(self, args, kwargs, result):
        self.markers_per_frame.append(len(result))

    def _observe_process(self, args, kwargs, result):
        self.process_calls += 1
        if result.center is not None:
            self.process_regions += 1

    def columns(self):
        """(names, parents, runs, starts, ends) per span, indexed by span
        id; parents hold span ids."""
        if self._columns is None:
            n = self.FIELDS
            order = sorted(range(len(self.data) // n),
                           key=lambda i: self.data[i * n + 1])
            cols = [[self.data[i * n + f] for i in order] for f in range(n)]
            self._columns = ([self.names[int(v)] for v in cols[0]],
                             [int(v) for v in cols[2]],
                             [int(v) for v in cols[3]], cols[4], cols[5])
        return self._columns

    def write(self, path):
        """Write every span as gzipped CSV; times in host seconds from the
        first span's start."""
        names, parents, runs, starts, ends = self.columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = starts[0] if starts else 0.0
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent",
                             "run"])
            for i, name in enumerate(names):
                writer.writerow([i, name, f"{starts[i] - t0:.9f}",
                                 f"{ends[i] - t0:.9f}", parents[i], runs[i]])

    # -- analysis -------------------------------------------------------------

    def durations(self, name):
        """Host seconds of every span with this name, in call order."""
        names, _, _, starts, ends = self.columns()
        return [ends[i] - starts[i] for i, n in enumerate(names) if n == name]

    def self_times(self):
        """Per name: summed span durations minus the time their direct
        children cover."""
        names, parents, _, starts, ends = self.columns()
        covered = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        totals = {}
        for i, name in enumerate(names):
            totals[name] = (totals.get(name, 0.0) + ends[i] - starts[i]
                            - covered[i])
        return totals

    def self_by_module(self):
        """Self time per module, the span-name prefix before the dot."""
        totals = {}
        for name, t in self.self_times().items():
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + t
        return totals

    def child_time(self, parent_name, child_prefix):
        """Host time in `child_prefix` spans directly under each
        `parent_name` span, one value per parent span."""
        names, parents, _, starts, ends = self.columns()
        per_parent = {i: 0.0 for i, n in enumerate(names) if n == parent_name}
        for i, parent in enumerate(parents):
            if parent in per_parent and names[i].startswith(child_prefix):
                per_parent[parent] += ends[i] - starts[i]
        return list(per_parent.values())

