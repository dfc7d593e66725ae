"""perfbench's span recorder wraps tacgrip call sites by name and lists
the ones it cannot find as missing; a missing site's layer then reads 0
with no failure. This pins the sites known to be gone, so a change to
src/ that drops another one fails here and names it."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Each entry's layer reads 0 until the benchmark's spans are repaired.
KNOWN_MISSING = {
    # the KDE's support is a box since marker_support_box replaced the
    # mask
    "tacgrip.perception.marker_support_mask",
    # the control step tracks the contacts through tacgrip.episode's
    # globals; the pipeline keeps no track
    "tacgrip.perception.track_displacement",
    # the control step classifies through tacgrip.episode's globals
    "tacgrip.perception.classify_frame",
    # a frame runs through Calibration.process, which the finger
    # workers call out of the benchmark's reach
    "FingerPipeline.process",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_other_perfbench_call_site_is_missing():
    tracer = _load_spans().Tracer()
    with tracer:
        missing = set(tracer.missing)
    assert missing - KNOWN_MISSING == set()
