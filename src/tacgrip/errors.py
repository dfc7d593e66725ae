"""Exception types shared across the package, the one check of a
numeric value's domain and the one rule for a number's text."""

import math


class TacgripError(Exception):
    """Base class for all package errors."""


class EmptyMarkerSetError(TacgripError):
    """Density estimation requires at least one marker."""


class NonMonotonicTimeError(TacgripError):
    """Timestamp regressed within a stream that must be strictly increasing."""


class PressureOutOfRangeError(TacgripError):
    """Chamber pressure command outside the actuator limits."""


class InvalidSelectorError(TacgripError):
    """Valve/chamber selector does not address a real chamber."""


class StaleFlagsError(TacgripError):
    """Perception flag older than the supervisor's freshness bound."""


class NoDisturbanceError(TacgripError):
    """Episode trace contains no disturbance event to measure."""


class ScenarioError(TacgripError):
    """Malformed scenario handed to the episode runner."""


class WorkerError(TacgripError):
    """A finger's worker process raised or ended during an episode."""


class ParseError(TacgripError):
    """Scenario file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(TacgripError):
    """A parsed value, or a calibration frame, violates an invariant."""


def check_range(name, value, lo=-math.inf, hi=math.inf, lo_open=False,
                error=ValueError):
    """Raise `error` unless value is a finite number in [lo, hi], or in
    (lo, hi] with lo_open. NaN, infinities and integers too large for a
    float never pass."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not (finite and (lo < value if lo_open else lo <= value) and value <= hi):
        left = "(" if lo_open or lo == -math.inf else "["
        right = ")" if hi == math.inf else "]"
        raise error(f"{name} = {value!r} is not a finite number in "
                    f"{left}{lo:g}, {hi:g}{right}")


def plain_number(parse):
    """`parse` (float, or int with an optional base) of text that spells a
    number plainly. Text that parse would also take but a typo makes
    raises ValueError: digit-group underscores (`1_0` would read as 10),
    non-ASCII digits, leading or trailing whitespace."""
    def parse_plain(text, *base):
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError(f"{text!r} is not a plain number")
        return parse(text, *base)
    parse_plain.__name__ = parse.__name__  # argparse's name for the type
    return parse_plain


plain_float, plain_int = plain_number(float), plain_number(int)
