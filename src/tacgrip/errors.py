"""Exception types shared across the package, the one check of a
numeric value's domain and the one rule for a number's text."""

import math
import numbers


class TacgripError(Exception):
    """Base class for all package errors."""


class NoDisturbanceError(TacgripError):
    """Episode trace contains no disturbance event to measure."""


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
                integer=False, error=ValueError):
    """Raise `error` unless value is a finite number in [lo, hi], or in
    (lo, hi] with lo_open, and an integer with `integer`. NaN, infinities,
    bools, non-numbers and integers too large for a float never pass."""
    kind = numbers.Integral if integer else numbers.Real
    try:
        finite = (isinstance(value, kind) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:
        finite = False
    if not (finite and (lo < value if lo_open else lo <= value) and value <= hi):
        left = "(" if lo_open or lo == -math.inf else "["
        right = ")" if hi == math.inf else "]"
        what = "an integer" if integer else "a finite number"
        raise error(f"{name} = {value!r} is not {what} in "
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
