"""Exception types shared across the package."""


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
    """Perception flag older than the arbitration freshness bound."""


class NoDisturbanceError(TacgripError):
    """Episode trace contains no disturbance event to measure."""


class ScenarioError(TacgripError):
    """Malformed scenario handed to the episode runner."""


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
    """A parsed value violates a typed invariant."""
