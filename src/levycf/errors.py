"""Exception types shared across the package.

The CLI maps these onto exit codes: NoConvergenceError exits 1, usage
problems (argparse, and any other ValueError or OverflowError, TraceRangeError
among them) exit 2, TargetOutOfRangeError exits 3, TruncatedStreamError /
InsufficientDigitsError exit 4.
"""


class InvalidWordError(ValueError):
    """A word contains a letter that is not a positive integer."""


class TruncatedStreamError(ValueError):
    """A letter stream ended before the requested count was reached."""


class InsufficientDigitsError(ValueError):
    """A slope's digit list is too short for the requested computation."""


class FloorPrecisionError(ValueError):
    """Floor of m*theta + rho could not be resolved at maximum refinement depth."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"floor ambiguous at index {index} after maximum refinement")


class NotAFactorError(ValueError):
    """The given word is not a factor of the reference infinite word."""


class TargetOutOfRangeError(ValueError):
    """Inversion target lies outside the attainable value interval."""

    def __init__(self, target, low, high):
        self.target = target
        self.low = low
        self.high = high
        super().__init__(f"target {target} outside attainable interval [{low}, {high}]")


class TraceRangeError(OverflowError):
    """A convergent's denominator q, or its trace's bit count, is past float range: f = log T / q is no float."""


class NoConvergenceError(RuntimeError):
    """Iteration cap reached before the requested tolerance."""
