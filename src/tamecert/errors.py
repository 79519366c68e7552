"""Exception types shared across the package."""


class TamecertError(Exception):
    """Base class for all package errors."""


class RefinementLimit(TamecertError):
    """Interval refinement hit the hard step cap; indicates inconsistent input."""


class QuotientsExhausted(TamecertError):
    """A finite-prefix rotation number ran out of partial quotients."""


class DepthInsufficient(TamecertError):
    """Odometer cylinders are not separated at the requested truncation depth."""


class DepthExhausted(TamecertError):
    """Cancellation consumed the whole stored boundary prefix."""


class NotStabilized(TamecertError):
    """Numeric images kept moving by more than the tolerance within the stage budget."""

    def __init__(self, message, stages=None, last_delta=None):
        super().__init__(message)
        self.stages = stages
        self.last_delta = last_delta


class NotStabilizedAcrossResolutions(TamecertError):
    """Rank estimate did not agree across the resolution schedule."""

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class SampleMismatch(TamecertError):
    """Composition hit a point outside the evaluable domain."""


class BudgetExceeded(TamecertError):
    """Search budget ran out; carries the best certificate found so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NotInIdeal(TamecertError):
    """Decomposition requested for a translation (not a limit element)."""


class UnknownSeries(TamecertError):
    """Requested plot series is not present in the report."""


class ConfigError(TamecertError):
    """Experiment configuration failed validation."""
