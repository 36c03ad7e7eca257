"""Exception types shared across the package."""


class GvswapError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GvswapError, ValueError):
    """A model or contract parameter is outside its admissible range."""


class DomainError(GvswapError, ValueError):
    """An argument lies outside a function's domain of definition."""


class DegenerateLawError(GvswapError, ValueError):
    """An operation requires a non-degenerate law but got one with zero variance."""


class ConstraintDegeneracyError(GvswapError, ValueError):
    """The constraint matrix is rank deficient (expected returns proportional to ones)."""


class InfeasibleTargetError(GvswapError, ValueError):
    """The target return cannot be met by unit-norm, fully invested weights."""

    def __init__(self, message: str, k_interval: tuple = None):
        super().__init__(message)
        self.k_interval = k_interval


class NumericalError(GvswapError, RuntimeError):
    """A numerical routine failed to reach its tolerance."""

    def __init__(self, message: str, best_value: float = None, error_estimate: float = None):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


class EstimationError(GvswapError, ValueError):
    """Parameter estimation failed (degenerate or insufficient data)."""
