"""Exception hierarchy shared across the package."""


class UavLinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(UavLinkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateGeometryError(DomainError):
    """Two positions coincide, so no link geometry exists."""


class DegeneratePolicyError(DomainError):
    """A policy makes the underlying process degenerate (e.g. never transmits)."""


class StabilityError(UavLinkError):
    """The queue is unstable: offered load reaches or exceeds capacity.

    ``margin`` is the (non-negative) amount by which the stability
    condition is violated, in the units of the check that failed.
    """

    def __init__(self, message: str, margin: float = 0.0, node: str | None = None):
        super().__init__(message)
        self.margin = margin
        self.node = node


class AccuracyError(UavLinkError):
    """A numerical routine failed to reach the requested tolerance.

    Carries the best available estimate and its estimated error.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class NumericalConsistencyError(UavLinkError):
    """An internal numerical identity was violated beyond cancellation noise."""


class LowerBoundNotFoundError(UavLinkError):
    """The curvature sign change defining the lower threshold bound is absent.

    ``diagnostics`` holds the scanned grid and curvature values.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ScenarioError(UavLinkError, ValueError):
    """A scenario document violates the schema; names field and constraint."""
