"""Exception hierarchy shared across the package.

Every error says what failed in its message, naming the node or field
concerned; none carries attributes beyond it.
"""


class UavLinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(UavLinkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class StabilityError(UavLinkError):
    """The queue is unstable: offered load reaches or exceeds capacity."""


class AccuracyError(UavLinkError):
    """A numerical routine failed to reach the requested tolerance."""


class NumericalConsistencyError(UavLinkError):
    """An internal numerical identity was violated beyond cancellation noise."""


class LowerBoundNotFoundError(UavLinkError):
    """The curvature sign change defining the lower threshold bound is absent."""


class ScenarioError(UavLinkError, ValueError):
    """A scenario document violates the schema; names field and constraint."""
