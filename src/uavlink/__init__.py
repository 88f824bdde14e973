"""Expected throughput of a UAV link under interference and queueing.

Analytic loss model (queue deadline drop, buffer overflow, SINR error)
with closed-form composition and threshold optimization, plus a
slot-level Monte Carlo oracle for validating every formula.
"""

from .channel import (
    EnvironmentParams,
    FadingKind,
    LinkChannel,
    Position,
    Rayleigh,
    Rician,
)
from .errors import (
    AccuracyError,
    DomainError,
    LowerBoundNotFoundError,
    NumericalConsistencyError,
    ScenarioError,
    StabilityError,
    UavLinkError,
)
from .interference import GammaFit, InterfererLink, NoiseModel, ZeroInterference
from .queueing import QueueParams
from .scenario_io import Node, Scenario, load_scenario, load_scenario_file, write_results
from .simulator import SimConfig, SimResult
from .throughput import (
    BetaBounds,
    JacobiResult,
    LossBreakdown,
    PolicyVector,
    SourceView,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BetaBounds",
    "DomainError",
    "EnvironmentParams",
    "FadingKind",
    "GammaFit",
    "InterfererLink",
    "JacobiResult",
    "LinkChannel",
    "LossBreakdown",
    "LowerBoundNotFoundError",
    "NoiseModel",
    "Node",
    "NumericalConsistencyError",
    "PolicyVector",
    "Position",
    "QueueParams",
    "Rayleigh",
    "Rician",
    "Scenario",
    "ScenarioError",
    "SimConfig",
    "SimResult",
    "SourceView",
    "StabilityError",
    "UavLinkError",
    "ZeroInterference",
    "load_scenario",
    "load_scenario_file",
    "write_results",
]
