"""Finite-buffer M/M/1 analysis of the transmit queue.

The service process is the per-slot transmit probability of the threshold
policy, approximated by an exponential law with the same mean so the queue
admits closed forms: a waiting-time tail (delay drop) and a buffer-overflow
probability driven by exponentially distributed packet lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePolicyError, DomainError, StabilityError

__all__ = [
    "QueueParams",
    "service_rate",
    "offered_load",
    "p_delay",
    "p_overflow",
]

# Offered loads within this distance of 1 are treated as the stability
# boundary (a root-finder landing on the bound cannot hit it exactly).
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class QueueParams:
    """Arrival, slotting, deadline, and buffer parameters of one queue.

    ``buffer_capacity_normalized`` is the buffer size measured in units of
    the mean packet length (capacity times the length-rate parameter).
    """

    arrival_rate: float
    slot_duration: float
    delay_threshold: float
    buffer_capacity_normalized: float

    def __post_init__(self):
        for name in ("arrival_rate", "slot_duration", "delay_threshold"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise DomainError(f"QueueParams.{name} must be > 0")
        if self.buffer_capacity_normalized < 0:
            raise DomainError("QueueParams.buffer_capacity_normalized must be >= 0")
        if self.arrival_rate * self.slot_duration >= 1.0:
            raise DomainError(
                "QueueParams: arrival_rate * slot_duration must be < 1 "
                f"(got {self.arrival_rate * self.slot_duration:.6g})"
            )


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if phi == 0.0:
        raise DegeneratePolicyError("transmit probability is 0: node never transmits")
    if not 0.0 < phi <= 1.0:
        raise DomainError(f"transmit probability must lie in (0, 1], got {phi}")
    return phi


def service_rate(phi: float) -> float:
    """Rate of the exponential service approximation; equals ``phi`` per slot.

    The exponential law is the unique one sharing the geometric
    distribution's mean number of slots (1/phi), which is the moment the
    queueing formulas below rely on.
    """
    return _check_phi(phi)


def offered_load(mu: float, q: QueueParams) -> float:
    """Utilization: arrivals per slot divided by the per-slot service rate."""
    mu = _check_phi(mu)
    return q.arrival_rate * q.slot_duration / mu


def p_delay(mu: float, q: QueueParams) -> float:
    """Probability a packet's queueing delay exceeds the deadline.

    Exactly 1 on the stability boundary (service rate equals arrival
    rate); raises :class:`StabilityError` with the rate deficit beyond it.
    """
    mu = _check_phi(mu)
    deficit = q.arrival_rate - mu / q.slot_duration
    if deficit > _BOUNDARY_TOL * q.arrival_rate:
        raise StabilityError(
            f"unstable queue: service rate {mu / q.slot_duration:.6g}/s is below "
            f"arrival rate {q.arrival_rate:.6g}/s",
            margin=deficit,
        )
    return math.exp(-max(-deficit, 0.0) * q.delay_threshold)


def p_overflow(mu: float, q: QueueParams) -> float:
    """Stationary probability an arriving packet finds no buffer space."""
    rho = offered_load(mu, q)
    slack = 1.0 - rho
    if slack < -_BOUNDARY_TOL:
        raise StabilityError(
            f"unstable queue: offered load {rho:.6g} >= 1", margin=rho - 1.0
        )
    bn = q.buffer_capacity_normalized
    if slack <= 1e-12:
        # removable singularity at full load
        return 1.0 / (1.0 + bn)
    x = bn * slack
    # denominator written via expm1 to survive slack -> 0
    denom = slack - rho * math.expm1(-x)
    return slack * math.exp(-x) / denom

