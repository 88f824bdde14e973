"""Finite-buffer M/M/1 analysis of the transmit queue.

The service process is the per-slot transmit probability phi of the
threshold policy, approximated by an exponential law with the same mean so
the queue admits closed forms: a waiting-time tail (delay drop) and a
buffer-overflow probability driven by exponentially distributed packet
lengths.  The exponential law is the unique one sharing the geometric
distribution's mean number of slots (1/phi), which is the moment the
formulas rely on, so its per-slot rate is phi itself.  Each closed form
takes one per-slot service rate or an array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from . import specfun
from .errors import DegeneratePolicyError, DomainError, StabilityError

__all__ = [
    "QueueParams",
    "offered_load",
    "is_stable",
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
            specfun._positive(f"QueueParams.{name}", getattr(self, name))
        name, buffer = "QueueParams.buffer_capacity_normalized", self.buffer_capacity_normalized
        if specfun._nonnegative(name, buffer) == math.inf:
            raise DomainError(f"{name} must be a finite number, got {buffer!r}")
        if self.arrival_rate * self.slot_duration >= 1.0:
            raise DomainError(
                "QueueParams: arrival_rate * slot_duration must be < 1 "
                f"(got {self.arrival_rate * self.slot_duration:.6g})"
            )


def _check_phi(phi) -> np.ndarray:
    """``phi`` as a float array once every element lies in (0, 1]."""
    phi = np.asarray(phi, dtype=float)
    if not (0.0 < phi.min(initial=1.0) and phi.max(initial=1.0) <= 1.0):  # NaN fails
        if (phi == 0.0).any():
            raise DegeneratePolicyError("transmit probability is 0: node never transmits")
        bad = phi[~((0.0 < phi) & (phi <= 1.0))].flat[0]
        raise DomainError(f"transmit probability must lie in (0, 1], got {bad}")
    return phi


def offered_load(mu: float | np.ndarray, q: QueueParams) -> float | np.ndarray:
    """Utilization: arrivals per slot divided by the per-slot service rate."""
    mu = _check_phi(mu)
    return q.arrival_rate * q.slot_duration / mu


def is_stable(mu: float | np.ndarray, q: QueueParams) -> bool | np.ndarray:
    """Whether each per-slot service rate ``mu`` (unchecked) keeps the queue stable,
    within the boundary tolerance; a zero rate never does."""
    return q.arrival_rate - mu / q.slot_duration <= _BOUNDARY_TOL * q.arrival_rate


def p_delay(mu: float | np.ndarray, q: QueueParams) -> float | np.ndarray:
    """Probability a packet's queueing delay exceeds the deadline, elementwise.

    Exactly 1 on the stability boundary (service rate equals arrival
    rate); raises :class:`StabilityError` with the largest rate deficit
    when any rate lies beyond it.
    """
    mu = _check_phi(mu)
    if not is_stable(mu.min(initial=1.0), q):  # the slowest rate decides
        slowest = mu.min() / q.slot_duration
        raise StabilityError(
            f"unstable queue: service rate {slowest:.6g}/s is below "
            f"arrival rate {q.arrival_rate:.6g}/s",
            margin=q.arrival_rate - slowest,
        )
    return _p_delay(mu, q)


def _p_delay(mu: np.ndarray, q: QueueParams) -> np.ndarray:
    """:func:`p_delay` at a float array of rates in (0, 1] that keep the queue stable."""
    return np.exp(np.minimum(q.arrival_rate - mu / q.slot_duration, 0.0) * q.delay_threshold)


def p_overflow(mu: float | np.ndarray, q: QueueParams) -> float | np.ndarray:
    """Stationary probability an arriving packet finds no buffer space, elementwise.

    (1 - rho) e^-x / (1 - rho - rho expm1(-x)) with x = bn (1 - rho), written
    with exprel(z) = expm1(z) / z to pass smoothly through full load, 1 / (1 + bn).
    """
    mu = _check_phi(mu)
    if not is_stable(mu.min(initial=1.0), q):  # the slowest rate decides, as in p_delay
        worst = q.arrival_rate * q.slot_duration / mu.min()
        raise StabilityError(f"unstable queue: offered load {worst:.6g} >= 1", margin=worst - 1.0)
    return _p_overflow(offered_load(mu, q), q)


def _p_overflow(rho: np.ndarray, q: QueueParams) -> np.ndarray:
    """:func:`p_overflow` at a float array of offered loads ``rho`` that keep the queue stable."""
    bn = q.buffer_capacity_normalized
    neg_x = bn * (rho - 1.0)  # -x, exactly
    return np.exp(neg_x) / (1.0 + rho * bn * sp.exprel(neg_x))
