"""Test-side oracles: the buffer-occupancy Markov chain behind the queue formulas.

These reproduce ``queueing.p_overflow`` and the geometric service law the
hard way, so the closed forms can be checked against them.  They live with
the tests because the package itself never calls them.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.stats

from uavlink import queueing as qn
from uavlink.errors import DomainError, StabilityError
from uavlink.queueing import QueueParams


def slots_to_transmit_pmf(phi: float, k: int) -> float:
    """Geometric probability that the first successful slot is slot ``k``."""
    phi = qn.service_rate(phi)  # rejects a policy that never transmits
    if k < 1:
        raise DomainError(f"slot count must be >= 1, got {k}")
    return (1.0 - phi) ** (k - 1) * phi


def overflow_transition_prob(i: int, q: QueueParams) -> float:
    """Probability an arrival overflows the buffer when ``i`` packets are stored.

    With i.i.d. unit-mean exponential lengths, the stored total given that
    ``i`` packets fit is a conditioned Erlang, and the overflow chance is the
    Poisson point mass at ``i`` over the Poisson tail from ``i``.
    """
    if i < 0:
        raise DomainError(f"state index must be >= 0, got {i}")
    bn = q.buffer_capacity_normalized
    tail = scipy.stats.poisson.sf(i - 1, bn)  # P[N >= i]
    if tail <= 0.0:
        return 1.0
    return float(scipy.stats.poisson.pmf(i, bn) / tail)


def state_distribution(mu: float, q: QueueParams, max_states: int = 100_000) -> np.ndarray:
    """Stationary distribution of the buffer occupancy Markov chain.

    Truncated at the first state where the geometric tail bound drops
    below 1e-12, capped at ``max_states``.
    """
    rho = qn.offered_load(mu, q)
    if rho >= 1.0:
        raise StabilityError(
            f"unstable queue: offered load {rho:.6g} >= 1", margin=rho - 1.0
        )
    bn = q.buffer_capacity_normalized
    slack = 1.0 - rho
    p0 = slack / (slack - rho * math.expm1(-bn * slack))
    probs = [p0]
    rho_pow = 1.0
    for i in range(1, max_states):
        rho_pow *= rho
        if p0 * rho_pow / slack < 1e-12:
            break
        tail = float(scipy.stats.poisson.sf(i - 1, bn))  # P[N >= i]
        probs.append(p0 * rho_pow * tail)
    return np.asarray(probs)
