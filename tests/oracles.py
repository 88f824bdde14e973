"""Test-side oracles: the buffer-occupancy Markov chain behind the queue
formulas, and the per-point SINR error integral.

These reproduce ``queueing.p_overflow``, the geometric service law and
``interference.p_error`` the hard way, so the package's closed forms and
grid kernel can be checked against them.  They live with the tests
because the package itself never calls them.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.stats

from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import queueing as qn
from uavlink import specfun
from uavlink.errors import DomainError, StabilityError
from uavlink.queueing import QueueParams
from uavlink.specfun import DEFAULT_QUAD


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


def p_error_pointwise(
    main,
    main_power: float,
    main_beta: float,
    links,
    noise,
    gamma_th: float,
    num_channels: int,
    conditional: bool = True,
    quad=DEFAULT_QUAD,
    fit=None,
) -> float:
    """SINR error probability at one threshold, with its own adaptive quadrature.

    The per-point form of ``interference.p_error``: the fading density
    integrated from ``max(main_beta, x0)`` to infinity against the
    interference tail, plus the certain loss below the noise floor ``x0``.
    """
    if main_power <= 0:
        raise DomainError(f"main_power must be > 0, got {main_power}")
    if gamma_th <= 0:
        raise DomainError(f"gamma_th must be > 0, got {gamma_th}")
    if main_beta < 0:
        raise DomainError(f"main_beta must be >= 0, got {main_beta}")
    if math.isinf(main_beta):
        return 0.0
    if fit is None:
        fit = itf.fit_interference(links, num_channels, quad)
    model = main.fading
    margin_rate = main_power * main.path_loss_amplitude**2 / gamma_th
    noise_power = noise.power
    x0 = math.sqrt(noise_power / margin_rate)

    lo = max(main_beta, x0)
    certain_loss = max(0.0, ch.fading_cdf(model, lo) - ch.fading_cdf(model, main_beta))
    if isinstance(fit, itf.ZeroInterference):
        raw = certain_loss
    else:

        def integrand(x: float) -> float:
            excess = margin_rate * x * x - noise_power
            return ch.fading_pdf(model, x) * itf.interference_ccdf(fit, excess)

        raw = certain_loss + specfun.integrate(integrand, lo, math.inf, quad).value
    if not conditional:
        return min(1.0, max(0.0, raw))
    transmit_mass = 1.0 - ch.fading_cdf(model, main_beta)
    if transmit_mass <= 1e-300:
        return 0.0
    return min(1.0, max(0.0, raw / transmit_mass))
