"""Aggregate interference model and the SINR transmission-error probability.

The interference observed on the main link's channel is a random sum over
interferers that happen to transmit and land on the same channel.  Its
first two moments have closed forms in the fading truncated moments; a
Gamma law matched to those moments stands in for the full distribution,
and the error probability integrates the main link's fading density
against the Gamma tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import channel, specfun
from .channel import FadingModel, LinkChannel
from .errors import (
    DegenerateInterferenceError,
    DomainError,
    NumericalConsistencyError,
)
from .specfun import DEFAULT_QUAD, QuadratureSpec

__all__ = [
    "InterfererLink",
    "GammaFit",
    "ZeroInterference",
    "ZERO_INTERFERENCE",
    "NoiseModel",
    "interference_moments",
    "fit_gamma",
    "fit_interference",
    "interference_pdf",
    "interference_ccdf",
    "p_error",
]


@dataclass(frozen=True)
class InterfererLink:
    """One interferer as seen by the destination: power, path loss, fading, policy."""

    transmit_power: float
    path_loss_amplitude: float
    fading: FadingModel
    beta: float

    def __post_init__(self):
        if self.transmit_power <= 0:
            raise DomainError("InterfererLink.transmit_power must be > 0")
        if self.path_loss_amplitude <= 0:
            raise DomainError("InterfererLink.path_loss_amplitude must be > 0")
        if self.beta < 0:
            raise DomainError("InterfererLink.beta must be >= 0")


@dataclass(frozen=True)
class GammaFit:
    """Shape/scale of the moment-matched Gamma interference law."""

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise DomainError("GammaFit: shape and scale must be > 0")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale


class ZeroInterference:
    """Marker distribution for an identically-zero interference sum."""

    def __repr__(self) -> str:  # pragma: no cover
        return "ZeroInterference()"


ZERO_INTERFERENCE = ZeroInterference()


@dataclass(frozen=True)
class NoiseModel:
    """Thermal noise: power = boltzmann * temperature * bandwidth."""

    boltzmann: float = 1.38e-23
    temperature: float = 290.0
    bandwidth: float = 1e6

    def __post_init__(self):
        if self.boltzmann <= 0 or self.temperature <= 0 or self.bandwidth <= 0:
            raise DomainError("NoiseModel fields must all be > 0")

    @property
    def power(self) -> float:
        return self.boltzmann * self.temperature * self.bandwidth


def _term_mean(link: InterfererLink, num_channels: int, quad: QuadratureSpec) -> float:
    t2 = channel.truncated_power_moment(link.fading, link.beta, 2, quad)
    phi = channel.transmit_prob(link.fading, link.beta, num_channels)
    gain = link.path_loss_amplitude**2
    return link.transmit_power * gain * t2 * phi / num_channels


def _term_second_moment(link: InterfererLink, num_channels: int, quad: QuadratureSpec) -> float:
    t4 = channel.truncated_power_moment(link.fading, link.beta, 4, quad)
    phi = channel.transmit_prob(link.fading, link.beta, num_channels)
    gain = link.path_loss_amplitude**4
    return (link.transmit_power**2) * gain * t4 * (phi / num_channels) ** 2


def interference_moments(
    links: Sequence[InterfererLink],
    num_channels: int,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> tuple[float, float]:
    """Mean and variance of the aggregate interference on the observed channel.

    Each interferer contributes its truncated second fading moment scaled
    by its transmit probability and the 1/num_channels chance of landing on
    the observed channel.  The variance is accumulated per term (the cross
    terms of the expanded square cancel against the squared mean exactly,
    so the per-term form is the numerically stable equivalent).
    """
    if num_channels < 1:
        raise DomainError(f"num_channels must be >= 1, got {num_channels}")
    mean = 0.0
    variance = 0.0
    second_sum = 0.0
    for link in links:
        e = _term_mean(link, num_channels, quad)
        s = _term_second_moment(link, num_channels, quad)
        mean += e
        variance += s - e * e
        second_sum += s
    if variance < 0.0:
        if variance < -1e-15 * max(second_sum, 1e-300):
            raise NumericalConsistencyError(
                f"interference variance {variance:.3e} is negative beyond "
                "cancellation tolerance"
            )
        variance = 0.0
    return mean, variance


def fit_gamma(mean: float, variance: float) -> GammaFit:
    """Moment-match a Gamma law: shape*scale = mean, shape*scale^2 = variance."""
    if mean <= 0.0 or variance <= 0.0:
        raise DegenerateInterferenceError(
            f"cannot fit Gamma to mean={mean:.3e}, variance={variance:.3e}; "
            "use the zero-interference path"
        )
    return GammaFit(shape=mean * mean / variance, scale=variance / mean)


def fit_interference(
    links: Sequence[InterfererLink],
    num_channels: int,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> GammaFit | ZeroInterference:
    """Moment-match the interferer set, falling back to the zero distribution."""
    mean, variance = interference_moments(links, num_channels, quad)
    if mean <= 0.0 or variance <= 0.0:
        return ZERO_INTERFERENCE
    return fit_gamma(mean, variance)


def interference_pdf(fit: GammaFit | ZeroInterference, x: float) -> float:
    """Density of the fitted interference law at x (zero for the empty sum)."""
    if isinstance(fit, ZeroInterference):
        return 0.0
    if x <= 0.0:
        return 0.0
    k, th = fit.shape, fit.scale
    # log form avoids overflow of Gamma(k) and x**(k-1) separately
    log_pdf = (k - 1.0) * math.log(x) - x / th - math.lgamma(k) - k * math.log(th)
    return math.exp(log_pdf)


def interference_ccdf(fit: GammaFit | ZeroInterference, x: float) -> float:
    """P[interference > x]; equals 1 for any x < 0 since interference >= 0."""
    if isinstance(fit, ZeroInterference):
        return 1.0 if x < 0.0 else 0.0
    if x <= 0.0:
        return 1.0
    return specfun.regularized_gamma_upper(fit.shape, x / fit.scale)


def p_error(
    main: LinkChannel,
    main_power: float,
    main_beta: float,
    links: Sequence[InterfererLink],
    noise: NoiseModel,
    gamma_th: float,
    num_channels: int,
    conditional: bool = True,
    quad: QuadratureSpec = DEFAULT_QUAD,
    fit: GammaFit | ZeroInterference | None = None,
) -> float:
    """Probability a transmitted packet fails the SINR threshold.

    Integrates the main link's fading density from ``main_beta`` upward
    against the interference tail evaluated at the power the packet can
    afford to lose.  Where the signal cannot clear the threshold even with
    zero interference the tail is pinned at 1.  With ``conditional`` the
    integral is normalized by the probability of transmitting at all, so
    the result composes with the queue-drop probabilities; the raw,
    unnormalized integral is kept available for comparison.  Passing a
    precomputed ``fit`` skips re-matching the interferer moments (the fit
    does not depend on ``main_beta``).
    """
    if main_power <= 0:
        raise DomainError(f"main_power must be > 0, got {main_power}")
    if gamma_th <= 0:
        raise DomainError(f"gamma_th must be > 0, got {gamma_th}")
    if main_beta < 0:
        raise DomainError(f"main_beta must be >= 0, got {main_beta}")
    if math.isinf(main_beta):
        return 0.0  # silenced link: no transmissions, no transmission errors
    if fit is None:
        fit = fit_interference(links, num_channels, quad)
    model = main.fading
    margin_rate = main_power * main.path_loss_amplitude**2 / gamma_th
    noise_power = noise.power
    # below x0 the SINR fails even with zero interference
    x0 = math.sqrt(noise_power / margin_rate)

    lo = max(main_beta, x0)
    certain_loss = max(0.0, channel.fading_cdf(model, lo) - channel.fading_cdf(model, main_beta))
    if isinstance(fit, ZeroInterference):
        raw = certain_loss
    else:

        def integrand(x: float) -> float:
            excess = margin_rate * x * x - noise_power
            return channel.fading_pdf(model, x) * interference_ccdf(fit, excess)

        raw = certain_loss + specfun.integrate(integrand, lo, math.inf, quad).value
    if not conditional:
        return min(1.0, max(0.0, raw))
    transmit_mass = 1.0 - channel.fading_cdf(model, main_beta)
    if transmit_mass <= 1e-300:
        return 0.0
    return min(1.0, max(0.0, raw / transmit_mass))
