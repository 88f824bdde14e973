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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.special.cython_special as cs

from . import channel, specfun
from .channel import FadingModel, LinkChannel, Rician
from .errors import DegenerateInterferenceError, NumericalConsistencyError
from .specfun import DEFAULT_QUAD

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
    "noise_floor",
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
        specfun._positive("InterfererLink.transmit_power", self.transmit_power)
        specfun._positive("InterfererLink.path_loss_amplitude", self.path_loss_amplitude)
        # stored as a float; inf silences the interferer
        object.__setattr__(self, "beta", specfun._nonnegative("InterfererLink.beta", self.beta))


@dataclass(frozen=True)
class GammaFit:
    """Shape/scale of the moment-matched Gamma interference law."""

    shape: float
    scale: float

    def __post_init__(self):
        specfun._positive("GammaFit.shape", self.shape)
        specfun._positive("GammaFit.scale", self.scale)

    @cached_property
    def _tail(self) -> Callable:
        """Q(shape, .) bound once (:func:`specfun.gamma_tail`): P[interference > x] at x / scale."""
        return specfun.gamma_tail(self.shape)


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
        for name in ("boltzmann", "temperature", "bandwidth"):
            specfun._positive(f"NoiseModel.{name}", getattr(self, name))

    @property
    def power(self) -> float:
        return self.boltzmann * self.temperature * self.bandwidth


def interference_moments(
    links: Sequence[InterfererLink], num_channels: int
) -> tuple[float, float]:
    """Mean and variance of the aggregate interference on the observed channel."""
    specfun._count("num_channels", num_channels, 1)
    return _summed(_link_terms(link, num_channels) for link in links)


def _link_terms(link: InterfererLink, num_channels: int) -> tuple[float, float]:
    """One interferer's mean and second moment on the observed channel.

    Both are its truncated fading moments scaled by its transmit probability
    and the 1/num_channels chance of landing on the observed channel.
    """
    t2, t4 = (channel.truncated_power_moment(link.fading, link.beta, p) for p in (2, 4))
    phi = 1.0 - channel._cdf(link.fading, link.beta) ** num_channels
    power, gain = link.transmit_power, link.path_loss_amplitude
    e = power * gain**2 * t2 * phi / num_channels
    return e, (power**2) * gain**4 * t4 * (phi / num_channels) ** 2


def _summed(terms: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Mean and variance of a sum of independent terms given as ``(mean, second moment)``.

    The variance is accumulated per term (the cross terms of the expanded
    square cancel against the squared mean exactly, so the per-term form is
    the numerically stable equivalent).
    """
    mean = variance = second_sum = 0.0
    for e, s in terms:
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
    links: Sequence[InterfererLink], num_channels: int
) -> GammaFit | ZeroInterference:
    """Moment-match the interferer set, falling back to the zero distribution."""
    return _fitted(*interference_moments(links, num_channels))


def _fitted(mean: float, variance: float) -> GammaFit | ZeroInterference:
    """:func:`fit_gamma`, or the zero distribution where either moment is not positive."""
    if mean <= 0.0 or variance <= 0.0:
        return ZERO_INTERFERENCE
    return fit_gamma(mean, variance)


def interference_pdf(fit: GammaFit | ZeroInterference, x: float | np.ndarray):
    """Density of the fitted interference law at x, elementwise over an array.

    Zero for the empty sum and for x <= 0.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(fit, ZeroInterference):
        return np.zeros_like(x)[()]
    k, th = fit.shape, fit.scale
    positive = x > 0.0
    safe = np.where(positive, x, 1.0)
    # log form avoids overflow of Gamma(k) and x**(k-1) separately
    log_pdf = (k - 1.0) * np.log(safe) - safe / th - math.lgamma(k) - k * math.log(th)
    return np.where(positive, np.exp(log_pdf), 0.0)[()]


def interference_ccdf(fit: GammaFit | ZeroInterference, x: float | np.ndarray):
    """P[interference > x], elementwise over an array.

    Equals 1 for any x < 0, since interference >= 0.
    """
    if isinstance(fit, ZeroInterference):
        return np.where(np.asarray(x) < 0.0, 1.0, 0.0)[()]
    return fit._tail(np.maximum(np.asarray(x) / fit.scale, 0.0))[()]


# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK qk15; Piessens et al., 1983):
# the 15 Kronrod nodes, their weights, and the weights of the 7-point Gauss
# rule embedded at every other node (zero elsewhere).
_GK15_HALF = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_GK15_CENTRE = (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
_GK15 = np.array([*((-x, wk, wg) for x, wk, wg in _GK15_HALF), _GK15_CENTRE,
                  *reversed(_GK15_HALF)])
_GK15_NODES, _GK15_KRONROD, _GK15_GAUSS = _GK15.T


# A first panel of width w from the noise floor x0 is cut at x0 + w 2^-j,
# j = 1..20: there the tail Q(k, c (x^2 - x0^2)) with shape k < 1 has an
# unbounded slope that one 15-point panel cannot resolve.  On example.yaml
# placements 10 cuts already pass every such panel; a panel that still fails
# falls back to the adaptive quadrature like any other.
_FLOOR_GRADING = 0.5 ** np.arange(20.0, 0.0, -1.0)


# The tail above a scan's largest limit a as panels in t, x = a + t / (1 - t): their widths,
# and at GK15's nodes mapped onto [0, 1] the offsets t / (1 - t) and the (1 - t)^2 = dt / dx.
_TAIL_EDGES, _GK15_UNIT = np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 0.5 * (1.0 + _GK15_NODES)
_TAIL_WIDTHS = np.diff(_TAIL_EDGES)
_TAIL_T = _TAIL_EDGES[:-1, None] + _TAIL_WIDTHS[:, None] * _GK15_UNIT
_TAIL_OFFSETS, _TAIL_DIVISORS = _TAIL_T / (1.0 - _TAIL_T), (1.0 - _TAIL_T) ** 2


# Below shape 1, scipy's gammaincc is slow for x in roughly (0.1, 1.1): up to
# 7 us per element against under 0.3 us elsewhere.  In this band the float
# integrand takes the tail one shape up instead, by Q(k, x) = Q(k+1, x) -
# x^k e^-x / Gamma(k+1) (DLMF 8.8.6), within 4e-15 absolute and 8e-13 relative
# of mpmath: the values the pinned sweep references were taken with.
_RECURRENCE_BAND = (0.1, 2.0)


def _tail_integrand(model: FadingModel, fit: GammaFit, margin_rate: float, noise_power: float):
    """The error integrand at one float x, bound to the fading family and the Gamma shape.

    One closure with :func:`channel._pdf` and the Gamma tail inlined in ``math`` and
    scipy's C kernels, which return what the ufuncs return: a quadrature node pays no
    numpy dispatch, type test or nested call.
    """
    rician = isinstance(model, Rician)
    b, om = (model.b, 0.0) if rician else (0.0, model.omega)
    k, scale = fit.shape, fit.scale
    # from shape 1 the band is empty, and one comparison rules a node out of it
    lo, hi = _RECURRENCE_BAND if k < 1.0 else (math.inf, math.inf)
    k1, log_norm = k + 1.0, math.lgamma(k + 1.0)
    exp, log, gammaincc, i0e = math.exp, math.log, cs.gammaincc, cs.i0e

    def integrand(x: float) -> float:
        if rician:
            d = x - b
            pdf = x * exp(-0.5 * d * d) * i0e(x * b)
        else:
            pdf = (2.0 * x / om) * exp(-x * x / om)
        excess = margin_rate * x * x - noise_power  # the tail is 1 where this is <= 0
        if not excess > 0.0:
            return pdf
        z = excess / scale
        if lo < z < hi:
            return pdf * (gammaincc(k1, z) - exp(k * log(z) - z - log_norm))
        return pdf * gammaincc(k, z)

    return integrand


def _error_grid(main: LinkChannel, main_power: float, noise: NoiseModel, gamma_th: float,
                flat: np.ndarray, cdf: np.ndarray, *, scan: bool) -> Callable:
    """:func:`p_error` at the flat thresholds ``flat``, as a function of the interference law.

    The main link alone fixes the noise floor x0 (:func:`noise_floor`, which
    checks the power and the SINR threshold), the margin rate, the fading CDF
    at x0, the certain loss below x0, the transmit mass and the quadrature
    layout, so they are computed once.  The caller checked the thresholds
    and gives their fading CDF ``cdf``.  As *points*,
    each distinct limit max(beta, x0) gets its own adaptive quadrature of
    :func:`_tail_integrand` up to infinity at the whole ``DEFAULT_QUAD``, so a
    grid of k points is its k grids of one, bit for bit.  As a ``scan``, each
    gap between consecutive limits is a bin of one Gauss-Kronrod 7-15 panel
    (the one from x0 graded by ``_FLOOR_GRADING``), and the tail above the
    largest limit is one more, of panels in t at ``_TAIL_EDGES``; all are
    evaluated in one array pass, and a reversed cumulative sum of the bins
    gives every limit's integral.  The bins share the absolute tolerance
    equally; a scan of one limit is its point.  Both read ``DEFAULT_QUAD`` at
    the call.  A bin has not resolved the density when its Kronrod rule,
    applied to the density alone, misses the bin's mass in closed form,
    F(stop) - F(start), by more than its share: one panel over a gap much
    wider than the density can see only where it underflows.  Such a bin's
    start, and that of a bin whose Kronrod-Gauss difference exceeds its
    share, takes the adaptive integral up to infinity instead, so an
    :class:`AccuracyError` is raised rather than an inaccurate value
    returned.  The returned function takes the law.
    """
    model, noise_power = main.fading, noise.power
    x0 = noise_floor(main, main_power, noise, gamma_th)
    margin_rate, cdf_floor = _margin_rate(main, main_power, gamma_th), channel._cdf(model, x0)
    lo = np.maximum(flat, x0)
    # a silenced threshold integrates nothing
    limits = np.array(sorted(set(lo.tolist()) - {math.inf}))
    index = np.searchsorted(limits, lo)
    certain, mass = np.maximum(0.0, cdf_floor - cdf) * (flat < x0), 1.0 - cdf
    quad = DEFAULT_QUAD
    scan = scan and len(limits) > 1
    if scan:
        quad = replace(quad, absolute_tolerance=quad.absolute_tolerance / len(limits))
        start, stop = limits[:-1], limits[1:]
        panel = np.arange(len(start))
        if start[0] == x0:
            cuts = start[0] + (stop[0] - start[0]) * _FLOOR_GRADING
            start = np.concatenate(([start[0]], cuts, start[1:]))
            stop = np.concatenate((cuts, stop))
            panel = np.concatenate((np.zeros(len(cuts), int), panel))
        # the tail above the largest limit is the last bin, on the panels in t of _TAIL_T
        width = stop - start
        # start + width * u with u in [0, 1] never falls below start
        x = np.concatenate((start[:, None] + width[:, None] * _GK15_UNIT,
                            limits[-1] + _TAIL_OFFSETS))
        with np.errstate(over="ignore"):  # x * x beyond the float range: a density of 0
            # the tail is 1 where the affordable power is not positive
            excess = np.maximum(margin_rate * x * x - noise_power, 0.0)
            pdf = channel._pdf(model, x)
        pdf[len(width):] /= _TAIL_DIVISORS
        panel = np.append(panel, np.full(len(_TAIL_WIDTHS), len(limits) - 1))
        half, ends = 0.5 * np.append(width, _TAIL_WIDTHS), np.append(limits, math.inf)
        # each bin's density mass by F at its ends, max(F(beta), F(x0)) at a limit and 1 at
        # infinity: a bin whose Kronrod rule misses it has not resolved the density
        at = np.ones(len(ends))
        at[index] = np.maximum(cdf, cdf_floor)
        missed = np.abs(np.bincount(panel, half * (pdf @ _GK15_KRONROD)) - np.diff(at))
        unresolved = ~(missed <= np.maximum(quad.absolute_tolerance,
                                            quad.relative_tolerance * np.diff(at)))

    def price(fit: GammaFit | ZeroInterference) -> np.ndarray:
        raw = certain
        if limits.size and isinstance(fit, GammaFit):
            integrand = _tail_integrand(model, fit, margin_rate, noise_power)
            if not scan:  # the integral above each limit
                integrals = np.array([specfun.integrate(integrand, limit, math.inf, quad).value
                                      for limit in limits.tolist()])
            else:  # the integral over each bin, then above each limit
                values = pdf * fit._tail(excess / fit.scale)
                kronrod = half * (values @ _GK15_KRONROD)
                error = np.bincount(panel, np.abs(kronrod - half * (values @ _GK15_GAUSS)))
                kronrod = np.bincount(panel, kronrod)
                tolerance = np.maximum(quad.absolute_tolerance,
                                       quad.relative_tolerance * np.abs(kronrod))
                integrals = np.cumsum(kronrod[::-1])[::-1]
                # from the top, each failed bin's start takes the adaptive integral above it (a
                # finite range as wide as the bin could miss the density as its panel did)
                for i in np.flatnonzero(unresolved | ~(error <= tolerance))[::-1].tolist():
                    above = specfun.integrate(integrand, ends[i], math.inf, quad).value
                    integrals[:i + 1] += above - integrals[i]
            # each threshold's limit, and nothing above a silenced one
            raw = certain + np.append(integrals, 0.0)[index]
        # normalise by the transmit mass; a silenced link has no transmission errors
        raw = np.divide(raw, mass, out=np.zeros(raw.shape), where=mass > 1e-300)
        return np.minimum(np.maximum(raw, 0.0), 1.0)

    return price


def p_error(
    main: LinkChannel,
    main_power: float,
    main_beta: float | np.ndarray,
    noise: NoiseModel,
    gamma_th: float,
    *,
    fit: GammaFit | ZeroInterference,
) -> float | np.ndarray:
    """Probability a transmitted packet fails the SINR threshold, at each threshold.

    ``main_beta`` is one threshold (the result is a float) or an array of
    them (the result is an array of the same shape).  Integrates the main
    link's fading density from each threshold upward against the tail of
    the interference law ``fit`` (:func:`fit_interference`) at the power
    the packet can afford to lose.  Below the noise floor x0
    (:func:`noise_floor`) the tail is pinned at 1, a certain loss
    F(x0) - F(beta) in the fading CDF F.  The fit does not depend on the
    threshold, so the whole grid, its tail included, costs one vectorized
    panel rule (see :func:`_error_grid`, which derives x0 from these
    arguments).  The integral is
    normalized by the transmit mass 1 - F(beta), so the result composes
    with the queue-drop probabilities.  An infinite threshold (a silenced
    link) has no transmissions and no errors.
    """
    betas = np.asarray(specfun._nonnegative_grid("main_beta", main_beta), dtype=float)
    flat = betas.ravel()
    price = _error_grid(main, main_power, noise, gamma_th, flat,
                        channel._cdf(main.fading, flat), scan=True)
    return price(fit).reshape(betas.shape)[()]


def noise_floor(main: LinkChannel, main_power: float, noise: NoiseModel, gamma_th: float) -> float:
    """The amplitude x0 below which the main link fails its SINR threshold without interference.

    Raises ``DomainError`` unless ``main_power`` and ``gamma_th`` are positive quantities.
    """
    specfun._positive("main_power", main_power)
    specfun._positive("gamma_th", gamma_th)
    return math.sqrt(noise.power / _margin_rate(main, main_power, gamma_th))


def _margin_rate(main: LinkChannel, main_power: float, gamma_th: float) -> float:
    """P L^2 / gamma_th: at fading amplitude x the main link affords interference
    power ``margin_rate * x**2`` less the noise power."""
    return main_power * main.path_loss_amplitude**2 / gamma_th
