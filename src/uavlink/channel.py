"""Link geometry, LoS probability, path loss, and small-scale fading.

The pipeline goes elevation angle -> LoS probability -> path-loss exponent
and amplitude -> fading family (Rayleigh for NLoS, Rician for LoS), ending
in the per-slot transmit probability of a threshold policy: a node sends
only when the best of its ``num_channels`` i.i.d. fading draws clears its
threshold.

The path-loss amplitude is evaluated at the carrier frequency only and
treated as flat across the sub-channels; the per-channel variation lives
entirely in the fading draws.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
import scipy.special as sp
import scipy.special.cython_special as cs

from . import specfun
from .errors import DomainError

# Propagation constant used by the path-loss amplitude (m/s).
SPEED_OF_LIGHT = 3.0e8

# The largest Rician LoS parameter b (a K-factor of 5,000, 37 dB).  The truncated moment
# series sums up to about 1.4 b^2 terms: 16,000 at b = 100, 1.4 million at b = 1,000.
# From b = 1e6 scipy's noncentral chi-square CDF returns NaN.
RICIAN_B_MAX = 100.0

# The largest Rayleigh spread omega.  A truncated moment is 0 past beta^2 = 800 omega, where the
# fourth one's beta^4 + 2 omega beta^2 + 2 omega^2 = 641,602 omega^2 is a float up to 1.67e151.
_OMEGA_MAX = 1e151

__all__ = [
    "SPEED_OF_LIGHT",
    "RICIAN_B_MAX",
    "Position",
    "EnvironmentParams",
    "FadingKind",
    "Rayleigh",
    "Rician",
    "FadingModel",
    "LinkChannel",
    "elevation_angle",
    "p_los",
    "path_loss_exponent",
    "path_loss_amplitude",
    "rician_b",
    "fading_cdf",
    "transmit_prob",
    "truncated_power_moment",
    "classify_link",
    "build_link",
]


@dataclass(frozen=True)
class Position:
    """Cartesian position in meters; finite, with altitude z non-negative."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise DomainError(f"Position coordinates must be finite, got {self.x, self.y, self.z}")
        if self.z < 0:
            raise DomainError(f"Position.z must be >= 0, got {self.z}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Environment constants of the propagation model.

    Defaults are the suburban-style values used by the bundled presets:
    logistic LoS parameters (a1, b1 per radian), Rician K-factor endpoints
    k0 at zero elevation and k_pi2 at vertical incidence, path-loss
    exponents alpha0 (ground) and alpha_pi2 (vertical), Rayleigh spread
    omega, reference distance d0, and the carrier frequency.
    """

    a1: float = 9.61
    b1: float = 9.1673
    k0: float = 1.0
    k_pi2: float = 15.0
    alpha0: float = 3.5
    alpha_pi2: float = 2.0
    omega: float = 2.0
    d0: float = 20.0
    carrier_frequency: float = 900e6

    def __post_init__(self):
        for f in fields(self):  # every field is a positive quantity
            specfun._positive(f"EnvironmentParams.{f.name}", getattr(self, f.name))
        if not self.k_pi2 >= self.k0:
            raise DomainError("EnvironmentParams: need k_pi2 >= k0 > 0")
        if not self.omega <= _OMEGA_MAX:  # the spread of every Rayleigh link
            raise DomainError(f"EnvironmentParams.omega must be <= {_OMEGA_MAX:g},"
                              f" got {self.omega}")
        if not math.sqrt(2.0 * self.k_pi2) <= RICIAN_B_MAX:  # the largest K of any link
            raise DomainError(f"EnvironmentParams.k_pi2 must be <= {RICIAN_B_MAX**2 / 2:g}"
                              f" (b = sqrt(2K) <= {RICIAN_B_MAX:g}), got {self.k_pi2}")
        if not self.alpha0 >= self.alpha_pi2 >= 2.0:
            raise DomainError("EnvironmentParams: need alpha0 >= alpha_pi2 >= 2")
        # c / (4 pi f d0) bounds every path-loss amplitude, reached at d = d0; at most 1, its
        # squares and fourth powers stay floats
        if not self.carrier_frequency * self.d0 >= SPEED_OF_LIGHT / (4.0 * math.pi):
            amplitude = SPEED_OF_LIGHT / (4.0 * math.pi) / self.carrier_frequency / self.d0
            raise DomainError("EnvironmentParams: the free-space amplitude c / (4 pi"
                              " carrier_frequency d0) at the reference distance must be <= 1,"
                              f" got {amplitude:.6g} (carrier_frequency {self.carrier_frequency:g},"
                              f" d0 {self.d0:g})")


class FadingKind(enum.Enum):
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


@dataclass(frozen=True)
class Rayleigh:
    """Rayleigh fading amplitude with spread factor omega = E[amplitude^2] <= ``_OMEGA_MAX``."""

    omega: float

    def __post_init__(self):
        if not specfun._positive("Rayleigh.omega", self.omega) <= _OMEGA_MAX:
            raise DomainError(f"Rayleigh.omega must be <= {_OMEGA_MAX:g}, got {self.omega}")


@dataclass(frozen=True)
class Rician:
    """Rician fading amplitude with line-of-sight parameter b = sqrt(2K) <= ``RICIAN_B_MAX``."""

    b: float

    def __post_init__(self):
        if not specfun._nonnegative("Rician.b", self.b) <= RICIAN_B_MAX:
            raise DomainError(f"Rician.b must be finite, >= 0 and <= {RICIAN_B_MAX:g}, got {self.b}")


FadingModel = Rayleigh | Rician


@dataclass(frozen=True)
class LinkChannel:
    """Resolved channel of one link: fading family plus path-loss amplitude."""

    fading: FadingModel
    path_loss_amplitude: float

    def __post_init__(self):
        specfun._positive("LinkChannel.path_loss_amplitude", self.path_loss_amplitude)


def elevation_angle(a: Position, b: Position) -> float:
    """Elevation angle between two positions, in [0, pi/2].

    Returns pi/2 for vertically stacked endpoints and raises for
    coincident ones.
    """
    dv = abs(a.z - b.z)
    dh = math.hypot(a.x - b.x, a.y - b.y)
    if dv == 0.0 and dh == 0.0:
        raise DomainError("elevation_angle: positions coincide")
    if dh == 0.0:
        return math.pi / 2
    return math.atan2(dv, dh)


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2:
        raise DomainError(f"elevation must lie in [0, pi/2], got {theta}")
    return theta


def p_los(theta: float, env: EnvironmentParams) -> float:
    """Line-of-sight probability, a logistic curve in the elevation angle."""
    theta = _check_theta(theta)
    return 1.0 / (1.0 + env.a1 * math.exp(-env.b1 * theta))


def path_loss_exponent(theta: float, env: EnvironmentParams) -> float:
    """Elevation-dependent path-loss exponent, between alpha_pi2 and alpha0."""
    theta = _check_theta(theta)
    return env.alpha0 + (env.alpha_pi2 - env.alpha0) * p_los(theta, env)


def path_loss_amplitude(d: float, theta: float, env: EnvironmentParams) -> float:
    """Square root of the single-slope path-loss gain at distance d >= d0 (d^alpha a float)."""
    if d < env.d0:
        raise DomainError(
            f"path_loss_amplitude: distance {d} is below reference distance {env.d0}"
        )
    alpha = path_loss_exponent(theta, env)
    scale = SPEED_OF_LIGHT / (4.0 * math.pi * env.carrier_frequency)
    try:
        spread = d**alpha
    except OverflowError:  # d0 <= d, so d0^(alpha - 2) is a float whenever d^alpha is
        raise DomainError(f"path_loss_amplitude: distance {d} to the power {alpha:.6g}"
                          " is beyond the float range") from None
    return scale * math.sqrt(env.d0 ** (alpha - 2.0) / spread)


def rician_b(theta: float, env: EnvironmentParams) -> float:
    """Line-of-sight fading parameter b = sqrt(2 K(theta)).

    K grows exponentially in elevation from k0 at theta=0 to k_pi2 at
    theta=pi/2.
    """
    theta = _check_theta(theta)
    # at most k_pi2, which rounding can pass and RICIAN_B_MAX would then reject
    k_factor = min(env.k0 * (env.k_pi2 / env.k0) ** (2.0 * theta / math.pi), env.k_pi2)
    return math.sqrt(2.0 * k_factor)


def _pdf(model: FadingModel, x: np.ndarray) -> np.ndarray:
    """Density of the fading amplitude at a float or elementwise over an array of x >= 0.

    Unchecked; the callers keep x in range.  The Rician branch is the
    exponentially-scaled form x * exp(-(x-b)^2/2) * i0e(xb), which stays
    finite for all x.
    """
    if isinstance(model, Rayleigh):
        return (2.0 * x / model.omega) * np.exp(-x * x / model.omega)
    diff = x - model.b
    return x * np.exp(-0.5 * diff * diff) * sp.i0e(x * model.b)


def _pdf_and_slope(model: FadingModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pdf` and its slope in x, unchecked like it, sharing one exponential and ``i0e``."""
    if isinstance(model, Rayleigh):
        om = model.omega
        gauss = np.exp(-x * x / om)
        return (2.0 * x / om) * gauss, (2.0 / om) * gauss * (1.0 - 2.0 * x * x / om)
    diff, xb = x - model.b, x * model.b
    gauss, i0 = np.exp(-0.5 * diff * diff), sp.i0e(xb)
    return x * gauss * i0, gauss * ((1.0 - x * x) * i0 + xb * sp.i1e(xb))


def fading_cdf(model: FadingModel, beta: float | np.ndarray) -> float | np.ndarray:
    """Probability that the fading amplitude falls below each ``beta`` >= 0 (1 at +inf)."""
    return _cdf(model, specfun._nonnegative_grid("fading_cdf: beta", beta))


def _cdf(model: FadingModel, beta: float | np.ndarray) -> float | np.ndarray:
    """:func:`fading_cdf` at a float or a float array of thresholds already checked.

    A Rician F is 1 - Q1(b, beta) in the first-order Marcum Q-function: a noncentral
    chi-square survival (two degrees of freedom, noncentrality b^2) at beta^2.  A Rician
    float takes scipy's C kernel and ``max``, without the ufunc's dispatch, and a Rayleigh
    float ``np.expm1``: either gives its one-element grid's value bit for bit.
    """
    # Q1 is exactly 1 at beta = 0, where the chi-square CDF is 0; roundoff below 0 is clipped
    if isinstance(beta, float):
        if isinstance(model, Rayleigh):
            return -float(np.expm1(-beta * beta / model.omega))
        return 1.0 - max(1.0 - cs.chndtr(beta * beta, 2.0, model.b * model.b), 0.0)
    with np.errstate(over="ignore"):  # a threshold squared beyond the float range: F is 1
        if isinstance(model, Rayleigh):
            return -np.expm1(-beta * beta / model.omega)
        return 1.0 - np.maximum(1.0 - sp.chndtr(beta * beta, 2.0, model.b * model.b), 0.0)


def transmit_prob(
    model: FadingModel, beta: float | np.ndarray, num_channels: int
) -> float | np.ndarray:
    """Probability the best of ``num_channels`` i.i.d. draws clears ``beta``, elementwise."""
    specfun._count("transmit_prob: num_channels", num_channels, 1)
    return 1.0 - fading_cdf(model, beta) ** num_channels


def truncated_power_moment(model: FadingModel, beta: float) -> tuple[float, float]:
    """(E[X^2; X >= beta], E[X^4; X >= beta]) of the fading amplitude X, from one call.

    Rayleigh has closed forms, and so does Rician(0), which is Rayleigh(2);
    any other Rician sums a Poisson mixture of Gamma tails.  Past e^-800 in the tail's factor,
    e^-(beta - b)^2/2 above b or e^-beta^2/omega, out of the double range, both moments are 0.
    """
    beta = specfun._nonnegative("truncated_power_moment: beta", beta)
    if isinstance(model, Rician) and model.b > 0.0:
        if beta - model.b > 40.0:  # (beta - b)^2 / 2 > 800, inf too
            return 0.0, 0.0
        return _rician_truncated_moment(model.b, beta)
    om = model.omega if isinstance(model, Rayleigh) else 2.0
    u = beta * beta / om
    if u > 800.0:  # inf too
        return 0.0, 0.0
    tail = math.exp(-u)
    return (beta * beta + om) * tail, (beta**4 + 2.0 * om * beta * beta + 2.0 * om * om) * tail


@lru_cache(maxsize=8192)
def _rician_truncated_moment(b: float, beta: float) -> tuple[float, float]:
    """E[X^2m; X >= beta] = 2^m sum_j w_j (j+1)...(j+m) Q(j+1+m, t) for m = 1 and 2.

    X^2 is noncentral chi-square (2 degrees of freedom, noncentrality b^2): a
    mixture of central ones with 2 + 2j, by Poisson(lam = b^2/2) weights w_j
    (Johnson, Kotz & Balakrishnan, vol. 2, ch. 29), with t = beta^2/2.  As
    Gamma(a+1, t) <= (a+t) Gamma(a, t), term j+1 is at most lam (j+1+m+t)/(j+1)^2
    times term j; 53 terms past the first j where that is 1/2, the positive terms
    left out sum to under 2^-53 of the total.  The orders share w_j and Q(2..n+2, t),
    and each sums its own prefix.  Cached: sweeps revisit (b, beta).
    """
    lam, t = 0.5 * b * b, 0.5 * beta * beta
    n2, n4 = (math.ceil(lam + math.sqrt(lam * lam + 2.0 * lam * (m + t))) + 53 for m in (1, 2))
    j = np.arange(float(n4))
    weights = np.exp(sp.xlogy(j, lam) - lam - sp.gammaln(j + 1.0))
    tails = sp.gammaincc(np.arange(2.0, n4 + 3.0), t)
    return (float(2 * np.sum(weights[:n2] * (j[:n2] + 1.0) * tails[:n2])),
            float(4 * np.sum(weights * ((j + 1.0) * (j + 2.0)) * tails[1:])))


def classify_link(
    a: Position,
    b: Position,
    env: EnvironmentParams,
    override: FadingKind | None = None,
) -> FadingModel:
    """Pick the fading family of a link: Rician when LoS is likely, else Rayleigh.

    The decision is deterministic (LoS probability >= 1/2) so that repeated
    runs of a scenario see identical channels; ``override`` forces a family
    regardless of geometry.
    """
    theta = elevation_angle(a, b)
    kind = override
    if kind is None:
        kind = FadingKind.RICIAN if p_los(theta, env) >= 0.5 else FadingKind.RAYLEIGH
    if kind is FadingKind.RICIAN:
        return Rician(b=rician_b(theta, env))
    return Rayleigh(omega=env.omega)


def build_link(
    a: Position,
    b: Position,
    env: EnvironmentParams,
    override: FadingKind | None = None,
) -> LinkChannel:
    """Resolve the full channel (fading + path loss) between two positions."""
    dist = math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))
    return LinkChannel(
        fading=classify_link(a, b, env, override),
        path_loss_amplitude=path_loss_amplitude(dist, elevation_angle(a, b), env),
    )
