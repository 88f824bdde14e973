"""Special functions and adaptive quadrature used throughout the package.

Thin, contract-enforcing wrappers around scipy's well-tested kernels.
Every function is pure and thread-safe; no table interpolation anywhere,
so repeated calls are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.integrate
import scipy.special as sp

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "IntegrationResult",
    "bessel_i0_scaled",
    "marcum_q1",
    "regularized_gamma_upper",
    "erfinv",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    absolute_tolerance: float = 1e-10
    relative_tolerance: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.absolute_tolerance > 0 and self.relative_tolerance > 0):
            raise DomainError("QuadratureSpec tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("QuadratureSpec.max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


class IntegrationResult(NamedTuple):
    value: float
    error: float


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x): the overflow-free form used inside fading densities."""
    x = _require_finite("bessel_i0_scaled argument", x)
    if x < 0:
        raise DomainError(f"bessel_i0_scaled argument must be >= 0, got {x}")
    return float(sp.i0e(x))


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q1(a, b).

    Evaluated through the noncentral chi-square survival function with two
    degrees of freedom and noncentrality a**2, which scipy computes to well
    below 1e-10 absolute error over the range used here.
    """
    a = _require_finite("marcum_q1 a", a)
    b = _require_finite("marcum_q1 b", b)
    if a < 0 or b < 0:
        raise DomainError(f"marcum_q1 arguments must be >= 0, got a={a}, b={b}")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    q = 1.0 - float(sp.chndtr(b * b, 2.0, a * a))
    # clip roundoff excursions outside [0, 1]
    return min(1.0, max(0.0, q))


def regularized_gamma_upper(k: float, x: float | np.ndarray) -> float | np.ndarray:
    """Regularized upper incomplete gamma Q(k, x) = 1 - gamma(k, x)/Gamma(k).

    Elementwise over an array ``x``; any x < 0 gives 1, the value at 0.
    """
    if k <= 0:
        raise DomainError(f"regularized_gamma_upper requires k > 0, got {k}")
    return sp.gammaincc(k, np.maximum(x, 0.0))


def erfinv(y: float) -> float:
    y = _require_finite("erfinv argument", y)
    if not -1.0 < y < 1.0:
        raise DomainError(f"erfinv argument must lie in (-1, 1), got {y}")
    return float(sp.erfinv(y))


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Adaptive quadrature of ``f`` over (lo, hi]; ``hi`` may be +inf.

    Semi-infinite ranges are mapped by scipy's internal variable transform.
    Returns the value together with the achieved error estimate; raises
    :class:`AccuracyError` (carrying the best estimate) when the requested
    tolerances cannot be met within the subdivision budget.
    """
    if not (lo < hi):
        raise DomainError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    value, abserr, *extra = scipy.integrate.quad(
        f,
        lo,
        hi,
        epsabs=spec.absolute_tolerance,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(extra) > 1:  # quad appends an explanation string on failure
        raise AccuracyError(
            f"quadrature did not converge on [{lo}, {hi}]: {extra[1]}",
            best_estimate=float(value),
            error_estimate=float(abserr),
        )
    tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(value))
    if abserr > tol * 10.0:
        raise AccuracyError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance on [{lo}, {hi}]",
            best_estimate=float(value),
            error_estimate=float(abserr),
        )
    return IntegrationResult(float(value), float(abserr))
