"""Special functions, adaptive quadrature and the rules every number is checked by.

Thin wrappers around scipy's well-tested kernels.  Every function is pure
and thread-safe; no table interpolation anywhere, so repeated calls are
bit-reproducible.  Each number that enters the package is checked once, by
the rule of its kind: a threshold by :func:`_nonnegative`, a positive
quantity (a rate, a duration, a power, a scale, a tolerance) by
:func:`_positive`, and a count by :func:`_count`.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    "gamma_tail",
    "integrate",
]


def _nonnegative(name: str, x):
    """``x`` as a float, or as a float array, once it is a threshold: every element >= 0.

    The one rule for a threshold where it enters the package: a real number,
    not a bool, where NaN fails and +inf passes.  The :class:`DomainError`
    names ``name``.  A float is checked without numpy dispatch.
    """
    if type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool)):
        x = float(x)
        if x >= 0.0:
            return x
    elif np.asarray(x).dtype.kind not in "iuf":  # a bool, alone or in an array, is not a number
        raise DomainError(f"{name} must be a number, got {x!r}")
    else:
        x = np.asarray(x, dtype=float)
        if x.min(initial=0.0) >= 0.0:
            return x
    raise DomainError(f"{name} must be >= 0, got {x!r}")


def _positive(name: str, x) -> float:
    """``x`` as a float once it is a positive quantity: a real number, not a bool,
    finite and > 0.

    The one rule for a rate, a duration, a power, a scale or a tolerance where
    it enters the package; NaN and +inf fail, and so does an integer beyond the
    float range.  The :class:`DomainError` names ``name``.  A float skips the
    type test.
    """
    if type(x) is not float:
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            raise DomainError(f"{name} must be a number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
    if 0.0 < x < math.inf:  # NaN fails
        return x
    raise DomainError(f"{name} must be {'finite' if x == math.inf else '> 0'}, got {x!r}")


def _count(name: str, n, least: int | float) -> int:
    """``n`` as an int once it is a count: an integer (a numpy one too), not a bool,
    and >= ``least``.  The :class:`DomainError` names ``name``."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")
    return int(n)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    absolute_tolerance: float = 1e-10
    relative_tolerance: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        _positive("QuadratureSpec.absolute_tolerance", self.absolute_tolerance)
        _positive("QuadratureSpec.relative_tolerance", self.relative_tolerance)
        _count("QuadratureSpec.max_subdivisions", self.max_subdivisions, 1)


DEFAULT_QUAD = QuadratureSpec()


class IntegrationResult(NamedTuple):
    value: float
    error: float


def gamma_tail(k: float) -> Callable:
    """Q(k, .) bound to one shape k > 0, elementwise over an array x >= 0 (both unchecked).

    Below shape 2 and the cut c = max(k+1, 2), Q = 1 - x^k e^-x / Gamma(k+1) *
    sum_n x^n / (k+1)_n (DLMF 8.7.1; Gautschi, ACM TOMS 5:466, 1979), whose
    coefficients depend on k alone: they are summed by Horner's rule, as many as
    it takes for the term c^n / (k+1)_n to fall below 2^-56.  Elsewhere it is
    scipy's gammaincc, and each element is computed alone.
    """
    if k >= 2.0:
        return functools.partial(sp.gammaincc, k)
    cut = max(k + 1.0, 2.0)
    coefficients, term = [math.exp(-math.lgamma(k + 1.0))], 1.0  # each carries 1/Gamma(k+1)
    while term > 2.0**-56:
        kn = k + len(coefficients)
        coefficients.append(coefficients[-1] / kn)
        term *= cut / kn
    last, *middle, first = reversed(coefficients)

    def tail(x):
        x = np.asarray(x, dtype=float)
        # the series takes x below the cut and 0 elsewhere, where it adds nothing to
        # gammaincc(k, x); below the cut gammaincc(k, 0) is exactly 1
        low = np.where(x < cut, x, 0.0)
        s = last * low
        for a in middle:
            s += a
            s *= low
        s += first
        return sp.gammaincc(k, x - low) - low**k * np.exp(-low) * s

    return tail


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
