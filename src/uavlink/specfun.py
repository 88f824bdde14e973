"""Special functions, adaptive quadrature, a root-finder and the rules every number is checked by.

Thin wrappers around scipy's well-tested kernels.  Every function is pure
and thread-safe; no table interpolation anywhere, so repeated calls are
bit-reproducible.  Each number that enters the package is checked once, by
the rule of its kind: a threshold by :func:`_nonnegative` (a grid of them by
:func:`_nonnegative_grid`), a positive quantity (a rate, a duration, a power,
a scale, a tolerance) by :func:`_positive`, and a count by :func:`_count`.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.special as sp

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "IntegrationResult",
    "gamma_tail",
    "integrate",
]


def _real(name: str, x) -> float:
    """``x`` as a float once it is one real number, not a bool and not an array; an
    integer beyond the float range reads as the infinity of its sign.  Each rule's
    :class:`DomainError` names ``name``.  A float skips the type test."""
    if type(x) is float:
        return x
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise DomainError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        return math.inf if x > 0 else -math.inf


def _nonnegative(name: str, x) -> float:
    """``x`` as a float once it is a threshold: one real number (:func:`_real`) >= 0,
    where NaN fails and +inf passes."""
    if (x := _real(name, x)) >= 0.0:  # NaN fails
        return x
    raise DomainError(f"{name} must be >= 0, got {x!r}")


def _nonnegative_grid(name: str, x):
    """``x`` as a float once it is a threshold (:func:`_nonnegative`), or as a float
    array once every element is one."""
    if isinstance(x, numbers.Real):
        return _nonnegative(name, x)
    if np.asarray(x).dtype.kind not in "iuf":  # a bool, alone or in an array, is not a number
        raise DomainError(f"{name} must be a number, got {x!r}")
    if (grid := np.asarray(x, dtype=float)).min(initial=0.0) >= 0.0:  # NaN fails
        return grid
    raise DomainError(f"{name} must be >= 0, got {grid!r}")


def _positive(name: str, x) -> float:
    """``x`` as a float once it is a positive quantity (a rate, a duration, a power, a
    scale or a tolerance): one real number (:func:`_real`), finite and > 0."""
    if 0.0 < (x := _real(name, x)) < math.inf:  # NaN fails
        return x
    raise DomainError(f"{name} must be {'finite' if x == math.inf else '> 0'}, got {x!r}")


def _count(name: str, n, least: int | float, most: float = sys.float_info.max) -> int:
    """``n`` as an int once it is a count: an integer (a numpy one too), not a bool,
    >= ``least`` and <= ``most``, by default the largest float, since a count may
    meet a float as its exponent."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")
    if n > most:
        raise DomainError(f"{name} must be <= {most:.6g}, got a {int(n).bit_length()}-bit integer")
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


def _brentq(f: Callable[[float], float], xpre: float, xcur: float) -> float:
    """Brent's root of ``f`` between ``xpre`` and ``xcur``, where its sign changes (unchecked):
    scipy's ``brentq.c`` step for step, at xtol 1e-12 and rtol 8.9e-16, in at most 100 steps."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the end where |f| is smaller
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (1e-12 + 8.9e-16 * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if not (abs(spre) > delta and abs(fcur) < abs(fpre)):
            stry = math.nan  # bisect
        elif xpre == xblk:  # interpolate
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
        else:  # extrapolate; a denominator underflowed to 0 bisects, as C's infinite step does
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre) or math.nan)
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)  # else bisect
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise AccuracyError(f"Brent's method found no root in 100 steps (last iterate {xcur:.17g},"
                        f" bracket width {abs(xblk - xcur):.3e})")


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Adaptive quadrature of ``f`` over (lo, hi]; ``hi`` may be +inf.

    Semi-infinite ranges are mapped by scipy's internal variable transform.
    Returns the value together with the achieved error estimate; raises
    :class:`AccuracyError`, whose message states the best estimate and its
    error, when the requested tolerances cannot be met within the subdivision
    budget.
    """
    import scipy.integrate  # at the first call, so a command that makes none never loads it
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
        raise AccuracyError(f"quadrature did not converge on [{lo}, {hi}] (estimate {value!r},"
                            f" error {abserr:.3e}): {extra[1]}")
    tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(value))
    if abserr > tol * 10.0:
        raise AccuracyError(f"quadrature error exceeds 10 times the tolerance {tol:.3e} on"
                            f" [{lo}, {hi}] (estimate {value!r}, error {abserr:.3e})")
    return IntegrationResult(float(value), float(abserr))
