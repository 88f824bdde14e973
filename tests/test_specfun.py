"""Special-function kernel against independent series/quadrature oracles, and the Brent
root-finder against scipy's."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special as sp
import scipy.special.cython_special as cs
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uavlink import channel as ch
from uavlink import specfun
from uavlink.channel import Rician
from uavlink.errors import AccuracyError, DomainError
from uavlink.interference import GammaFit, interference_ccdf
from uavlink.specfun import QuadratureSpec


def marcum_q1(a, b):
    """First-order Marcum Q1(a, b): the Rician(a) amplitude's survival at ``b``."""
    return 1.0 - ch.fading_cdf(Rician(a), b)


def gamma_q(k, x):
    """Regularized upper incomplete gamma Q(k, x): the tail of the Gamma(k, 1) law at ``x``."""
    return interference_ccdf(GammaFit(k, 1.0), x)


def i0_series(x: float) -> float:
    """Power series sum((x/2)^(2k) / k!^2) at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.nsum(
            lambda k: (mpmath.mpf(x) / 2) ** (2 * k) / mpmath.factorial(k) ** 2,
            [0, mpmath.inf],
        )
        return float(total)


def marcum_quadrature(a: float, b: float) -> float:
    """Direct tail integral of the noncentral amplitude density."""

    def integrand(x):
        return x * math.exp(-0.5 * (x - a) ** 2) * oracles.bessel_i0_scaled(x * a)

    value, _ = scipy.integrate.quad(integrand, b, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


class TestBessel:
    def test_i0_at_zero(self):
        assert oracles.bessel_i0_scaled(0.0) == 1.0

    # oracle: power series at 40 digits (values frozen from it)
    @pytest.mark.parametrize(
        "x,expected", [(1.0, 1.2660658777520084), (10.0, 2815.716628466254)]
    )
    def test_i0_series_values(self, x, expected):
        assert oracles.bessel_i0_scaled(x) == pytest.approx(expected * math.exp(-x), rel=1e-12)
        assert oracles.bessel_i0_scaled(x) == pytest.approx(i0_series(x) * math.exp(-x), rel=1e-12)

    def test_series_agreement_over_range(self):
        for x in np.linspace(0.0, 100.0, 23):
            assert oracles.bessel_i0_scaled(x) == pytest.approx(
                i0_series(x) * math.exp(-x), rel=1e-12
            )

    def test_scaled_form_matches(self):
        for x in (0.0, 0.5, 5.0, 50.0):
            assert oracles.bessel_i0_scaled(x) == pytest.approx(
                i0_series(x) * math.exp(-x), rel=1e-12
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            oracles.bessel_i0_scaled(bad)


class TestMarcumQ1:
    def test_b_zero_is_one(self):
        assert marcum_q1(3.0, 0.0) == 1.0

    def test_a_zero_reduces_to_gaussian_tail(self):
        assert marcum_q1(0.0, 1.0) == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_against_quadrature_oracle(self):
        for a, b in [(0.5, 0.5), (1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (5.0, 7.0), (5.477, 7.8)]:
            assert marcum_q1(a, b) == pytest.approx(marcum_quadrature(a, b), abs=1e-10)

    def test_monotone_in_each_argument(self):
        bs = np.linspace(0.0, 8.0, 17)
        qs = [marcum_q1(2.0, b) for b in bs]
        assert all(q2 <= q1 + 1e-14 for q1, q2 in zip(qs, qs[1:]))
        aas = np.linspace(0.0, 8.0, 17)
        qs = [marcum_q1(a, 3.0) for a in aas]
        assert all(q2 >= q1 - 1e-14 for q1, q2 in zip(qs, qs[1:]))

    def test_range(self):
        for a in (0.0, 1.0, 4.0):
            for b in (0.0, 2.0, 9.0):
                assert 0.0 <= marcum_q1(a, b) <= 1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            marcum_q1(-1.0, 2.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, -2.0)


class TestIncompleteGamma:
    def test_exponential_cdf_case(self):
        assert gamma_q(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_integral(self):
        for k in (0.5, 1.0, 7.3):
            assert gamma_q(k, 0.0) == 1.0

    def test_against_quadrature_oracle(self):
        k, x = 2.5, 3.7
        oracle, _ = scipy.integrate.quad(
            lambda s: s ** (k - 1) * math.exp(-s), x, np.inf, epsabs=1e-13, epsrel=1e-12
        )
        assert gamma_q(k, x) == pytest.approx(oracle / math.gamma(k), rel=1e-10)

    def test_normalized_form_is_a_cdf(self):
        for k in (0.4, 1.0, 3.7, 20.0):
            values = [1.0 - gamma_q(k, x) for x in np.linspace(0.0, 30.0 + 3 * k, 50)]
            assert values[0] == 0.0
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(values, values[1:]))
            assert values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_q(0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_q(-2.0, 1.0)


class TestGammaTailAgainstMpmath:
    """Q(k, x) on both sides of the series cut max(k+1, 2), at it, at 0 and out to 50."""

    XS = (0.0, 0.01, 0.05, 0.0999, 0.1, 0.1001, 0.3, 0.7, 1.0, 1.5, 1.999, 2.0, 2.001,
          3.0, 7.0, 15.0, 30.0, 50.0)

    @pytest.mark.parametrize("k", [0.02, 0.1, 0.5, 0.9, 0.999, 1.0, 1.5, 1.999])
    def test_matches_40_digit_reference(self, k):
        cut = max(k + 1.0, 2.0)
        xs = (*self.XS, 1e-300, cut - 0.5, math.nextafter(cut, 0.0), cut,
              math.nextafter(cut, math.inf), cut + 0.5)
        with mpmath.workdps(40):
            refs = [float(mpmath.gammainc(k, x, mpmath.inf, regularized=True)) for x in xs]
        for x, ref in zip(xs, refs):
            value = gamma_q(k, x)
            assert abs(value - ref) <= 1e-14, x
            assert abs(value - ref) <= 1e-12 * ref, x

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.5),
        st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_each_element_is_its_own_float_call(self, k, xs, rng):
        # no element depends on the others: a shuffled array gives each its float value
        rng.shuffle(xs)
        for x, got in zip(xs, specfun.gamma_tail(k)(np.array(xs)).tolist()):
            want = gamma_q(k, x)
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), x

    @pytest.mark.parametrize("k", [0.02, 0.5, 0.999, 1.5])
    def test_float_and_one_element_array_agree(self, k):
        tail = specfun.gamma_tail(k)
        for x in self.XS:
            assert abs(tail(x) - tail(np.array([x]))[0]) <= 1e-15
            assert abs(gamma_q(k, x) - gamma_q(k, np.array([x]))[0]) <= 1e-15

    def test_array_keeps_shape_and_clamps_negative_x(self):
        x = np.array([[-1.0, 0.05, 0.5], [1.5, 3.0, 50.0]])
        values = gamma_q(0.6, x)
        assert values.shape == (2, 3)
        assert values[0, 0] == 1.0
        for got, xi in zip(values.ravel(), x.ravel()):
            assert abs(got - gamma_q(0.6, float(xi))) <= 1e-15


class TestFloatKernels:
    """The C kernels behind float nodes return what the ufuncs return, bit for bit."""

    @settings(max_examples=2000, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=5.0, exclude_min=True),
        st.floats(min_value=0.0, max_value=60.0),
    )
    def test_cython_special_equals_ufuncs(self, k, x):
        for got, want in ((cs.gammaincc(k, x), sp.gammaincc(k, x)), (cs.i0e(x), sp.i0e(x))):
            assert isinstance(got, float)
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)

    @pytest.mark.parametrize("k", [0.02, 0.5, 0.999, 1.0, 2.5])
    def test_float_tail_is_the_regularized_gamma_upper(self, k):
        # a float takes the array tail: it gets its element of the whole array, bit for bit
        xs = np.array(TestGammaTailAgainstMpmath.XS)
        for x, want in zip(xs.tolist(), specfun.gamma_tail(k)(xs).tolist()):
            got = gamma_q(k, x)
            assert isinstance(got, float)
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), x


class TestElementwiseDomain:
    def test_marcum_q1_over_arrays(self):
        b = np.array([0.0, 1.0, 3.0, math.inf])
        q = marcum_q1(2.0, b)
        assert q.tolist() == [1.0, marcum_q1(2.0, 1.0), marcum_q1(2.0, 3.0), 0.0]

    @pytest.mark.parametrize(
        "a, b",
        [(2.0, np.array([1.0, math.nan])), (np.array([1.0, math.nan]), 2.0),
         (np.array([1.0, math.inf]), 2.0), (2.0, np.array([1.0, -0.5]))],
    )
    def test_marcum_q1_rejects_bad_elements(self, a, b):
        # an array of a is as many Rician families, each checked where it is built
        with pytest.raises(DomainError):
            for family in np.atleast_1d(a).tolist():
                marcum_q1(family, b)


class TestErf:
    """The inverse error function behind criterion 09b's surrogate bound (a test oracle)."""

    def test_odd_at_zero(self):
        assert oracles.erfinv(0.0) == 0.0

    def test_asymptote(self):
        # near 1 (and, by oddness, -1): where beta_upper_erf's argument goes at light load
        y = 1.0 - 1e-12
        with mpmath.workdps(40):
            oracle = float(mpmath.erfinv(mpmath.mpf(y)))
        assert oracles.erfinv(y) == pytest.approx(oracle, rel=1e-12)

    def test_series_value(self):
        # oracle: 2/sqrt(pi) * sum((-1)^n x^(2n+1) / (n! (2n+1))) at x = 1
        with mpmath.workdps(40):
            oracle = float(
                2
                / mpmath.sqrt(mpmath.pi)
                * mpmath.nsum(
                    lambda n: (-1) ** n / (mpmath.factorial(n) * (2 * n + 1)), [0, mpmath.inf]
                )
            )
        assert oracles.erfinv(0.8427007929497149) == pytest.approx(1.0, abs=1e-12)
        assert oracles.erfinv(oracle) == pytest.approx(1.0, abs=1e-12)

    def test_oddness(self):
        for x in (0.3, 1.7, 4.0):
            y = math.erf(x)
            assert oracles.erfinv(-y) == pytest.approx(-oracles.erfinv(y), abs=1e-15)

    def test_erfinv_round_trip(self):
        for y in (-0.95, -0.3, 0.0, 0.5, 0.999):
            assert math.erf(oracles.erfinv(y)) == pytest.approx(y, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracles.erfinv(float("nan"))
        with pytest.raises(DomainError):
            oracles.erfinv(1.0)


class TestBrentq:
    """``specfun._brentq`` takes the steps of scipy's ``brentq`` at the same tolerances."""

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-3.0, 3.0), below=st.floats(1e-3, 10.0), above=st.floats(1e-3, 10.0),
           power=st.sampled_from([1, 3, 5]))
    def test_on_odd_powers(self, root, below, above, power):
        def f(x):
            return (x - root) ** power

        lo, hi = root - below, root + above
        want, result = scipy.optimize.brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16,
                                             full_output=True, disp=False)
        if result.converged:
            assert specfun._brentq(f, lo, hi) == want
        else:
            with pytest.raises(AccuracyError) as raised:
                specfun._brentq(f, lo, hi)
            assert raised.value.best_estimate == want

    def test_a_step_whose_denominator_underflows_to_zero_bisects_as_scipy_does(self):
        # f of order 1e-250 makes the extrapolation's product of three slopes underflow
        def f(x):
            return 1e-250 * (x - 0.7) ** 3

        want = scipy.optimize.brentq(f, -3.0, 5.0, xtol=1e-12, rtol=8.9e-16)
        assert specfun._brentq(f, -3.0, 5.0) == want

    def test_a_root_not_found_in_its_steps_is_an_accuracy_error_with_scipys_iterate(self):
        # an odd fifth power is so flat at its root that Brent's steps stall near it
        def f(x):
            return (x - 1.1625530532133803) ** 5

        want, result = scipy.optimize.brentq(f, -8.803292731694611, 2.086451204492788,
                                             xtol=1e-12, rtol=8.9e-16, full_output=True,
                                             disp=False)
        assert not result.converged
        with pytest.raises(AccuracyError) as raised:
            specfun._brentq(f, -8.803292731694611, 2.086451204492788)
        assert raised.value.best_estimate == want


class TestIntegrate:
    def test_unit_exponential_mass(self):
        result = specfun.integrate(lambda x: math.exp(-x), 0.0, math.inf)
        assert result.value == pytest.approx(1.0, abs=1e-10)
        assert result.error <= 1e-8

    def test_polynomial(self):
        result = specfun.integrate(lambda x: x * x, 0.0, 1.0)
        assert result.value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_rayleigh_second_moment(self):
        # truncating at zero must reproduce the full moment (closed form at beta=0)
        result = specfun.integrate(lambda x: x ** 3 * math.exp(-x * x / 2.0), 0.0, math.inf)
        assert result.value == pytest.approx(2.0, rel=1e-10)

    def test_linearity(self):
        f = lambda x: math.exp(-x)
        g = lambda x: x * math.exp(-x)
        lhs = specfun.integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, math.inf).value
        rhs = 2.0 * specfun.integrate(f, 0.0, math.inf).value + 3.0 * specfun.integrate(
            g, 0.0, math.inf
        ).value
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            specfun.integrate(lambda x: x, 1.0, 1.0)

    def test_nonconvergence_carries_best_estimate(self):
        spec = QuadratureSpec(absolute_tolerance=1e-14, relative_tolerance=1e-14, max_subdivisions=2)
        with pytest.raises(AccuracyError) as excinfo:
            specfun.integrate(lambda x: math.sin(1.0 / (x + 1e-4)), 0.0, 1.0, spec)
        assert math.isfinite(excinfo.value.best_estimate)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(absolute_tolerance=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)


def test_marcum_complements_amplitude_cdf():
    # tail + quadrature CDF of the same density must sum to 1
    for a in (0.5, 2.0, 5.477):
        for b in (0.3, 1.0, 3.0, 6.0):
            cdf, _ = scipy.integrate.quad(
                lambda x: x * math.exp(-0.5 * (x - a) ** 2) * oracles.bessel_i0_scaled(x * a),
                0.0,
                b,
                epsabs=1e-12,
                epsrel=1e-11,
                limit=300,
            )
            assert marcum_q1(a, b) + cdf == pytest.approx(1.0, abs=1e-9)
