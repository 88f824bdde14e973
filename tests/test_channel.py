"""Geometry, LoS, path loss, fading families, and the threshold policy."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fading_pdf, rician_moment_per_order
from uavlink import channel as ch
from uavlink import specfun
from uavlink.channel import (
    SPEED_OF_LIGHT,
    EnvironmentParams,
    FadingKind,
    Position,
    Rayleigh,
    Rician,
)
from uavlink.errors import DegenerateGeometryError, DomainError

ENV = EnvironmentParams()


class TestElevationAngle:
    def test_forty_five_degrees(self):
        assert ch.elevation_angle(Position(0, 0, 0), Position(10, 0, 10)) == pytest.approx(
            math.pi / 4
        )

    def test_vertical_stack(self):
        assert ch.elevation_angle(Position(0, 0, 0), Position(0, 0, 50)) == math.pi / 2

    def test_ground_to_ground(self):
        assert ch.elevation_angle(Position(0, 0, 0), Position(20, 0, 0)) == 0.0

    def test_symmetry(self):
        a, b = Position(3, 4, 0), Position(10, -2, 50)
        assert ch.elevation_angle(a, b) == ch.elevation_angle(b, a)

    def test_coincident_positions_raise(self):
        with pytest.raises(DegenerateGeometryError):
            ch.elevation_angle(Position(1, 2, 3), Position(1, 2, 3))


class TestLosProbability:
    def test_at_zero_elevation(self):
        env = EnvironmentParams(a1=9.0, b1=2.0)
        assert ch.p_los(0.0, env) == pytest.approx(0.1, rel=1e-12)

    def test_vertical_limit(self):
        env = EnvironmentParams(a1=9.0, b1=60.0)
        assert ch.p_los(math.pi / 2, env) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_value(self):
        env = EnvironmentParams(a1=9.0, b1=2.0)
        assert ch.p_los(math.pi / 4, env) == pytest.approx(0.34832086163766625, rel=1e-12)

    def test_monotone_increasing(self):
        thetas = np.linspace(0.0, math.pi / 2, 50)
        values = [ch.p_los(t, ENV) for t in thetas]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_domain(self):
        with pytest.raises(DomainError):
            ch.p_los(-0.1, ENV)
        with pytest.raises(DomainError):
            ch.p_los(math.pi, ENV)


class TestPathLossExponent:
    def test_range_and_monotone(self):
        thetas = np.linspace(0.0, math.pi / 2, 50)
        values = [ch.path_loss_exponent(t, ENV) for t in thetas]
        assert all(ENV.alpha_pi2 <= v <= ENV.alpha0 for v in values)
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_vertical_approaches_free_space(self):
        env = EnvironmentParams(a1=9.61, b1=60.0)
        assert ch.path_loss_exponent(math.pi / 2, env) == pytest.approx(2.0, abs=1e-9)

    def test_ground_residual(self):
        env = EnvironmentParams(a1=9.0, b1=2.0)
        expected = 3.5 + (2.0 - 3.5) / (1.0 + 9.0)
        assert ch.path_loss_exponent(0.0, env) == pytest.approx(expected, rel=1e-12)

    def test_ground_limit_with_blocking_environment(self):
        env = EnvironmentParams(a1=1e15, b1=2.0)
        assert ch.path_loss_exponent(0.0, env) == pytest.approx(3.5, abs=1e-12)


class TestPathLossAmplitude:
    def test_reference_distance_value(self):
        # independent of the exponent at d = d0
        for theta in (0.0, 0.7, math.pi / 2):
            assert ch.path_loss_amplitude(20.0, theta, ENV) == pytest.approx(
                1.3262911924324611e-3, rel=1e-12
            )

    def test_inverse_distance_at_free_space_exponent(self):
        env = EnvironmentParams(a1=9.61, b1=200.0)  # vertical: alpha == 2
        theta = math.pi / 2
        assert ch.path_loss_amplitude(40.0, theta, env) == pytest.approx(
            0.5 * ch.path_loss_amplitude(20.0, theta, env), rel=1e-9
        )

    def test_ground_link_value(self):
        env = EnvironmentParams(a1=1e15, b1=2.0)  # alpha(0) == alpha0 == 3.5
        assert ch.path_loss_amplitude(40.0, 0.0, env) == pytest.approx(
            3.9430873065153147e-4, rel=1e-9
        )

    def test_strictly_decreasing_in_distance(self):
        ds = np.linspace(20.0, 400.0, 60)
        values = [ch.path_loss_amplitude(d, 0.9, ENV) for d in ds]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_single_slope_gain_identity(self):
        # squared amplitude equals K (d0/d)^alpha with K = wavelength^2/(16 pi^2 d0^2)
        wavelength = SPEED_OF_LIGHT / ENV.carrier_frequency
        big_k = wavelength**2 / (16.0 * math.pi**2 * ENV.d0**2)
        for d in (20.0, 35.0, 120.0):
            for theta in (0.0, 0.6, 1.3):
                alpha = ch.path_loss_exponent(theta, ENV)
                expected = big_k * (ENV.d0 / d) ** alpha
                assert ch.path_loss_amplitude(d, theta, ENV) ** 2 == pytest.approx(
                    expected, rel=1e-12
                )

    def test_below_reference_distance_rejected(self):
        with pytest.raises(DomainError):
            ch.path_loss_amplitude(19.9, 0.3, ENV)


class TestRicianB:
    def test_ground_endpoint(self):
        assert ch.rician_b(0.0, ENV) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_vertical_endpoint(self):
        assert ch.rician_b(math.pi / 2, ENV) == pytest.approx(math.sqrt(30.0), rel=1e-12)

    def test_geometric_mean_midpoint(self):
        assert ch.rician_b(math.pi / 4, ENV) == pytest.approx(2.7831576837137406, rel=1e-12)

    def test_monotone_increasing(self):
        thetas = np.linspace(0.0, math.pi / 2, 30)
        values = [ch.rician_b(t, ENV) for t in thetas]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


MODELS = [
    Rayleigh(omega=2.0),
    Rayleigh(omega=0.7),
    Rician(b=0.0),
    Rician(b=1.5),
    Rician(b=math.sqrt(30.0)),
]


class TestFadingDistributions:
    def test_rayleigh_pdf_value(self):
        assert fading_pdf(Rayleigh(2.0), 1.0) == pytest.approx(
            0.60653065971263342, rel=1e-12
        )

    def test_rician_b_zero_degenerates_to_rayleigh(self):
        for x in np.linspace(0.0, 6.0, 25):
            assert fading_pdf(Rician(0.0), x) == pytest.approx(
                fading_pdf(Rayleigh(2.0), x), rel=1e-12, abs=1e-300
            )

    def test_pdf_vanishes_at_origin(self):
        for model in MODELS:
            assert fading_pdf(model, 0.0) == 0.0

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_pdf_is_normalized(self, model):
        mass, _ = scipy.integrate.quad(
            lambda x: fading_pdf(model, x), 0.0, np.inf, epsabs=1e-11, epsrel=1e-10, limit=300
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_density_and_slope_share_the_density(self, model):
        # the density is _pdf's to the bit, and the slope is its derivative
        x = np.linspace(0.0, 12.0, 241)
        pdf, slope = ch._pdf_and_slope(model, x)
        assert pdf.tobytes() == ch._pdf(model, x).tobytes()
        h = 1e-6
        central = (ch._pdf(model, x[1:] + h) - ch._pdf(model, x[1:] - h)) / (2.0 * h)
        assert slope[1:] == pytest.approx(central, rel=1e-6, abs=1e-9)

    def test_rayleigh_median(self):
        assert ch.fading_cdf(Rayleigh(2.0), math.sqrt(2.0 * math.log(2.0))) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_cdf_zero_at_origin(self):
        for model in MODELS:
            assert ch.fading_cdf(model, 0.0) == 0.0

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_cdf_matches_pdf_quadrature(self, model):
        for beta in (0.4, 1.2, 2.5, 5.0):
            mass, _ = scipy.integrate.quad(
                lambda x: fading_pdf(model, x), 0.0, beta, epsabs=1e-11, epsrel=1e-10, limit=300
            )
            assert ch.fading_cdf(model, beta) == pytest.approx(mass, abs=1e-8)

    def test_cdf_tends_to_one(self):
        for model in MODELS:
            assert ch.fading_cdf(model, 40.0) == pytest.approx(1.0, abs=1e-9)

    @given(
        model=st.one_of(st.floats(0.05, 20.0).map(Rayleigh), st.floats(0.0, 30.0).map(Rician)),
        beta=st.one_of(st.floats(0.0, 1e3), st.sampled_from([1e300, math.inf])),
    )
    # math.expm1 and np.expm1 differ by 1 ulp here
    @example(model=Rayleigh(2.0), beta=1.5027946689483906)
    @settings(max_examples=300, deadline=None)
    def test_a_float_threshold_is_its_grid_of_one(self, model, beta):
        for cdf in (ch._cdf, ch.fading_cdf):
            value = cdf(model, beta)
            assert isinstance(value, float)
            bits = np.float64(value).view(np.int64)
            assert bits == cdf(model, np.array([beta]))[0].view(np.int64), cdf


class TestTransmitProb:
    def test_zero_threshold_always_transmits(self):
        for model in MODELS:
            assert ch.transmit_prob(model, 0.0, 15) == 1.0

    def test_single_channel_rayleigh(self):
        assert ch.transmit_prob(Rayleigh(2.0), math.sqrt(2.0), 1) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_fifteen_channel_value(self):
        assert ch.transmit_prob(Rayleigh(2.0), 1.55, 15) == pytest.approx(
            0.99533497460508789, rel=1e-12
        )

    @given(
        beta=st.floats(min_value=0.0, max_value=12.0),
        num_channels=st.integers(min_value=1, max_value=40),
        omega=st.floats(min_value=0.1, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_complement_power_identity(self, beta, num_channels, omega):
        model = Rayleigh(omega)
        expected = 1.0 - ch.fading_cdf(model, beta) ** num_channels
        assert ch.transmit_prob(model, beta, num_channels) == expected

    def test_monotone_in_threshold_and_channels(self):
        model = Rician(b=3.0)
        betas = np.linspace(0.0, 8.0, 20)
        phis = [ch.transmit_prob(model, b, 15) for b in betas]
        assert all(p2 <= p1 + 1e-14 for p1, p2 in zip(phis, phis[1:]))
        assert ch.transmit_prob(model, 4.0, 20) >= ch.transmit_prob(model, 4.0, 5)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "call",
    [
        lambda flag: ch.fading_cdf(Rayleigh(2.0), flag),
        lambda flag: ch.transmit_prob(Rician(3.0), flag, 15),
        # the Rician CDF is 1 - Q1(b, beta) in the Marcum Q-function
        lambda flag: ch.fading_cdf(Rician(1.0), flag),
    ],
    ids=["fading_cdf", "transmit_prob", "marcum_q1 b"],
)
def test_a_bool_is_not_a_threshold(call, flag):
    # an int to Python, but PolicyVector rejects it too
    with pytest.raises(DomainError, match=f"must be a number, got {flag}$"):
        call(flag)


class TestTruncatedPowerMoment:
    def test_rayleigh_full_moments(self):
        assert ch.truncated_power_moment(Rayleigh(2.0), 0.0, 2) == pytest.approx(2.0, rel=1e-12)
        assert ch.truncated_power_moment(Rayleigh(2.0), 0.0, 4) == pytest.approx(8.0, rel=1e-12)

    def test_rician_full_moments(self):
        # E[x^2] = 2 + b^2 and E[x^4] = b^4 + 8 b^2 + 8 for the noncentral amplitude
        for b in (0.5, 2.0, math.sqrt(30.0)):
            model = Rician(b)
            assert ch.truncated_power_moment(model, 0.0, 2) == pytest.approx(
                2.0 + b * b, rel=1e-9
            )
            assert ch.truncated_power_moment(model, 0.0, 4) == pytest.approx(
                b**4 + 8.0 * b * b + 8.0, rel=1e-9
            )

    @pytest.mark.parametrize("power", [2, 4])
    def test_rayleigh_closed_form_vs_quadrature(self, power):
        model = Rayleigh(2.0)
        for beta in (0.0, 0.7, 1.55, 3.0):
            oracle, _ = scipy.integrate.quad(
                lambda x: x**power * fading_pdf(model, x),
                beta,
                np.inf,
                epsabs=1e-12,
                epsrel=1e-11,
                limit=300,
            )
            assert ch.truncated_power_moment(model, beta, power) == pytest.approx(
                oracle, rel=1e-8
            )

    def test_rician_against_monte_carlo(self):
        b, beta = math.sqrt(30.0), 5.1
        rng = np.random.default_rng(987)
        n = 10_000_000
        g = rng.standard_normal((n, 2))
        x = np.hypot(b + g[:, 0], g[:, 1])
        samples = np.where(x >= beta, x * x, 0.0)
        mc = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(n)
        value = ch.truncated_power_moment(Rician(b), beta, 2)
        assert abs(value - mc) <= 3.0 * se

    def test_monotone_nonincreasing_in_threshold(self):
        for model in MODELS:
            betas = np.linspace(0.0, 7.0, 15)
            values = [ch.truncated_power_moment(model, b, 2) for b in betas]
            assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_infinite_threshold_silences(self):
        assert ch.truncated_power_moment(Rayleigh(2.0), math.inf, 2) == 0.0
        assert ch.truncated_power_moment(Rician(3.0), math.inf, 4) == 0.0

    @pytest.mark.parametrize("beta", [1e6, 1e10, 1e20, 1e80, 1e160, 1e300], ids=str)
    @pytest.mark.parametrize("model", [Rayleigh(2.0), Rician(0.0), Rician(3.0)], ids=repr)
    def test_a_huge_threshold_silences_without_a_series(self, monkeypatch, model, beta):
        # the tail lies below the double range, so no Poisson series is sized or summed
        monkeypatch.setattr(ch, "_rician_truncated_moment", None)
        for power in (2, 4):
            assert ch.truncated_power_moment(model, beta, power) == 0.0

    @pytest.mark.parametrize(
        "model", [Rician(0.5), Rician(3.0), Rician(9.0), Rayleigh(0.05), Rayleigh(2.0),
                  Rayleigh(100.0)], ids=repr)
    def test_the_cutoff_changes_no_value(self, model):
        # short of the cutoff, (beta - b)^2 / 2 or beta^2 / omega at 800, the series or the
        # closed form already gives exactly 0
        if isinstance(model, Rician):
            short, edge = model.b + 39.0, model.b + 40.0
        else:
            short, edge = math.sqrt(760.0 * model.omega), math.sqrt(800.0 * model.omega)
        for beta in (short, float(np.nextafter(edge, 0.0))):
            for power in (2, 4):
                assert ch.truncated_power_moment(model, beta, power) == 0.0

    def test_a_threshold_far_below_the_line_of_sight_is_not_cut(self):
        # beta - b is -50: the whole second moment b^2 + 2 lies above the threshold
        assert ch.truncated_power_moment(Rician(50.0), 0.0, 2) == pytest.approx(2502.0, rel=1e-12)

    def test_power_validation(self):
        with pytest.raises(DomainError):
            ch.truncated_power_moment(Rayleigh(2.0), 1.0, 3)

    @pytest.mark.parametrize("model", [Rayleigh(2.0), Rician(3.0)], ids=["rayleigh", "rician"])
    @pytest.mark.parametrize("beta", [[1.0], [1.0, 2.0], np.array([1.0, 2.0]), np.array(1.0)],
                             ids=["list-of-one", "list-of-two", "array", "0-d-array"])
    def test_takes_one_threshold(self, model, beta):
        with pytest.raises(DomainError, match="^truncated_power_moment: beta must be a number, got "):
            ch.truncated_power_moment(model, beta, 2)


def mixture_moment(b: float, beta: float, power: int) -> mpmath.mpf:
    """E[X^power; X >= beta] as the Poisson mixture of Gamma tails, at 40 digits.

    Summed term by term until, past the Poisson mode and beta^2/2, a term
    falls below 1e-45 of the sum.
    """
    with mpmath.workdps(40):
        lam, t, m = mpmath.mpf(b) ** 2 / 2, mpmath.mpf(beta) ** 2 / 2, power // 2
        total, j, weight = mpmath.mpf(0), 0, mpmath.exp(-lam)
        while True:
            term = weight * mpmath.rf(j + 1, m) * mpmath.gammainc(j + 1 + m, t, regularized=True)
            total += term
            if j > lam + t and term < total * mpmath.mpf(10) ** -45:
                return 2**m * total
            j += 1
            weight = weight * lam / j


def density_moment(b: float, beta: float, power: int) -> mpmath.mpf:
    """E[X^power; X >= beta] by 40-digit quadrature of the Rician density.

    Unit panels from beta out to beta + 40, on an integrand rescaled to be
    of order one at its largest, so that a tiny tail still converges relatively.
    """
    with mpmath.workdps(40):
        b, beta = mpmath.mpf(b), mpmath.mpf(beta)
        shift = max(beta - b, 0) ** 2 / 2

        def f(x):
            return x ** (power + 1) * mpmath.exp(shift - (x * x + b * b) / 2) * mpmath.besseli(0, x * b)

        return mpmath.quad(f, [beta + k for k in range(41)]) * mpmath.exp(-shift)


class TestRicianMomentSeries:
    BETAS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.5, 10.0, 12.0, 14.0)

    @pytest.mark.parametrize("b", [0.0, 1e-4, 0.5, 1.0, 3.0, math.sqrt(30.0), 10.0, 20.0])
    def test_matches_40_digit_mixture(self, b):
        for beta in self.BETAS:
            for power in (2, 4):
                reference = mixture_moment(b, beta, power)
                if reference < 1e-40:
                    continue
                value = ch.truncated_power_moment(Rician(b), beta, power)
                assert abs(value - reference) <= 1e-12 * reference, (beta, power)

    @pytest.mark.parametrize("b, beta, power", [(1.0, 7.0, 2), (math.sqrt(30.0), 4.0, 4)])
    def test_mixture_is_the_density_moment(self, b, beta, power):
        value = ch.truncated_power_moment(Rician(b), beta, power)
        assert value == pytest.approx(float(density_moment(b, beta, power)), rel=1e-12)

    def test_b_zero_is_rayleigh_two(self):
        for beta in self.BETAS:
            for power in (2, 4):
                assert ch.truncated_power_moment(Rician(0.0), beta, power) == (
                    ch.truncated_power_moment(Rayleigh(2.0), beta, power)
                )

    def test_needs_no_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(specfun, "integrate", lambda *args, **kwargs: calls.append(args))
        ch._rician_truncated_moment.cache_clear()
        for power in (2, 4):
            assert ch.truncated_power_moment(Rician(3.0), 2.5, power) > 0.0
        assert calls == []


class TestPairedMoments:
    """One Poisson pass gives both orders, bit for bit the per-order series."""

    @pytest.mark.parametrize("first", [2, 4])
    @pytest.mark.parametrize("b", [1e-3, 0.5, 3.0, math.sqrt(30.0)])
    def test_matches_the_per_order_series(self, b, first):
        for beta in (0.0, 0.3, 2.5, 7.0, 40.0):
            ch._rician_truncated_moment.cache_clear()
            powers = (first, 6 - first)
            got = np.array([ch.truncated_power_moment(Rician(b), beta, p) for p in powers])
            want = np.array([rician_moment_per_order(b, beta, p) for p in powers])
            assert (got.view(np.int64) == want.view(np.int64)).all(), (beta, got, want)

    def test_both_orders_are_one_lookup(self):
        ch._rician_truncated_moment.cache_clear()
        for power in (2, 4):
            ch.truncated_power_moment(Rician(3.0), 2.5, power)
        info = ch._rician_truncated_moment.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestClassifyLink:
    def test_high_elevation_is_rician(self):
        ground = Position(0, 0, 0)
        uav = Position(20, 0, 50)
        model = ch.classify_link(ground, uav, ENV)
        assert isinstance(model, Rician)
        theta = ch.elevation_angle(ground, uav)
        assert model.b == pytest.approx(ch.rician_b(theta, ENV))

    def test_ground_to_ground_is_rayleigh(self):
        model = ch.classify_link(Position(0, 0, 0), Position(30, 0, 0), ENV)
        assert model == Rayleigh(omega=ENV.omega)

    def test_override_wins(self):
        ground = Position(0, 0, 0)
        uav = Position(20, 0, 50)
        model = ch.classify_link(ground, uav, ENV, override=FadingKind.RAYLEIGH)
        assert isinstance(model, Rayleigh)

    def test_build_link_fields(self):
        link = ch.build_link(Position(0, 0, 0), Position(30, 40, 0), ENV)
        assert link.path_loss_amplitude == pytest.approx(
            ch.path_loss_amplitude(50.0, 0.0, ENV), rel=1e-12
        )


class TestValidation:
    def test_negative_altitude(self):
        with pytest.raises(DomainError):
            Position(0, 0, -1)

    def test_environment_invariants(self):
        with pytest.raises(DomainError):
            EnvironmentParams(a1=-1.0)
        with pytest.raises(DomainError):
            EnvironmentParams(k0=20.0, k_pi2=15.0)
        with pytest.raises(DomainError):
            EnvironmentParams(alpha0=1.9)

    def test_fading_invariants(self):
        with pytest.raises(DomainError):
            Rayleigh(omega=0.0)
        with pytest.raises(DomainError):
            Rician(b=-0.5)

    def test_fading_rejects_infinity_naming_the_field(self):
        with pytest.raises(DomainError, match="Rayleigh.omega"):
            Rayleigh(omega=math.inf)
        with pytest.raises(DomainError, match="Rician.b"):
            Rician(b=math.inf)

    def test_rician_rejects_an_array_naming_the_field(self):
        # the threshold rule takes one number, and so does a LoS parameter
        with pytest.raises(DomainError, match=r"^Rician.b must be a number, got \["):
            Rician(b=[1.0, 2.0])

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    def test_fading_rejects_a_bool_naming_the_field(self, flag):
        # an int to Python and numpy, but a bool parameter is a mistake, not 1.0
        with pytest.raises(DomainError, match=f"Rayleigh.omega must be a number, got {flag!r}$"):
            Rayleigh(omega=flag)
        with pytest.raises(DomainError, match=f"Rician.b must be a number, got {flag!r}$"):
            Rician(b=flag)

    def test_fading_rejects_nan_naming_the_field(self):
        with pytest.raises(DomainError, match="Rayleigh.omega"):
            Rayleigh(omega=math.nan)
        with pytest.raises(DomainError, match="Rician.b"):
            Rician(b=math.nan)


class TestElementwise:
    @pytest.mark.parametrize(
        "model", [Rayleigh(2.0), Rician(3.0), Rician(0.0)], ids=["rayleigh", "rician", "rician0"]
    )
    def test_arrays_match_floats(self, model):
        # an array gives an array, and a float gives a float whatever the family
        betas = np.array([0.0, 0.5, 2.0, 4.5, math.inf])
        cdf = ch.fading_cdf(model, betas)
        phi = ch.transmit_prob(model, betas, 15)
        assert isinstance(cdf, np.ndarray) and isinstance(phi, np.ndarray)
        for beta, c, p in zip(betas.tolist(), cdf.tolist(), phi.tolist()):
            assert type(ch.fading_cdf(model, beta)) is float
            assert type(ch.transmit_prob(model, beta, 15)) is float
            assert c == ch.fading_cdf(model, beta)
            assert p == ch.transmit_prob(model, beta, 15)
        assert cdf[-1] == 1.0 and phi[-1] == 0.0

    @pytest.mark.parametrize(
        "model, ulps", [(Rayleigh(2.0), 1), (Rician(3.0), 0), (Rician(0.0), 0)],
        ids=["rayleigh", "rician", "rician0"],
    )
    def test_floats_match_arrays_over_a_dense_grid(self, model, ulps):
        # a Rician float takes the array's values; a Rayleigh one takes math.expm1, which
        # differs from np.expm1 by 1 ulp at some thresholds
        betas = np.linspace(0.01, 6.0, 2001)[1:]
        cdf = ch.fading_cdf(model, betas)
        floats = np.array([ch.fading_cdf(model, beta) for beta in betas.tolist()])
        below, above = np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)
        near = (floats == cdf) | (ulps > 0) & ((floats == below) | (floats == above))
        assert near.all(), betas[~near]

    @pytest.mark.parametrize("b", [0.0, 0.5, 3.0, math.sqrt(30.0), 40.0])
    def test_rician_float_path_equals_the_array_path(self, b):
        # a float takes scipy's C kernel and max, an array the ufunc and np.maximum
        model = Rician(b)
        betas = np.concatenate(([0.0, 1e-8, 1e3, 1e150, math.inf], np.linspace(0.0, 50.0, 201)))
        cdf = ch._cdf(model, betas)
        for beta, want in zip(betas.tolist(), cdf.tolist()):
            got = ch._cdf(model, beta)
            assert type(got) is float and repr(got) == repr(want), beta

    @pytest.mark.parametrize("model", [Rayleigh(2.0), Rician(3.0)], ids=["rayleigh", "rician"])
    def test_int_threshold_is_a_float_one(self, model):
        # an int takes the float path, as a float of its value does
        for beta in (0, 2, 5):
            assert type(ch.fading_cdf(model, beta)) is float
            assert type(ch.transmit_prob(model, beta, 15)) is float
            assert ch.transmit_prob(model, beta, 15) == ch.transmit_prob(model, float(beta), 15)

    @pytest.mark.parametrize("model", [Rayleigh(2.0), Rician(3.0)], ids=["rayleigh", "rician"])
    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_bad_element_in_an_array_raises(self, model, bad):
        betas = np.array([1.0, bad, 2.0])
        with pytest.raises(DomainError, match="fading_cdf"):
            ch.fading_cdf(model, betas)
        with pytest.raises(DomainError, match="fading_cdf"):
            ch.transmit_prob(model, betas, 15)
