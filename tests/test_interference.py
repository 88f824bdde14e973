"""Interference moments, the Gamma fit, and the SINR error probability."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ORACLE_QUAD,
    agrees_with_oracle,
    fading_pdf,
    p_error_pointwise,
    recording,
    ufunc_error_integrand,
)
from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import specfun
from uavlink import throughput as tp
from uavlink.channel import LinkChannel, Rayleigh, Rician
from uavlink.errors import AccuracyError, DegenerateInterferenceError, DomainError
from uavlink.scenario_io import scenario_from_mapping
from uavlink.specfun import QuadratureSpec
from uavlink.interference import (
    ZERO_INTERFERENCE,
    GammaFit,
    InterfererLink,
    NoiseModel,
    ZeroInterference,
)


def rayleigh_link(beta=0.0, power=1.0, amplitude=1.0, omega=2.0):
    return InterfererLink(
        transmit_power=power,
        path_loss_amplitude=amplitude,
        fading=Rayleigh(omega),
        beta=beta,
    )


def main_link(amplitude=1.0, fading=Rayleigh(2.0)):
    return LinkChannel(fading=fading, path_loss_amplitude=amplitude)


def law(links, num_channels=15):
    """The interference law of ``links`` that ``p_error`` integrates against."""
    return itf.fit_interference(links, num_channels)


class TestInterferenceMoments:
    def test_empty_sum(self):
        assert itf.interference_moments([], 15) == (0.0, 0.0)

    def test_single_full_support_rayleigh(self):
        mean, var = itf.interference_moments([rayleigh_link()], 1)
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert var == pytest.approx(4.0, rel=1e-12)

    def test_two_identical_rayleigh(self):
        links = [rayleigh_link(), rayleigh_link()]
        mean, var = itf.interference_moments(links, 1)
        assert mean == pytest.approx(4.0, rel=1e-12)
        assert var == pytest.approx(8.0, rel=1e-12)

    def test_matches_expanded_cross_term_form(self):
        # per-term accumulation equals the expanded square with cross terms
        links = [
            rayleigh_link(beta=0.5, power=0.7, amplitude=1.3),
            rayleigh_link(beta=1.1, power=0.9, amplitude=0.8),
            InterfererLink(0.6, 1.1, Rician(2.5), 1.8),
        ]
        f = 7
        mean, var = itf.interference_moments(links, f)
        terms_e = []
        terms_s = []
        for link in links:
            phi = ch.transmit_prob(link.fading, link.beta, f)
            t2 = ch.truncated_power_moment(link.fading, link.beta, 2)
            t4 = ch.truncated_power_moment(link.fading, link.beta, 4)
            terms_e.append(link.transmit_power * link.path_loss_amplitude**2 * t2 * phi / f)
            terms_s.append(
                link.transmit_power**2 * link.path_loss_amplitude**4 * t4 * (phi / f) ** 2
            )
        cross = sum(
            terms_e[i] * terms_e[j]
            for i in range(len(links))
            for j in range(len(links))
            if i != j
        )
        expanded = sum(terms_s) + cross - sum(terms_e) ** 2
        assert mean == pytest.approx(sum(terms_e), rel=1e-12)
        assert var == pytest.approx(expanded, rel=1e-9)

    def test_exact_regime_against_monte_carlo(self):
        # single channel, zero thresholds: the moment formulas are exact, so a
        # brute-force draw of the interference sum must match within 3 SE
        links = [
            rayleigh_link(power=0.8, amplitude=1.2),
            InterfererLink(0.6, 0.9, Rician(2.0), 0.0),
        ]
        mean, var = itf.interference_moments(links, 1)
        rng = np.random.default_rng(123)
        n = 10_000_000
        ray = 0.8 * 1.2**2 * 2.0 * rng.exponential(size=n)  # omega=2 amplitude squared
        g = rng.standard_normal((n, 2))
        rice = 0.6 * 0.9**2 * (np.hypot(2.0 + g[:, 0], g[:, 1]) ** 2)
        total = ray + rice
        se_mean = total.std(ddof=1) / math.sqrt(n)
        assert abs(mean - total.mean()) <= 3.0 * se_mean
        sq = (total - total.mean()) ** 2
        se_var = sq.std(ddof=1) / math.sqrt(n)
        assert abs(var - total.var(ddof=1)) <= 3.0 * se_var

    def test_silenced_interferer_contributes_nothing(self):
        base = [rayleigh_link(beta=0.5)]
        with_silenced = base + [rayleigh_link(beta=math.inf)]
        assert itf.interference_moments(with_silenced, 15) == itf.interference_moments(base, 15)

    def test_num_channels_validation(self):
        with pytest.raises(DomainError):
            itf.interference_moments([], 0)


class TestGammaFit:
    def test_unit_exponential(self):
        fit = itf.fit_gamma(1.0, 1.0)
        assert fit.shape == pytest.approx(1.0)
        assert fit.scale == pytest.approx(1.0)

    def test_simple_values(self):
        fit = itf.fit_gamma(4.0, 8.0)
        assert (fit.shape, fit.scale) == (pytest.approx(2.0), pytest.approx(2.0))
        fit = itf.fit_gamma(2.0, 4.0)
        assert (fit.shape, fit.scale) == (pytest.approx(1.0), pytest.approx(2.0))

    @given(
        mean=st.floats(min_value=1e-12, max_value=1e6),
        variance=st.floats(min_value=1e-12, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_moment_identities(self, mean, variance):
        fit = itf.fit_gamma(mean, variance)
        assert fit.shape * fit.scale == pytest.approx(mean, rel=1e-12)
        assert fit.shape * fit.scale * fit.scale == pytest.approx(variance, rel=1e-12)

    def test_composition_with_moments_preserves_them(self):
        links = [
            rayleigh_link(beta=0.8, power=0.7, amplitude=1.1),
            InterfererLink(0.9, 0.6, Rician(3.0), 2.5),
        ]
        mean, variance = itf.interference_moments(links, 15)
        fit = itf.fit_gamma(mean, variance)
        assert fit.shape * fit.scale == pytest.approx(mean, rel=1e-12)
        assert fit.shape * fit.scale * fit.scale == pytest.approx(variance, rel=1e-12)

    def test_degenerate_signals(self):
        with pytest.raises(DegenerateInterferenceError):
            itf.fit_gamma(0.0, 1.0)
        with pytest.raises(DegenerateInterferenceError):
            itf.fit_gamma(1.0, 0.0)

    def test_fit_interference_zero_path(self):
        assert isinstance(itf.fit_interference([], 15), ZeroInterference)
        assert isinstance(
            itf.fit_interference([rayleigh_link(beta=math.inf)], 15), ZeroInterference
        )

    @pytest.mark.parametrize("mix", ["rician", "rayleigh", "mixed"])
    def test_fit_holds_floats(self, mix):
        rician = [
            InterfererLink(0.9, 0.6, Rician(3.0), 2.5),
            InterfererLink(0.5, 0.8, Rician(0.0), 1.0),
        ]
        rayleigh = [rayleigh_link(beta=0.8, power=0.7, amplitude=1.1), rayleigh_link(beta=1.5)]
        links = {"rician": rician, "rayleigh": rayleigh, "mixed": [rician[0], rayleigh[0]]}[mix]
        mean, variance = itf.interference_moments(links, 15)
        assert type(mean) is float and type(variance) is float
        fit = itf.fit_interference(links, 15)
        assert type(fit.shape) is float and type(fit.scale) is float


class TestInterferenceCcdf:
    def test_at_zero(self):
        assert itf.interference_ccdf(GammaFit(2.0, 1.0), 0.0) == 1.0
        assert itf.interference_ccdf(GammaFit(2.0, 1.0), -3.0) == 1.0

    def test_exponential_tail(self):
        assert itf.interference_ccdf(GammaFit(1.0, 2.0), 2.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_integer_shape_closed_form(self):
        assert itf.interference_ccdf(GammaFit(2.0, 1.0), 3.0) == pytest.approx(
            4.0 * math.exp(-3.0), rel=1e-12
        )

    def test_zero_interference_step(self):
        assert itf.interference_ccdf(ZERO_INTERFERENCE, -1e-9) == 1.0
        assert itf.interference_ccdf(ZERO_INTERFERENCE, 0.0) == 0.0
        assert itf.interference_ccdf(ZERO_INTERFERENCE, 5.0) == 0.0

    def test_monotone_and_vanishing(self):
        fit = GammaFit(1.7, 0.4)
        xs = np.linspace(0.0, 30.0, 200)
        values = [itf.interference_ccdf(fit, x) for x in xs]
        assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_log_concave_tail_for_shape_above_one(self):
        fit = GammaFit(2.3, 0.8)
        xs = np.linspace(0.1, 12.0, 80)
        logs = np.log([itf.interference_ccdf(fit, x) for x in xs])
        second = np.diff(logs, 2)
        assert np.all(second <= 1e-9)

    def test_pdf_matches_ccdf_slope(self):
        fit = GammaFit(1.9, 0.7)
        h = 1e-6
        for x in (0.3, 1.2, 4.0):
            slope = (itf.interference_ccdf(fit, x + h) - itf.interference_ccdf(fit, x - h)) / (
                2.0 * h
            )
            assert -slope == pytest.approx(itf.interference_pdf(fit, x), rel=1e-6)


@pytest.mark.parametrize(
    "field, args",
    [("transmit_power", (math.nan, 1.0, 0.5)), ("path_loss_amplitude", (1.0, math.nan, 0.5)),
     ("beta", (1.0, 1.0, math.nan))],
)
def test_interferer_link_rejects_nan_naming_the_field(field, args):
    power, amplitude, beta = args
    with pytest.raises(DomainError, match=f"InterfererLink.{field}"):
        InterfererLink(power, amplitude, Rayleigh(2.0), beta)


class TestNoiseModel:
    def test_power_product(self):
        noise = NoiseModel(boltzmann=1.38e-23, temperature=290.0, bandwidth=1e6)
        assert noise.power == pytest.approx(1.38e-23 * 290.0 * 1e6, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            NoiseModel(temperature=0.0)


class TestPError:
    NOISE = NoiseModel(boltzmann=1.0, temperature=1.0, bandwidth=1.0)  # unit noise power

    def test_zero_when_signal_clears_threshold_at_floor(self):
        # even the worst admitted fading beats the threshold: no interference, no error
        link = main_link(amplitude=10.0)
        p = itf.p_error(link, 1.0, 2.0, self.NOISE, 1.0, fit=ZERO_INTERFERENCE)
        assert p == 0.0

    def test_no_interference_closed_form(self):
        # error mass is the conditional fading CDF between the threshold and
        # the noise-limited floor; compare with direct quadrature
        link = main_link(amplitude=1.0, fading=Rayleigh(2.0))
        gamma_th, power, beta = 1.0, 1.0, 0.5
        x0 = math.sqrt(gamma_th * self.NOISE.power / (power * 1.0**2))
        assert x0 > beta
        p = itf.p_error(link, power, beta, self.NOISE, gamma_th, fit=ZERO_INTERFERENCE)
        oracle, _ = scipy.integrate.quad(
            lambda x: fading_pdf(link.fading, x), beta, x0, epsabs=1e-13, epsrel=1e-12
        )
        oracle /= 1.0 - ch.fading_cdf(link.fading, beta)
        assert p == pytest.approx(oracle, abs=1e-8)

    def test_unconditional_variant_scales_by_transmit_mass(self):
        # the raw integral (the oracle's unconditional form) is p_error times the transmit mass
        link = main_link()
        links = [rayleigh_link(beta=0.3, power=0.4)]
        beta = 1.2
        cond = itf.p_error(link, 1.0, beta, self.NOISE, 1.0, fit=law(links))
        raw = p_error_pointwise(link, 1.0, beta, links, self.NOISE, 1.0, 15, conditional=False)
        mass = 1.0 - ch.fading_cdf(link.fading, beta)
        assert raw == pytest.approx(cond * mass, rel=1e-9)

    def test_adding_interferer_never_decreases_error(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            link = main_link(amplitude=rng.uniform(0.5, 2.0))
            beta = rng.uniform(0.0, 2.0)
            links = []
            previous = itf.p_error(link, 1.0, beta, self.NOISE, 2.0, fit=law(links))
            for _ in range(4):
                links.append(
                    rayleigh_link(
                        beta=rng.uniform(0.0, 2.0),
                        power=rng.uniform(0.3, 1.2),
                        amplitude=rng.uniform(0.5, 1.5),
                    )
                )
                current = itf.p_error(link, 1.0, beta, self.NOISE, 2.0, fit=law(links))
                assert current >= previous - 1e-12
                previous = current

    def test_monotone_in_main_power_and_threshold(self):
        link = main_link()
        links = [rayleigh_link(beta=0.5, power=0.8)]
        powers = np.linspace(0.2, 3.0, 12)
        values = [itf.p_error(link, p, 1.0, self.NOISE, 2.0, fit=law(links)) for p in powers]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))
        thresholds = np.linspace(0.5, 8.0, 12)
        values = [itf.p_error(link, 1.0, 1.0, self.NOISE, g, fit=law(links)) for g in thresholds]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_silenced_main_link_never_errors(self):
        link = main_link()
        links = [rayleigh_link(beta=0.3)]
        assert itf.p_error(link, 1.0, math.inf, self.NOISE, 2.0, fit=law(links)) == 0.0

    def test_validation(self):
        link = main_link()
        with pytest.raises(DomainError):
            itf.p_error(link, 0.0, 1.0, self.NOISE, 2.0, fit=ZERO_INTERFERENCE)
        with pytest.raises(DomainError):
            itf.p_error(link, 1.0, 1.0, self.NOISE, 0.0, fit=ZERO_INTERFERENCE)

    def test_takes_the_law_not_the_interferers(self):
        # a call in the form that took the interferer list and the channel count
        # must fail, not read the list as a fit and integrate no interference
        link = main_link()
        links = [rayleigh_link(beta=0.5)]
        with pytest.raises(TypeError):
            itf.p_error(link, 1.0, 1.3, links, self.NOISE, 0.5, 15)
        with pytest.raises(TypeError):
            itf.p_error(link, 1.0, 1.3, self.NOISE, 0.5, law(links))
        with pytest.raises(TypeError):
            itf.p_error(link, 1.0, 1.3, self.NOISE, 0.5)


class TestPErrorAgainstBruteForce:
    """Gamma-fit error probability vs a direct draw of the interference sum.

    The brute force plays the analytic model's own game (saturated
    interferers, per-channel collisions, best-of-N draws), so the residual
    gap measures the moment-matching and single-draw-tail approximations,
    which must stay within 0.03 absolute in the tail-threshold regime.
    """

    F = 15
    GAMMA = 8.0
    MAIN_POWER = 0.5
    MAIN_AMP = 5e-4

    def brute_force(self, links, main_beta, noise_power, slots, seed):
        rng = np.random.default_rng(seed)
        omega = 2.0

        def best_draws(n):
            # inverse CDF of the best of F i.i.d. draws; argmax uniform by symmetry
            u = rng.random(n)
            values = np.sqrt(-omega * np.log1p(-u ** (1.0 / self.F)))
            channels = rng.integers(0, self.F, n)
            return values, channels

        main_vals, main_ch = best_draws(slots)
        sent = main_vals >= main_beta
        interference = np.zeros(slots)
        for link in links:
            vals, chans = best_draws(slots)
            hits = (vals >= link.beta) & (chans == main_ch)
            interference += np.where(
                hits, link.transmit_power * link.path_loss_amplitude**2 * vals**2, 0.0
            )
        signal = self.MAIN_POWER * self.MAIN_AMP**2 * main_vals**2
        failed = signal < self.GAMMA * (noise_power + interference)
        errors = (failed & sent).sum()
        transmitted = int(sent.sum())
        p = errors / transmitted
        se = math.sqrt(p * (1.0 - p) / transmitted)
        return p, se

    @pytest.mark.parametrize(
        "num_links,beta_m", [(3, 3.3), (2, 3.0), (5, 3.6)]
    )
    def test_gap_within_band(self, num_links, beta_m):
        main_beta = 3.6
        # noise floor at fading 3.68 so the base error is non-trivial
        noise_power = self.MAIN_POWER * self.MAIN_AMP**2 / self.GAMMA * 3.68**2
        noise = NoiseModel(boltzmann=noise_power, temperature=1.0, bandwidth=1.0)
        links = [
            rayleigh_link(beta=beta_m, power=0.8, amplitude=self.MAIN_AMP)
            for _ in range(num_links)
        ]
        link = main_link(amplitude=self.MAIN_AMP)
        analytic = itf.p_error(
            link, self.MAIN_POWER, main_beta, noise, self.GAMMA, fit=law(links, self.F)
        )
        empirical, se = self.brute_force(links, main_beta, noise_power, 600_000, seed=77)
        assert abs(analytic - empirical) <= 0.03 + 3.0 * se


EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"


def kernel(link, power, betas, noise, gamma_th, fit, conditional=True):
    """``p_error`` at ``betas``; unconditioned, it is the raw integral the reduced loss adds,
    ``p_error`` times the transmit mass."""
    grid = itf.p_error(link, power, betas, noise, gamma_th, fit=fit)
    return grid if conditional else grid * (1.0 - ch.fading_cdf(link.fading, betas))


class TestPErrorGrid:
    """The grid kernel against the per-point quadrature of ``tests/oracles.py``."""

    NOISE = NoiseModel(boltzmann=1.0, temperature=1.0, bandwidth=1.0)  # unit noise power

    def check(self, link, power, betas, links, noise, gamma_th, conditional=True):
        grid = kernel(link, power, np.asarray(betas), noise, gamma_th, law(links), conditional)
        assert grid.shape == np.shape(betas)
        for beta, value in zip(np.ravel(betas), grid.ravel()):
            oracle = p_error_pointwise(
                link, power, float(beta), links, noise, gamma_th, 15,
                conditional=conditional, quad=ORACLE_QUAD,
            )
            assert agrees_with_oracle(value, oracle), (beta, value, oracle)
        return grid

    @pytest.mark.parametrize("placement", [0, 1, 23])
    def test_example_views_rayleigh_and_rician(self, placement):
        doc = yaml.safe_load(EXAMPLE.read_text(encoding="utf-8"))
        scenario = scenario_from_mapping({**doc, "placement_seed": placement})
        families = set()
        for node in scenario.nodes:
            view = tp.source_view(scenario, node_id=node.id)
            families.add(type(view.model))
            upper = tp.beta_upper(view.model, view.queue, view.num_channels)
            betas = np.linspace(0.0, upper, 64)
            for conditional in (True, False):
                grid = kernel(
                    view.link, view.power, betas, view.noise, view.sinr_threshold, view.fit,
                    conditional,
                )
                for beta, value in zip(betas, grid):
                    oracle = p_error_pointwise(
                        view.link, view.power, float(beta), view.interferers, view.noise,
                        view.sinr_threshold, view.num_channels, conditional=conditional,
                        quad=ORACLE_QUAD,
                    )
                    assert agrees_with_oracle(value, oracle), (node.id, beta, value, oracle)
        assert families == {Rayleigh, Rician}

    @pytest.mark.parametrize("fading", [Rayleigh(2.0), Rician(3.0)])
    def test_points_below_the_noise_floor(self, fading):
        # unit noise and gamma_th 2 put the floor x0 at sqrt(2): several points lie below it
        link = main_link(fading=fading)
        links = [rayleigh_link(beta=0.5, power=0.6), rayleigh_link(beta=1.5, power=0.9)]
        x0 = math.sqrt(2.0)
        betas = np.linspace(0.0, 4.0, 17)
        assert np.count_nonzero(betas < x0) >= 5
        self.check(link, 1.0, betas, links, self.NOISE, 2.0)
        self.check(link, 1.0, betas, links, self.NOISE, 2.0, conditional=False)

    def test_duplicate_and_unsorted_thresholds(self):
        link = main_link(fading=Rician(2.5))
        links = [rayleigh_link(beta=0.8, power=0.5)]
        betas = [2.0, 0.5, 3.1, 2.0, 0.0, 1.0, 0.5, 3.1]
        grid = self.check(link, 1.0, betas, links, self.NOISE, 0.5)
        assert grid[0] == grid[3] and grid[1] == grid[6] and grid[2] == grid[7]

    def test_infinite_threshold_is_zero_inside_a_grid(self):
        link = main_link()
        links = [rayleigh_link(beta=0.3)]
        grid = self.check(link, 1.0, [1.0, math.inf, 0.2, math.inf], links, self.NOISE, 2.0)
        assert grid[1] == 0.0 and grid[3] == 0.0
        assert itf.p_error(link, 1.0, [math.inf], self.NOISE, 2.0, fit=law(links)).tolist() == [0.0]

    @pytest.mark.parametrize("conditional", [True, False])
    def test_zero_interference(self, conditional):
        link = main_link(fading=Rician(2.0))
        betas = np.linspace(0.0, 3.0, 13)
        self.check(link, 1.0, betas, [], self.NOISE, 2.0, conditional=conditional)
        silenced = [rayleigh_link(beta=math.inf)]
        self.check(link, 1.0, betas, silenced, self.NOISE, 2.0, conditional=conditional)

    def test_scalar_is_a_grid_of_one(self):
        link = main_link(fading=Rician(2.0))
        links = [rayleigh_link(beta=0.4, power=0.7)]
        scalar = itf.p_error(link, 1.0, 1.3, self.NOISE, 0.5, fit=law(links))
        assert isinstance(scalar, float)
        assert scalar == itf.p_error(link, 1.0, [1.3], self.NOISE, 0.5, fit=law(links))[0]
        assert scalar == p_error_pointwise(link, 1.0, 1.3, links, self.NOISE, 0.5, 15)

    def test_keeps_the_shape_of_its_thresholds(self):
        link = main_link()
        links = [rayleigh_link(beta=0.4)]
        betas = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
        grid = self.check(link, 1.0, betas, links, self.NOISE, 0.5)
        assert grid.shape == (2, 3)
        assert itf.p_error(link, 1.0, np.empty(0), self.NOISE, 0.5, fit=law(links)).shape == (0,)

    @pytest.mark.parametrize("bad", [[1.0, -0.1], [math.nan], -1.0])
    def test_rejects_negative_or_nan_thresholds(self, bad):
        with pytest.raises(DomainError):
            itf.p_error(main_link(), 1.0, bad, self.NOISE, 2.0, fit=ZERO_INTERFERENCE)


class TestPErrorPanels:
    NOISE = NoiseModel(boltzmann=1.0, temperature=1.0, bandwidth=1.0)

    def test_gauss_kronrod_rule_is_exact_on_polynomials(self):
        nodes = itf._GK15_NODES
        for degree in range(23):
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert itf._GK15_KRONROD @ nodes**degree == pytest.approx(exact, abs=1e-15)
            if degree <= 13:
                assert itf._GK15_GAUSS @ nodes**degree == pytest.approx(exact, abs=1e-15)
        assert np.count_nonzero(itf._GK15_GAUSS) == 7

    def spy(self, monkeypatch):
        calls = []
        integrate = specfun.integrate

        def recording(f, lo, hi, spec=specfun.DEFAULT_QUAD):
            calls.append((lo, hi))
            return integrate(f, lo, hi, spec)

        monkeypatch.setattr(itf.specfun, "integrate", recording)
        return calls

    def test_a_smooth_scan_needs_no_adaptive_quadrature(self, monkeypatch):
        # the tail above 4 is priced as panels like the gaps below it
        calls = self.spy(monkeypatch)
        link = main_link(fading=Rician(3.0))
        betas = np.linspace(1.5, 4.0, 32)
        itf.p_error(link, 1.0, betas, self.NOISE, 0.5, fit=law([rayleigh_link(beta=0.5)]))
        assert calls == []

    def test_panel_over_tolerance_falls_back_to_adaptive(self, monkeypatch):
        # one panel spans the whole density bump: the 7-point Gauss rule misses it
        # (it starts above the noise floor sqrt(0.5), so it is not graded); its start
        # takes the adaptive integral up to infinity
        calls = self.spy(monkeypatch)
        link = main_link(fading=Rayleigh(2.0))
        links = [rayleigh_link(beta=0.5, power=0.6)]
        betas = [1.0, 6.0]
        grid = itf.p_error(link, 1.0, betas, self.NOISE, 0.5, fit=law(links))
        assert calls == [(1.0, math.inf)]
        for beta, value in zip(betas, grid):
            oracle = p_error_pointwise(
                link, 1.0, beta, links, self.NOISE, 0.5, 15, quad=ORACLE_QUAD
            )
            assert agrees_with_oracle(value, oracle)

    def test_floor_panel_is_graded_not_re_integrated(self, monkeypatch):
        # the panel from the noise floor sqrt(0.5) to 6 starts where the Gamma
        # tail (shape 0.97 < 1) has an unbounded slope; its graded sub-panels
        # meet the tolerance share without an adaptive quadrature, and so does the tail
        calls = self.spy(monkeypatch)
        link = main_link(fading=Rayleigh(2.0))
        links = [rayleigh_link(beta=0.5, power=0.6)]
        assert itf.fit_interference(links, 15).shape < 1.0
        betas = [0.0, 6.0]
        grid = itf.p_error(link, 1.0, betas, self.NOISE, 0.5, fit=law(links))
        assert calls == []
        for beta, value in zip(betas, grid):
            oracle = p_error_pointwise(
                link, 1.0, beta, links, self.NOISE, 0.5, 15, quad=ORACLE_QUAD
            )
            assert abs(value - oracle) <= 1e-12

    def test_tail_over_tolerance_falls_back_to_adaptive(self, monkeypatch):
        # the density bump near 8, under interference strong enough to matter there, lies
        # far above the largest limit 2: the tail's panels in t (x = 2 + t / (1 - t)) sample
        # it too coarsely
        calls = self.spy(monkeypatch)
        link, fit = main_link(fading=Rician(8.0)), GammaFit(3.0, 40.0)
        betas = [1.0, 2.0]
        grid = itf.p_error(link, 1.0, betas, self.NOISE, 0.5, fit=fit)
        assert calls == [(2.0, math.inf)]
        for beta, value in zip(betas, grid):
            oracle = p_error_pointwise(
                link, 1.0, beta, None, self.NOISE, 0.5, 15, quad=ORACLE_QUAD, fit=fit
            )
            assert agrees_with_oracle(value, oracle)

    def test_a_top_limit_near_the_float_range_warns_of_nothing(self):
        # x * x overflows at the nodes above 1e199, where the density is 0
        link = main_link(fading=Rician(3.0))
        fit = law([rayleigh_link(beta=0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grid = itf.p_error(link, 1.0, [1e199, 1e200], self.NOISE, 0.5, fit=fit)
        assert grid.tolist() == [0.0, 0.0]

    @given(
        fading=st.one_of(st.floats(0.2, 8.0).map(Rayleigh), st.floats(0.0, 8.0).map(Rician)),
        top=st.floats(0.2, 8.0),
        shape=st.one_of(st.floats(0.2, 0.95), st.floats(2.05, 8.0)),
        scale=st.floats(0.3, 10.0),
        gamma_th=st.floats(0.05, 1.0),
        points=st.integers(2, 9),
    )
    # the largest limit 1.5 lies far below the bump at 8, where the interference still
    # matters: the tail falls back
    @example(fading=Rician(8.0), top=1.5, shape=8.0, scale=10.0, gamma_th=1.0, points=3)
    @settings(max_examples=60, deadline=None)
    def test_scans_agree_with_the_oracle(self, fading, top, shape, scale, gamma_th, points):
        # the kernel's tolerance bounds the raw integral; the conditional value divides it
        # by a transmit mass that falls to 1e-13 here, so the raw integral is compared
        link, fit = main_link(fading=fading), GammaFit(shape, scale)
        betas = np.linspace(0.0, top, points)
        grid = kernel(link, 1.0, betas, self.NOISE, gamma_th, fit, conditional=False)
        for beta, value in zip(betas.tolist(), grid.tolist()):
            oracle = p_error_pointwise(
                link, 1.0, beta, None, self.NOISE, gamma_th, 15, conditional=False,
                quad=ORACLE_QUAD, fit=fit,
            )
            assert agrees_with_oracle(value, oracle), (beta, value, oracle)

    @pytest.mark.parametrize("second", [10.0, 1e2, 1e4, 1e6, 1e10, 1e100, 1e300])
    @pytest.mark.parametrize("num_channels, want", [(15, 0.58215739), (1, 0.95123396)])
    def test_a_wide_gap_keeps_the_density_mass(self, second, num_channels, want):
        # every node of one panel over [1, second] lies where the density underflows, so
        # Kronrod and Gauss agree on 0; the density's mass F(second) - F(1) tells the miss
        link = main_link(fading=Rayleigh(2.0))
        fit = law([rayleigh_link(beta=0.5, power=60.0)], num_channels)
        alone = itf.p_error(link, 1.0, 1.0, self.NOISE, 0.5, fit=fit)
        grid = itf.p_error(link, 1.0, [1.0, second], self.NOISE, 0.5, fit=fit)
        assert round(alone, 8) == want
        assert agrees_with_oracle(grid[0], alone) and grid[1] == 0.0

    @given(
        fading=st.one_of(st.floats(0.3, 4.0).map(Rayleigh), st.floats(0.0, 8.0).map(Rician)),
        start=st.floats(0.0, 3.0),
        gaps=st.lists(st.floats(-1.0, 6.0), min_size=1, max_size=3),
        shape=st.one_of(st.floats(0.2, 0.95), st.floats(2.05, 8.0)),
        scale=st.floats(0.3, 10.0),
        gamma_th=st.floats(0.05, 1.0),
    )
    @example(fading=Rayleigh(2.0), start=0.7, gaps=[4.0], shape=0.9, scale=3.0, gamma_th=0.5)
    @settings(max_examples=60, deadline=None)
    def test_wide_scans_agree_with_the_oracle(self, fading, start, gaps, shape, scale, gamma_th):
        # gaps log-uniform from 0.1 to 1e6 times the density's scale, sqrt(omega) or 1
        unit = math.sqrt(fading.omega) if isinstance(fading, Rayleigh) else 1.0
        betas = unit * (start + np.cumsum(np.concatenate(([0.0], 10.0 ** np.array(gaps)))))
        link, fit = main_link(fading=fading), GammaFit(shape, scale)
        grid = kernel(link, 1.0, betas, self.NOISE, gamma_th, fit, conditional=False)
        for beta, value in zip(betas.tolist(), grid.tolist()):
            oracle = p_error_pointwise(
                link, 1.0, beta, None, self.NOISE, gamma_th, 15, conditional=False,
                quad=ORACLE_QUAD, fit=fit,
            )
            assert agrees_with_oracle(value, oracle), (beta, value, oracle)

    @pytest.mark.parametrize("fading", [Rayleigh(2.0), Rician(3.0)], ids=["rayleigh", "rician"])
    def test_grid_of_one_is_one_adaptive_quadrature(self, monkeypatch, fading):
        calls = self.spy(monkeypatch)
        links = [rayleigh_link(beta=0.5, power=0.6)]
        itf.p_error(main_link(fading=fading), 1.0, 1.3, self.NOISE, 0.5, fit=law(links))
        assert calls == [(1.3, math.inf)]

    def test_given_cdf_is_used_in_place_of_evaluating_it(self, monkeypatch):
        link = main_link(fading=Rician(2.0))
        links = [rayleigh_link(beta=0.4, power=0.7)]
        betas = np.array([0.0, 0.9, 1.7, math.inf])
        cdf = ch.fading_cdf(link.fading, betas)
        fit = itf.fit_interference(links, 15)
        expected = itf.p_error(link, 1.0, betas, self.NOISE, 0.5, fit=fit)
        calls = []
        monkeypatch.setattr(itf.channel, "fading_cdf", None)
        monkeypatch.setattr(itf.channel, "_cdf", recording(calls, ch._cdf))
        price = itf._error_grid(link, 1.0, self.NOISE, 0.5, betas, cdf, scan=True)
        assert price(fit).tolist() == expected.tolist()
        # the kernel evaluates F at its own noise floor only
        assert calls == [(link.fading, itf.noise_floor(link, 1.0, self.NOISE, 0.5))]

    def test_failed_fallback_raises_with_best_estimate(self, monkeypatch):
        # two subdivisions suffice for the vanishing tail above 8 but not for the integral
        # above 1 that the failed panel below it takes
        link = main_link(fading=Rayleigh(2.0))
        links = [rayleigh_link(beta=0.5, power=0.6)]
        monkeypatch.setattr(itf, "DEFAULT_QUAD", QuadratureSpec(max_subdivisions=2))
        assert itf.p_error(link, 1.0, 8.0, self.NOISE, 0.5, fit=law(links)) == 0.0
        with pytest.raises(AccuracyError) as excinfo:
            itf.p_error(link, 1.0, [1.0, 8.0], self.NOISE, 0.5, fit=law(links))
        assert "[1.0, inf]" in str(excinfo.value)
        assert math.isfinite(excinfo.value.best_estimate)
        assert excinfo.value.best_estimate > 0.0
        assert excinfo.value.error_estimate > 0.0


class TestTailIntegrand:
    """The float integrand of the adaptive quadrature against its ufunc form."""

    @pytest.mark.parametrize(
        "fading", [Rayleigh(2.0), Rayleigh(0.7), Rician(0.0), Rician(1.3), Rician(5.4)], ids=repr
    )
    def test_bit_equal_to_the_ufunc_integrand(self, fading):
        # margin 1.7 and noise 0.9 put x0 near 0.73; the scales carry z = excess/scale
        # through the recurrence band (0.1, 2) of the shapes below 1
        rng = np.random.default_rng(5)
        nodes = np.concatenate([np.linspace(0.0, 12.0, 2001), rng.uniform(0.6, 1.6, 2000)])
        in_band = 0
        for shape, scale in ((0.46, 0.8), (0.82, 2.0), (0.999, 0.3), (1.0, 1.0), (3.7, 0.5)):
            fit = GammaFit(shape, scale)
            got = itf._tail_integrand(fading, fit, 1.7, 0.9)
            want = ufunc_error_integrand(fading, fit, 1.7, 0.9)
            for x in nodes.tolist():
                value = got(x)
                assert isinstance(value, float)
                assert np.float64(value).view(np.int64) == np.float64(want(x)).view(np.int64), x
            z = (1.7 * nodes**2 - 0.9) / scale
            in_band += int(np.count_nonzero((0.1 < z) & (z < 2.0))) if shape < 1.0 else 0
        assert len(nodes) * 5 >= 10_000 and in_band >= 1_000
