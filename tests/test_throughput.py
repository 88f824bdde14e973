"""Loss composition, threshold bounds, derivatives, and the optimizer."""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ORACLE_QUAD,
    agrees_with_oracle,
    beta_lower_layered,
    beta_upper_erf,
    brentq_bound,
    jacobi_rebuilding,
    loss_derivative_layered,
    p_error_pointwise,
    recording,
    reduced_loss,
    scenario_policy,
)
from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import presets as ps
from uavlink import queueing as qn
from uavlink import simulator as sim
from uavlink import throughput as tp
from uavlink.channel import Rayleigh, Rician, transmit_prob
from uavlink.errors import (
    DomainError,
    LowerBoundNotFoundError,
    ScenarioError,
    StabilityError,
)
from uavlink.queueing import QueueParams, p_delay
from uavlink.scenario_io import scenario_from_mapping
from uavlink.specfun import QuadratureSpec
from uavlink.throughput import PolicyVector

probabilities = st.floats(min_value=0.0, max_value=1.0)

EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"


def queue(arrival_rate=80.0, slot=0.002, deadline=0.045, buffer_norm=100.0):
    return QueueParams(arrival_rate, slot, deadline, buffer_norm)


def rician_scenario(num_interferers=2, beta=2.0, interferer_beta=2.0, seed=3):
    doc = {
        "placement_seed": seed,
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [1.0, 1.0, 0.0],
                "transmit_power": 0.75,
                "fading": "rician",
                "beta": beta,
                "queue": {
                    "arrival_rate": 80.0,
                    "delay_threshold": 0.045,
                    "buffer_capacity_normalized": 100.0,
                },
            },
            *[
                {
                    "id": f"i{k}",
                    "role": "interferer",
                    "position": "sampled",
                    "transmit_power": "sampled",
                    "fading": "rician",
                    "beta": interferer_beta,
                }
                for k in range(num_interferers)
            ],
        ],
    }
    return scenario_from_mapping(doc)


def rayleigh_scenario(beta=1.0, interferer_betas=(1.0, 0.8), seed=3):
    doc = {
        "placement_seed": seed,
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [1.0, 1.0, 0.0],
                "transmit_power": 0.6,
                "fading": "rayleigh",
                "beta": beta,
                "queue": {
                    "arrival_rate": 80.0,
                    "delay_threshold": 0.045,
                    "buffer_capacity_normalized": 100.0,
                },
            },
            *[
                {
                    "id": f"i{k}",
                    "role": "interferer",
                    "position": "sampled",
                    "transmit_power": "sampled",
                    "fading": "rayleigh",
                    "beta": b,
                }
                for k, b in enumerate(interferer_betas)
            ],
        ],
    }
    return scenario_from_mapping(doc)


@functools.cache
def _view(family):
    scenario = rayleigh_scenario() if family == "rayleigh" else rician_scenario()
    return tp.source_view(scenario)


def with_betas(scenario, betas):
    """The scenario with each node's threshold read from the mapping ``betas``."""
    return dataclasses.replace(scenario, nodes=tuple(
        dataclasses.replace(node, beta=betas[node.id]) for node in scenario.nodes))


def _points(view, betas):
    """``betas`` priced as a sweep prices them: prepared as points, then against the fit."""
    return tp._breakdowns(view, tp._prepare_grid(view, betas, scan=False), view.fit)


class TestComposeLoss:
    @given(family=st.sampled_from(["rayleigh", "rician"]), fraction=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_product_identity(self, family, fraction):
        # a breakdown composes its loss left to right: overflow, deadline drop, SINR error
        view = _view(family)
        b = tp.evaluate_view(view, fraction * view.upper)
        assert 0.0 <= b.p_loss <= 1.0
        assert b.p_loss == 1.0 - (1.0 - b.p_overflow) * (1.0 - b.p_delay) * (1.0 - b.p_error)
        assert b.p_loss >= max(b.p_overflow, b.p_delay, b.p_error) - 1e-12


class TestBetaUpper:
    def test_rayleigh_single_channel_collapse(self):
        # with one channel the bound is sqrt(-omega ln(load)): load e^-1 gives sqrt(2)
        q = queue(arrival_rate=math.exp(-1.0) / 0.002)
        assert tp.beta_upper(Rayleigh(2.0), q, 1) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_rayleigh_fifteen_channels(self):
        q = queue()
        assert tp.beta_upper(Rayleigh(2.0), q, 15) == pytest.approx(
            2.9868134960168306, rel=1e-12
        )

    @pytest.mark.parametrize(
        "model", [Rayleigh(2.0), Rician(1.2), Rician(math.sqrt(30.0)), Rician(ch.RICIAN_B_MAX)],
        ids=str,
    )
    def test_transmit_prob_equals_load_at_bound(self, model):
        q = queue()
        upper = tp.beta_upper(model, q, 15)
        load = q.arrival_rate * q.slot_duration
        assert transmit_prob(model, upper, 15) == pytest.approx(load, abs=1e-9)

    @pytest.mark.parametrize("model", [Rayleigh(2.0), Rician(math.sqrt(30.0))], ids=str)
    def test_deadline_drop_is_certain_at_bound(self, model):
        q = queue()
        upper = tp.beta_upper(model, q, 15)
        phi = transmit_prob(model, upper, 15)
        assert p_delay(phi, q) == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_load(self):
        with pytest.raises(DomainError):
            tp.beta_upper(Rayleigh(2.0), queue(arrival_rate=500.1), 15)

    def test_erf_surrogate_at_high_los_strength(self):
        q = queue()
        model = Rician(math.sqrt(30.0))
        exact = tp.beta_upper(model, q, 15)
        surrogate = beta_upper_erf(model, q, 15)
        assert abs(exact - surrogate) < 0.1

    def test_erf_surrogate_rejects_rayleigh(self):
        with pytest.raises(DomainError):
            beta_upper_erf(Rayleigh(2.0), queue(), 15)

    def test_deadline_drop_continuous_at_the_bound(self):
        q = queue()
        model = Rician(4.0)
        upper = tp.beta_upper(model, q, 15)
        values = [
            p_delay(transmit_prob(model, upper - eps, 15), q)
            for eps in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-5)


def placed(name: str, placement: int):
    """The example's scenario or a preset's at ``placement``."""
    if name == "example":
        return scenario_from_mapping({**yaml.safe_load(EXAMPLE.read_text()),
                                      "placement_seed": placement})
    return ps.preset_scenario(name, placement)


class TestBetaUpperIsBrentq:
    """The Rician bound is Brent's root scipy's ``brentq`` finds, to the last bit."""

    @pytest.mark.parametrize("placement", range(8))
    @pytest.mark.parametrize("name", ["example", "fig2", "fig3", "fig4", "fig5"])
    def test_on_every_rician_node_of_the_example_and_the_presets(self, name, placement):
        scenario = placed(name, placement)
        rician = [(scenario.links[node.id].fading, node.queue) for node in scenario.nodes
                  if isinstance(scenario.links[node.id].fading, Rician)]
        assert rician
        for model, q in rician:
            want = brentq_bound(model, q, scenario.num_channels)
            assert tp.beta_upper(model, q, scenario.num_channels) == want

    @settings(max_examples=300, deadline=None)
    @given(b=st.floats(0.0, 40.0),
           load=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           num_channels=st.integers(1, 30))
    def test_on_any_rician_load_and_channel_count(self, b, load, num_channels):
        model, q = Rician(b), queue(arrival_rate=load, slot=1.0)
        assert tp.beta_upper(model, q, num_channels) == brentq_bound(model, q, num_channels)


def richardson_first(f, x, h):
    d = lambda step: (f(x + step) - f(x - step)) / (2.0 * step)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def richardson_second(f, x, h):
    d = lambda step: (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


TIGHT = QuadratureSpec(absolute_tolerance=1e-13, relative_tolerance=1e-12, max_subdivisions=400)


def reduced_loss_pointwise(view, beta, quad=TIGHT):
    """:func:`oracles.reduced_loss` from the per-point oracle at ``quad``'s tolerances."""
    phi = transmit_prob(view.model, beta, view.num_channels)
    return p_delay(phi, view.queue) + p_error_pointwise(
        view.link, view.power, beta, view.interferers, view.noise, view.sinr_threshold,
        view.num_channels, conditional=False, quad=quad, fit=view.fit,
    )


class TestReducedLoss:
    @pytest.mark.parametrize("placement", [0, 1])
    def test_agrees_with_the_pointwise_oracle(self, placement):
        doc = yaml.safe_load(EXAMPLE.read_text(encoding="utf-8"))
        scenario = scenario_from_mapping({**doc, "placement_seed": placement})
        families = set()
        for node in scenario.nodes:
            view = tp.source_view(scenario, node_id=node.id)
            families.add(type(view.model))
            for beta in np.linspace(0.0, 0.999 * view.upper, 8).tolist():
                value = reduced_loss(view, beta)
                oracle = reduced_loss_pointwise(view, beta, ORACLE_QUAD)
                assert agrees_with_oracle(value, oracle), (node.id, beta, value, oracle)
        assert families == {Rayleigh, Rician}


class TestLossDerivative:
    @pytest.mark.parametrize("family", ["rician", "rayleigh"])
    def test_matches_finite_differences(self, family):
        scenario = rician_scenario() if family == "rician" else rayleigh_scenario()
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        f = lambda b: reduced_loss_pointwise(view, b)
        for beta in np.linspace(0.15 * upper, 0.97 * upper, 8):
            first, second = tp.loss_derivative(view, float(beta))
            fd1 = richardson_first(f, float(beta), 1e-5)
            fd2 = richardson_second(f, float(beta), 1e-3)
            assert first == pytest.approx(fd1, rel=1e-4)
            assert second == pytest.approx(fd2, rel=1e-3)

    def test_error_slope_vanishes_at_origin_limit(self):
        # multi-channel deadline term carries a cdf^(F-1) factor, so the total
        # slope near zero is the negative error term alone
        scenario = rayleigh_scenario()
        view = tp.source_view(scenario)
        first, _ = tp.loss_derivative(view, 1e-6)
        assert first < 0.0

    def test_rejects_infeasible_beta(self):
        scenario = rayleigh_scenario()
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        with pytest.raises(StabilityError):
            tp.loss_derivative(view, upper * 1.01)
        with pytest.raises(DomainError):
            tp.loss_derivative(view, 0.0)


    @pytest.mark.parametrize("family", ["rician", "rayleigh"])
    def test_array_matches_scalar_calls(self, family):
        view = _view(family)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        betas = np.linspace(upper * 1e-3, upper * (1.0 - 1e-9), 97)
        first, second = tp.loss_derivative(view, betas)
        assert first.shape == second.shape == betas.shape
        for beta, d1, d2 in zip(betas, first, second):
            s1, s2 = tp.loss_derivative(view, float(beta))
            assert isinstance(s1, float) and isinstance(s2, float)
            assert d1 == pytest.approx(s1, rel=1e-12, abs=1e-300)
            assert d2 == pytest.approx(s2, rel=1e-12, abs=1e-300)

    def test_array_rejects_any_point_out_of_range(self):
        view = _view("rayleigh")
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        with pytest.raises(StabilityError) as excinfo:
            tp.loss_derivative(view, np.array([0.5 * upper, 1.01 * upper, 0.2 * upper]))
        assert str(excinfo.value) == (f"node 'src': beta {1.01 * upper:.6g} is at or beyond the"
                                      f" stability bound {upper:.6g}")
        with pytest.raises(DomainError):
            tp.loss_derivative(view, np.array([0.5 * upper, 0.0]))


class TestBetaLower:
    def test_scans_with_one_bound_and_one_array_call(self, monkeypatch):
        view = tp.source_view(rician_scenario())  # not the shared view, whose bound is kept
        bounds, prepared, scans = [], [], []
        beta_upper, loss_derivatives = tp.beta_upper, tp._loss_derivatives

        def counting_upper(*args):
            bounds.append(args)
            return beta_upper(*args)

        def recording_kernel(view):
            prepared.append(view)
            derivatives = loss_derivatives(view)

            def recording(betas):
                scans.append(np.size(betas))
                return derivatives(betas)

            return recording

        monkeypatch.setattr(tp, "beta_upper", counting_upper)
        monkeypatch.setattr(tp, "_loss_derivatives", recording_kernel)
        lower = tp.beta_lower(view)
        assert len(bounds) == 1 and prepared == [view]
        # the grid, then at most three array scans of the bracketing cell
        assert scans[0] == 512 and 2 <= len(scans) <= 4
        assert all(1 < n <= 32 for n in scans[1:])
        assert 0.0 < lower

    def test_missing_sign_change_names_the_node_and_the_range(self, monkeypatch):
        view = _view("rayleigh")
        loss_derivatives = tp._loss_derivatives

        def concave(view):
            derivatives = loss_derivatives(view)

            def curvature(betas):
                first, second = derivatives(betas)
                return first, -np.abs(second) - 1.0

            return curvature

        monkeypatch.setattr(tp, "_loss_derivatives", concave)
        with pytest.raises(LowerBoundNotFoundError) as excinfo:
            tp.beta_lower(view)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        assert str(excinfo.value) == ("node 'src': reduced-loss curvature never turns positive"
                                      f" on the feasible range (0, {upper:.6g})")

    def test_positive_curvature_from_start_gives_zero(self):
        # no interferers and an overwhelming signal: the error term is flat
        # and the deadline curvature is positive from the start
        doc = {
            "nodes": [
                {
                    "id": "src",
                    "role": "source",
                    "position": [1.0, 1.0, 0.0],
                    "transmit_power": 500.0,
                    "fading": "rayleigh",
                    "beta": 1.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                }
            ]
        }
        view = tp.source_view(scenario_from_mapping(doc))
        assert tp.beta_lower(view) == 0.0

    def test_interior_bound_below_operating_point(self):
        scenario = rician_scenario(num_interferers=9, beta=5.1, interferer_beta=5.1, seed=7)
        view = tp.source_view(scenario)
        lower = tp.beta_lower(view)
        assert 0.0 < lower < 5.1

    def test_agrees_with_dense_scan(self):
        scenario = rayleigh_scenario()
        view = tp.source_view(scenario)
        refined = tp.beta_lower(view)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        dense = np.linspace(upper * 1e-3, upper * (1.0 - 1e-9), 100_000)
        curv = np.array([tp.loss_derivative(view, float(b))[1] for b in dense])
        first_positive = dense[int(np.nonzero(curv > 0)[0][0])]
        assert refined == pytest.approx(first_positive, abs=1e-4)


class TestPreparedDerivativesAreTheLayeredOnes:
    """``loss_derivative`` and ``beta_bounds`` through the view's prepared kernel give, to
    the last bit, what every call checking and deriving afresh gave
    (``oracles.loss_derivative_layered`` and ``beta_lower_layered``)."""

    @pytest.mark.parametrize("placement", range(8))
    @pytest.mark.parametrize("name", ["example", "fig2", "fig3", "fig4", "fig5"])
    def test_on_every_example_node_and_preset_source(self, name, placement):
        scenario = placed(name, placement)
        nodes = scenario.nodes if name == "example" else (scenario.source(),)
        for node in nodes:
            view = tp.source_view(scenario, node_id=node.id)
            grid = np.linspace(view.upper * 1e-3, view.upper * (1.0 - 1e-9), 77)
            got, want = tp.loss_derivative(view, grid), loss_derivative_layered(view, grid)
            assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in want])
            for beta in grid[::19].tolist():
                got, want = tp.loss_derivative(view, beta), loss_derivative_layered(view, beta)
                assert repr(got) == repr(want), (node.id, beta)
            want = tp.BetaBounds(lower=beta_lower_layered(view), upper=view.upper)
            assert repr(tp.beta_bounds(view)) == repr(want), node.id


class TestEvaluate:
    def test_best_case_composition(self):
        doc = {
            "nodes": [
                {
                    "id": "src",
                    "role": "source",
                    "position": [10.0, 10.0, 0.0],
                    "transmit_power": 500.0,
                    "fading": "rayleigh",
                    "beta": 0.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 5000.0,
                    },
                }
            ]
        }
        scenario = scenario_from_mapping(doc)
        breakdown = tp.evaluate(scenario)
        q = scenario.nodes[0].queue
        # at beta=0 a sliver of fading mass sits under the noise floor
        assert breakdown.p_error < 1e-9
        assert breakdown.p_overflow < 1e-300
        assert breakdown.p_loss == pytest.approx(p_delay(1.0, q), rel=0.05)
        assert breakdown.throughput == pytest.approx(80.0, rel=1e-6)

    def test_error_exactly_zero_above_noise_floor(self):
        # thresholded fading always clears the SINR gate when no one interferes
        doc = {
            "nodes": [
                {
                    "id": "src",
                    "role": "source",
                    "position": [10.0, 10.0, 0.0],
                    "transmit_power": 500.0,
                    "fading": "rayleigh",
                    "beta": 2.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 5000.0,
                    },
                }
            ]
        }
        breakdown = tp.evaluate(scenario_from_mapping(doc))
        assert breakdown.p_error == 0.0

    def test_upper_bound_zeroes_throughput(self):
        scenario = rician_scenario()
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        policy = PolicyVector({**scenario_policy(scenario).betas, "src": upper})
        breakdown = tp.evaluate(scenario, policy)
        assert breakdown.p_delay == pytest.approx(1.0, abs=1e-9)
        assert breakdown.throughput == pytest.approx(0.0, abs=1e-6)

    def test_beyond_upper_bound_raises_with_node(self):
        scenario = rician_scenario()
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        policy = PolicyVector({**scenario_policy(scenario).betas, "src": upper + 0.2})
        with pytest.raises(StabilityError, match="^node 'src': beta "):
            tp.evaluate(scenario, policy)

    @given(
        family=st.sampled_from(["rayleigh", "rician"]),
        excess=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )
    @example(family="rayleigh", excess=1e3)
    @example(family="rician", excess=1e3)
    @settings(max_examples=60, deadline=None)
    def test_every_beta_beyond_bound_raises_with_node(self, family, excess):
        # thresholds within the queue's boundary tolerance count as on the
        # bound (deadline drop 1), so start a relative 1e-6 beyond it; far
        # out the transmit probability rounds to 0, which must not change
        # the outcome
        view = _view(family)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        beta = upper * (1.0 + 1e-6) + excess
        with pytest.raises(StabilityError, match=r"^node 'src': beta \S+ exceeds the stability"
                                                 r" bound \(unstable queue: service rate \S+/s"
                                                 r" is below arrival rate \S+/s\)$"):
            tp.evaluate_view(view, beta)

    @pytest.mark.parametrize(
        "field, value, named",
        [("power", 0.0, "main_power"), ("sinr_threshold", -1.0, "gamma_th")],
    )
    def test_nonpositive_power_or_sinr_threshold_is_a_named_domain_error(self, field, value, named):
        view = dataclasses.replace(_view("rician"), **{field: value})
        with pytest.raises(DomainError, match=named):
            tp.evaluate_view(view, 1.0)

    @pytest.mark.parametrize("family", ["rayleigh", "rician"])
    def test_never_transmitting_node_is_unstable_by_its_arrival_rate(self, family):
        view = _view(family)
        assert transmit_prob(view.model, 1e3, view.num_channels) == 0.0
        with pytest.raises(StabilityError) as excinfo:
            tp.evaluate_view(view, 1e3)
        assert str(excinfo.value) == (
            "node 'src': beta 1000 exceeds the stability bound (unstable queue: service rate"
            f" 0/s is below arrival rate {view.queue.arrival_rate:.6g}/s)"
        )

    def test_raising_interferer_threshold_never_hurts(self):
        scenario = rician_scenario(num_interferers=4, beta=4.0, interferer_beta=2.0, seed=11)
        policy = scenario_policy(scenario)
        previous = tp.evaluate(scenario, policy).throughput
        for value in (3.0, 4.5, 6.0, 8.0):
            policy = PolicyVector({**policy.betas, "i2": value})
            current = tp.evaluate(scenario, policy).throughput
            assert current >= previous - 1e-9
            previous = current


class TestEvaluateGrid:
    @pytest.mark.parametrize("family", ["rayleigh", "rician"])
    def test_matches_per_threshold_evaluation(self, family):
        view = _view(family)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        grid = [*np.linspace(0.0, 1.4 * upper, 62).tolist(), upper, math.inf]
        results = _points(view, grid)
        assert len(results) == 64
        unstable = 0
        for beta, result in zip(grid, results):
            try:
                single = tp.evaluate_view(view, beta)
            except StabilityError as exc:
                unstable += 1
                assert isinstance(result, StabilityError)
                assert str(result) == str(exc)
                assert str(exc).startswith("node 'src': ")
                continue
            assert isinstance(result, tp.LossBreakdown)
            assert dataclasses.astuple(result) == dataclasses.astuple(single)  # every field, exactly
        assert 1 < unstable < 64

    @given(
        family=st.sampled_from(["rayleigh", "rician"]),
        # fractions of the noise floor, of the bound beyond it, and beyond the bound
        picks=st.lists(
            st.one_of(
                st.tuples(st.just("floor"), st.floats(0.0, 1.0)),
                st.tuples(st.just("bound"), st.floats(0.0, 1.0)),
                st.tuples(st.just("beyond"), st.floats(1.0, 2.0)),
                st.just(("inf", 0.0)),
            ),
            min_size=1, max_size=8,
        ),
        repeats=st.integers(0, 3),
    )
    @example(family="rician", picks=[("floor", 0.5), ("floor", 0.0), ("inf", 0.0)], repeats=2)
    @example(family="rayleigh", picks=[("bound", 1.0), ("beyond", 1.2), ("floor", 1.0)], repeats=1)
    @settings(max_examples=40, deadline=None)
    def test_points_are_their_grids_of_one(self, family, picks, repeats):
        view = _view(family)
        x0 = itf.noise_floor(view.link, view.power, view.noise, view.sinr_threshold)
        upper = view.upper
        at = {"floor": lambda f: f * x0, "bound": lambda f: x0 + f * (upper - x0),
              "beyond": lambda f: f * upper, "inf": lambda f: math.inf}
        betas = [at[kind](f) for kind, f in picks]
        betas += betas[:repeats]
        for beta, result in zip(betas, _points(view, betas)):
            try:
                alone = tp.evaluate_view(view, beta)
            except StabilityError as exc:
                assert isinstance(result, StabilityError)
                assert str(result) == str(exc)
                continue
            assert isinstance(result, tp.LossBreakdown)
            got, want = np.array(dataclasses.astuple(result)), np.array(dataclasses.astuple(alone))
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), beta

    def spy(self, monkeypatch):
        calls = []
        cdf = tp.ch._cdf  # every evaluation of F, checked or not

        def counting(model, beta):
            calls.append(np.size(beta))
            return cdf(model, beta)

        monkeypatch.setattr(tp.ch, "_cdf", counting)
        return calls

    @pytest.mark.parametrize("family", ["rayleigh", "rician"])
    def test_one_fading_cdf_per_grid_and_per_derivative_scan(self, family, monkeypatch):
        view = _view(family)
        upper = view.upper
        # the view's bound and fit evaluate F themselves, so they come first
        view.fit
        grid = np.linspace(0.0, upper, 64)
        calls = self.spy(monkeypatch)
        _points(view, grid)
        assert calls == [64, 1]  # F at the thresholds, then the kernel's F at its noise floor
        calls.clear()
        tp.loss_derivative(view, grid[1:-1])
        assert calls == [62]


class TestChecksAtTheEntry:
    """Thresholds are checked where they enter; a grid runs the unchecked private formulas."""

    @staticmethod
    def thresholds(view, layout, fractions):
        upper, x0 = view.upper, itf.noise_floor(view.link, view.power, view.noise,
                                                 view.sinr_threshold)
        if layout == "one":
            return [fractions[0] * upper]
        if layout == "floor":  # around and below the noise floor
            return [f * x0 for f in fractions]
        if layout == "grid":  # a best-response grid and an off-grid previous threshold
            return [*np.linspace(0.0, upper, 64).tolist(), fractions[0] * upper]
        return [upper]

    @given(
        family=st.sampled_from(["rayleigh", "rician"]),
        layout=st.sampled_from(["one", "floor", "grid", "upper"]),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=4),
    )
    @example(family="rayleigh", layout="floor", fractions=[0.0, 0.5, 1.0, 1.2])
    @example(family="rician", layout="floor", fractions=[0.3, 0.3, 1.1])
    @example(family="rayleigh", layout="grid", fractions=[1.1])
    @example(family="rician", layout="upper", fractions=[0.0])
    @settings(max_examples=60, deadline=None)
    def test_every_float_equals_the_public_checked_chain(self, family, layout, fractions):
        view = _view(family)
        betas = self.thresholds(view, layout, fractions)
        results = _points(view, betas)
        rows = [r for r in results if isinstance(r, tp.LossBreakdown)]
        stable = np.array([b for b, r in zip(betas, results) if isinstance(r, tp.LossBreakdown)])
        if layout != "one":
            assert rows  # the noise floor and the bound itself are stable
        mu = 1.0 - ch.fading_cdf(view.model, stable) ** view.num_channels
        p_dly, p_ov = qn.p_delay(mu, view.queue), qn.p_overflow(mu, view.queue)
        # each threshold alone: a grid prices its thresholds as points
        p_err = np.array([itf.p_error(view.link, view.power, beta, view.noise,
                                      view.sinr_threshold, fit=view.fit) for beta in stable])
        p_loss = 1.0 - (1.0 - p_ov) * (1.0 - p_dly) * (1.0 - p_err)
        throughput = view.queue.arrival_rate * (1.0 - p_loss)
        chain = zip(*(np.atleast_1d(a).tolist() for a in (p_dly, p_ov, p_err, p_loss, throughput)))
        assert [dataclasses.astuple(row) for row in rows] == list(chain)

    @pytest.mark.parametrize("family", ["rayleigh", "rician"])
    def test_bad_thresholds_are_named_at_the_boundary(self, family):
        view = _view(family)
        for beta in (math.nan, -0.5):
            with pytest.raises(DomainError) as excinfo:
                tp.evaluate_view(view, beta)
            assert type(excinfo.value) is DomainError
            # the message names the node and shows the caller's threshold
            assert str(excinfo.value) == f"node 'src': beta must be >= 0, got {beta!r}"
        past = view.upper * (1.0 + 1e-6)
        phi = 1.0 - ch.fading_cdf(view.model, np.array([past]))[0] ** view.num_channels
        arrivals = view.queue.arrival_rate
        for beta, rate in ((math.inf, 0.0), (past, phi / view.queue.slot_duration)):
            with pytest.raises(StabilityError) as excinfo:
                tp.evaluate_view(view, beta)
            assert type(excinfo.value) is StabilityError
            assert str(excinfo.value) == (
                f"node 'src': beta {beta:.6g} exceeds the stability bound (unstable queue: "
                f"service rate {rate:.6g}/s is below arrival rate {arrivals:.6g}/s)"
            )

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: ch.fading_cdf(Rayleigh(2.0), -1.0), DomainError,
             "fading_cdf: beta must be >= 0, got -1.0"),
            (lambda: ch.fading_cdf(Rician(2.0), [0.5, math.nan]), DomainError,
             "fading_cdf: beta must be >= 0, got array([0.5, nan])"),
            (lambda: ch.fading_cdf(Rician(1.0), -2.0), DomainError,
             "fading_cdf: beta must be >= 0, got -2.0"),
            (lambda: ch.fading_cdf(Rayleigh(2.0), np.array([True])), DomainError,
             "fading_cdf: beta must be a number, got array([ True])"),
            (lambda: qn.p_delay(0.0, queue()), DomainError,
             "transmit probability is 0: node never transmits"),
            (lambda: qn.p_delay([0.5, 1.5], queue()), DomainError,
             "transmit probability must lie in (0, 1], got 1.5"),
            (lambda: qn.p_delay([0.5, 0.1], queue()), StabilityError,
             "unstable queue: service rate 50/s is below arrival rate 80/s"),
            (lambda: qn.p_overflow([0.5, 0.0], queue()), DomainError,
             "transmit probability is 0: node never transmits"),
            (lambda: qn.p_overflow(math.nan, queue()), DomainError,
             "transmit probability must lie in (0, 1], got nan"),
            (lambda: qn.p_overflow(0.1, queue()), StabilityError,
             "unstable queue: service rate 50/s is below arrival rate 80/s"),
        ],
    )
    def test_public_functions_still_check_their_input(self, call, error, message):
        with pytest.raises(error) as excinfo:
            call()
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_a_nan_error_from_the_price_is_named(self, monkeypatch):
        # a quadrature may return NaN: the price checks the error before it composes the loss
        error_grid = itf._error_grid

        def nan_errors(*args, **kwargs):
            p_err = error_grid(*args, **kwargs)
            return lambda fit: np.full_like(p_err(fit), math.nan)

        monkeypatch.setattr(itf, "_error_grid", nan_errors)
        with pytest.raises(DomainError, match=r"^p_err must lie in \[0, 1\], got \[nan\]$"):
            tp.evaluate(rician_scenario())


class TestJacobi:
    def test_single_node_reaches_fixed_point(self):
        doc = {
            "nodes": [
                {
                    "id": "solo",
                    "role": "source",
                    "position": [5.0, 5.0, 0.0],
                    "transmit_power": 0.7,
                    "fading": "rician",
                    "beta": 1.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                }
            ]
        }
        scenario = scenario_from_mapping(doc)
        result = tp.jacobi_best_response(scenario, grid_size=40, tol=1e-9, max_iters=10)
        assert result.converged
        assert result.iterations <= 2
        # decoupled problem: the chosen threshold is the grid argmax
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        grid = np.linspace(0.0, upper, 40)
        rates = [tp.evaluate_view(view, float(b)).throughput for b in grid]
        assert result.policy.get("solo") == pytest.approx(float(grid[int(np.argmax(rates))]))

    def test_two_symmetric_nodes_converge_symmetrically(self):
        doc = {
            "nodes": [
                {
                    "id": "a",
                    "role": "source",
                    "position": [10.0, 20.0, 0.0],
                    "transmit_power": 0.8,
                    "fading": "rician",
                    "beta": 2.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                },
                {
                    "id": "b",
                    "role": "interferer",
                    "position": [30.0, 20.0, 0.0],
                    "transmit_power": 0.8,
                    "fading": "rician",
                    "beta": 2.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                },
            ]
        }
        scenario = scenario_from_mapping(doc)
        result = tp.jacobi_best_response(scenario, grid_size=32, tol=1e-9, max_iters=25)
        assert result.converged
        assert result.policy.get("a") == pytest.approx(result.policy.get("b"), abs=1e-9)

    def test_best_response_improves_over_previous(self):
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.0, seed=9)
        result = tp.jacobi_best_response(scenario, grid_size=24, tol=1e-6, max_iters=8)
        for entry in result.trace:
            for node_id, rate in entry["throughput"].items():
                assert rate >= entry["previous_throughput"][node_id] - 1e-9

    @pytest.mark.parametrize("on_grid", [False, True], ids=["off-grid-start", "on-grid-start"])
    def test_own_objective_prepares_each_grid_once_and_prices_it_every_sweep(
        self, on_grid, monkeypatch
    ):
        # preparing a grid evaluates F once at all its thresholds, and pricing it turns its
        # losses into throughput once; the bounds, the fits and the views' noise floors
        # evaluate F pointwise
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.0, seed=9)
        grids = {
            node.id: np.linspace(0.0, tp.source_view(scenario, node_id=node.id).upper, 24)
            for node in scenario.nodes
        }
        assert not any(np.any(grid == 2.0) for grid in grids.values())
        if on_grid:  # the first iterate is the scenario's thresholds
            scenario = with_betas(scenario, {i: float(grid[10]) for i, grid in grids.items()})
        cdf_sizes, priced = [], []
        cdf = tp.ch._cdf

        def counting(model, beta):
            cdf_sizes.append(np.size(beta))
            return cdf(model, beta)

        monkeypatch.setattr(tp.ch, "_cdf", counting)
        # a price checks its error once
        monkeypatch.setattr(tp, "_check_probability", recording(priced, tp._check_probability))
        result = tp.jacobi_best_response(scenario, grid_size=24, tol=1e-12, max_iters=3)
        nodes = len(scenario.nodes)
        assert result.iterations == 3
        # one grid per node for the whole call: its 24 points, holding the off-grid start too
        grid_calls = [size for size in cdf_sizes if size > 1]
        assert grid_calls == [24 if on_grid else 25] * nodes
        assert len(priced) == nodes * result.iterations
        assert all(np.size(p_err) <= 25 for _, p_err in priced)

    def test_previous_threshold_beyond_the_bound_scores_minus_infinity(self):
        scenario = rician_scenario(num_interferers=2, beta=2.0, interferer_beta=2.0, seed=9)
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        scenario = rician_scenario(num_interferers=2, beta=upper + 1.0, interferer_beta=2.0, seed=9)
        result = tp.jacobi_best_response(scenario, grid_size=16, max_iters=1)
        first = result.trace[0]
        assert first["previous_throughput"]["src"] == -math.inf
        assert first["betas"]["src"] <= upper
        assert math.isfinite(first["throughput"]["src"])

    def test_trace_rates_match_pointwise_evaluation(self):
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.5, seed=9)
        result = tp.jacobi_best_response(scenario, grid_size=24, tol=1e-6, max_iters=3)
        policy = scenario_policy(scenario)
        for entry in result.trace:
            for node_id, beta in entry["betas"].items():
                view = tp.source_view(scenario, policy, node_id)
                chosen = tp.evaluate_view(view, beta).throughput
                previous = tp.evaluate_view(view, policy.get(node_id)).throughput
                assert entry["throughput"][node_id] == pytest.approx(chosen, rel=1e-9, abs=1e-9)
                assert entry["previous_throughput"][node_id] == pytest.approx(
                    previous, rel=1e-9, abs=1e-9
                )
            policy = PolicyVector(entry["betas"])

    def test_sum_objective_converges_symmetrically(self):
        doc = {
            "nodes": [
                {
                    "id": "a",
                    "role": "source",
                    "position": [10.0, 20.0, 0.0],
                    "transmit_power": 0.8,
                    "fading": "rician",
                    "beta": 2.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                },
                {
                    "id": "b",
                    "role": "interferer",
                    "position": [30.0, 20.0, 0.0],
                    "transmit_power": 0.8,
                    "fading": "rician",
                    "beta": 2.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                },
            ]
        }
        scenario = scenario_from_mapping(doc)
        # coarse grids can cycle under simultaneous updates; 48 points settle
        result = tp.jacobi_best_response(
            scenario, grid_size=48, tol=1e-9, max_iters=25, objective="sum"
        )
        assert result.converged
        assert result.policy.get("a") == pytest.approx(result.policy.get("b"), abs=1e-9)

    def test_nonconvergence_is_flagged_not_raised(self):
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.0, seed=9)
        result = tp.jacobi_best_response(scenario, grid_size=24, tol=1e-12, max_iters=1)
        assert result.iterations == 1
        assert not result.converged

    def test_iterations_and_policy_read_the_trace(self):
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.0, seed=9)
        result = tp.jacobi_best_response(scenario, grid_size=24, tol=1e-12, max_iters=3)
        assert result.iterations == len(result.trace) == 3
        assert result.policy == PolicyVector(result.trace[-1]["betas"])

    def test_grid_set_up_bounds_every_node_and_fits_none(self, monkeypatch):
        # one bound per node for the grids, then one fit per node and iteration, each
        # from the interferers' memoised terms rather than from a view's links
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.0, seed=9)
        fits, bounds, view_fits = [], [], []
        monkeypatch.setattr(itf, "_fitted", recording(fits, itf._fitted))
        monkeypatch.setattr(itf, "fit_interference", recording(view_fits, itf.fit_interference))
        monkeypatch.setattr(tp, "beta_upper", recording(bounds, tp.beta_upper))
        result = tp.jacobi_best_response(scenario, grid_size=8, tol=1e-12, max_iters=2)
        assert len(bounds) == len(scenario.nodes)
        assert view_fits == []
        assert len(fits) == len(scenario.nodes) * result.iterations

    @pytest.mark.parametrize("objective, count", [("own", None), ("sum", 45)])
    def test_each_interferer_term_is_built_once_per_threshold(self, monkeypatch, objective,
                                                              count):
        document = yaml.safe_load(EXAMPLE.read_text())
        scenario = scenario_from_mapping({**document, "placement_seed": 0})
        node_ids = [node.id for node in scenario.nodes]
        built = []
        monkeypatch.setattr(itf, "_link_terms", recording(built, itf._link_terms))
        result = tp.jacobi_best_response(scenario, grid_size=8, max_iters=2, objective=objective)
        # every node faces the others at each iterate the sweeps start from ...
        starts = [tp._resolve_policy(scenario, None).betas]
        starts += [entry["betas"] for entry in result.trace[:-1]]
        faced = {(i, betas[i]) for betas in starts for i in node_ids}
        if objective == "sum":  # ... and, under the sum, at every trial point of its grid
            for i in node_ids:
                grid = np.linspace(0.0, tp.source_view(scenario, None, i).upper, 8).tolist()
                faced |= {(i, beta) for beta in grid}
        base = {}
        for i in node_ids:  # a node's link is the same in every other node's view
            observer = next(j for j in node_ids if j != i)
            view = tp.source_view(scenario, None, observer)
            link = view.interferers[[j for j in node_ids if j != observer].index(i)]
            base[dataclasses.replace(link, beta=0.0)] = i
        pairs = [(base[dataclasses.replace(link, beta=0.0)], link.beta) for link, _ in built]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == faced
        if count is not None:
            assert len(pairs) == count

    def test_validation(self):
        scenario = rician_scenario()
        with pytest.raises(DomainError):
            tp.jacobi_best_response(scenario, objective="mean")
        with pytest.raises(DomainError):
            tp.jacobi_best_response(scenario, grid_size=1)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_fewer_than_one_iteration_is_rejected(self, max_iters):
        with pytest.raises(DomainError, match="max_iters"):
            tp.jacobi_best_response(rician_scenario(), max_iters=max_iters)

    @pytest.mark.parametrize(
        "argument, value", [("grid_size", 2.5), ("max_iters", 2.5), ("max_iters", True)]
    )
    def test_counts_must_be_integers(self, argument, value):
        with pytest.raises(DomainError, match=f"{argument} must be an integer, got {value!r}"):
            tp.jacobi_best_response(rician_scenario(), **{argument: value})

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, None])
    def test_tolerance_must_be_positive(self, tol):
        # no change is ever below a NaN or non-positive tolerance, so every iteration would run
        with pytest.raises(DomainError, match="tol"):
            tp.jacobi_best_response(rician_scenario(), tol=tol)

    def test_sum_objective_prepares_a_grid_of_one_per_node_and_start(self, monkeypatch):
        # a node's own term is read off its grid scan, so a grid of one holds a node's
        # threshold at an iterate a sweep starts from, where the others' trials face it
        document = yaml.safe_load(EXAMPLE.read_text())
        scenario = scenario_from_mapping({**document, "placement_seed": 0})
        prepared = []
        monkeypatch.setattr(tp, "_prepare_grid", recording(prepared, tp._prepare_grid))
        result = tp.jacobi_best_response(scenario, grid_size=8, max_iters=2, objective="sum")
        starts = [tp._resolve_policy(scenario, None).betas]
        starts += [entry["betas"] for entry in result.trace[:-1]]
        ones = [(view.node_id, betas) for view, betas in prepared if len(betas) == 1]
        assert sorted(ones) == sorted({(i, (betas[i],)) for betas in starts for i in betas})
        # each node's grid holding its off-grid start, for every iteration
        assert len(prepared) - len(ones) == len(scenario.nodes)


def test_a_repeated_price_is_made_once(monkeypatch):
    # on example placement 0 some node's opponents hold their thresholds from one sweep's
    # start to the next: 5 sweeps of 5 nodes score 25 grids, of which 23 are distinct
    document = yaml.safe_load(EXAMPLE.read_text())
    scenario = scenario_from_mapping({**document, "placement_seed": 0})
    prices = []

    def spied(*args, **kwargs):
        return recording(prices, error_grid(*args, **kwargs))

    error_grid = itf._error_grid
    monkeypatch.setattr(itf, "_error_grid", spied)
    got = tp.jacobi_best_response(scenario)
    monkeypatch.undo()
    want = jacobi_rebuilding(scenario)
    assert repr(got.trace) == repr(want.trace) and got.converged == want.converged
    # a price is keyed by the node (whose scored thresholds are the same in every sweep)
    # and the others' thresholds
    starts = [tp._resolve_policy(scenario, None).betas]
    starts += [entry["betas"] for entry in got.trace[:-1]]
    keys = {(i, tuple(b for j, b in betas.items() if j != i)) for betas in starts for i in betas}
    assert got.iterations == 5 and got.converged
    assert len(prices) == len(keys) == 23


class TestCycleExit:
    """Best response stops at the first iterate that repeats an earlier one and names the cycle."""

    EXAMPLE_SCENARIO = scenario_from_mapping(yaml.safe_load(EXAMPLE.read_text()))

    def test_the_example_two_cycles_through_src_and_i0(self):
        result = tp.jacobi_best_response(self.EXAMPLE_SCENARIO)  # a 64-point grid
        betas = [entry["betas"] for entry in result.trace]
        assert result.cycle == (2, ("src", "i0"))
        assert result.iterations == 5 and not result.converged
        assert betas[4] == betas[2] and betas[3] != betas[1]
        assert [i for i in betas[2] if betas[2][i] != betas[3][i]] == ["src", "i0"]

    def test_a_repeat_of_the_initial_policy_is_a_cycle(self):
        # the first iterate counts as iterate -1
        start = tp.jacobi_best_response(self.EXAMPLE_SCENARIO).trace[2]["betas"]
        result = tp.jacobi_best_response(with_betas(self.EXAMPLE_SCENARIO, start))
        assert result.cycle == (2, ("src", "i0"))
        assert result.iterations == 2 and result.trace[1]["betas"] == start

    @pytest.mark.parametrize("grid_size", [65, 128])
    def test_a_converging_run_names_no_cycle(self, grid_size):
        result = tp.jacobi_best_response(self.EXAMPLE_SCENARIO, grid_size=grid_size)
        assert result.converged and result.cycle is None

    def test_the_cap_before_a_repeat_names_no_cycle(self):
        result = tp.jacobi_best_response(self.EXAMPLE_SCENARIO, max_iters=4)
        assert result.iterations == 4 and not result.converged and result.cycle is None


# the sum objective's thresholds (src, i0, i1, i2, i3) as they were while a node's own term
# was priced as a grid of one per trial: example placements at grid 8, where both
# iterates of 2 are this one ...
SUM_AT_GRID_8 = {
    0: (4.957948318094199, 5.936768264811846, 5.271239999460548, 2.560125853728712,
        2.560125853728712),
    1: (4.957948318094199, 5.514710796208126, 5.441385296693513, 2.560125853728712,
        2.560125853728712),
    2: (4.957948318094199, 5.826850015255831, 5.579287529410261, 2.560125853728712,
        2.560125853728712),
    3: (4.957948318094199, 5.432683014475996, 5.5924498150977735, 2.560125853728712,
        2.560125853728712),
    4: (4.957948318094199, 5.5302443643360535, 5.552472536152516, 2.560125853728712,
        2.560125853728712),
    5: (4.957948318094199, 5.5509237508722205, 5.42481726970078, 2.560125853728712,
        2.560125853728712),
    6: (4.957948318094199, 6.2218505018871, 5.408036085551272, 2.560125853728712,
        2.560125853728712),
    7: (4.957948318094199, 5.587366251484527, 5.76077509904048, 2.560125853728712,
        2.560125853728712),
}
# ... and the shipped example at the defaults, one per iterate
SUM_ON_THE_EXAMPLE = [
    (5.417017606806625, 6.104714978473834, 6.2941802008034875, 2.7023550678247514,
     2.7023550678247514),
    (5.417017606806625, 6.104714978473834, 6.2941802008034875, 2.560125853728712,
     2.560125853728712),
    (5.417017606806625, 6.104714978473834, 6.2941802008034875, 2.560125853728712,
     2.560125853728712),
]


def sum_iterates(scenario, **kwargs) -> list[tuple]:
    result = tp.jacobi_best_response(scenario, objective="sum", **kwargs)
    assert result.converged
    return [tuple(entry["betas"].values()) for entry in result.trace]


@pytest.mark.parametrize("placement", range(8))
def test_sum_thresholds_hold_on_example_placements(placement):
    document = yaml.safe_load(EXAMPLE.read_text())
    scenario = scenario_from_mapping({**document, "placement_seed": placement})
    assert sum_iterates(scenario, grid_size=8, max_iters=2) == [SUM_AT_GRID_8[placement]] * 2


def test_sum_thresholds_hold_on_the_example():
    scenario = scenario_from_mapping(yaml.safe_load(EXAMPLE.read_text()))
    assert sum_iterates(scenario) == SUM_ON_THE_EXAMPLE


class TestJacobiMatchesRebuildingLoop:
    """Prepared grids and kept views give the rebuilding loop's result, bit for bit."""

    @staticmethod
    def assert_same(scenario, **kwargs):
        got = tp.jacobi_best_response(scenario, **kwargs)
        want = jacobi_rebuilding(scenario, **kwargs)
        assert repr(got.trace) == repr(want.trace)
        assert got.converged == want.converged
        assert got.cycle == want.cycle
        return got

    @pytest.mark.parametrize("placement", range(8))
    def test_example_placements(self, placement):
        document = yaml.safe_load(EXAMPLE.read_text())
        scenario = scenario_from_mapping({**document, "placement_seed": placement})
        self.assert_same(scenario, grid_size=64, max_iters=4)

    @pytest.mark.parametrize("offset", [0.0, 0.37], ids=["on-grid", "off-grid"])
    def test_initial_threshold_on_and_off_the_grid(self, offset):
        scenario = rician_scenario(num_interferers=3, beta=2.0, interferer_beta=2.5, seed=9)
        upper = tp.source_view(scenario).upper
        start = float(np.linspace(0.0, upper, 24)[9]) + offset * upper / 23
        scenario = rician_scenario(num_interferers=3, beta=start, interferer_beta=2.5, seed=9)
        self.assert_same(scenario, grid_size=24, tol=1e-6, max_iters=5)

    def test_initial_threshold_beyond_the_bound(self):
        scenario = rician_scenario(num_interferers=2, beta=2.0, interferer_beta=2.0, seed=9)
        beyond = tp.source_view(scenario).upper + 1.0
        scenario = rician_scenario(num_interferers=2, beta=beyond, interferer_beta=2.0, seed=9)
        result = self.assert_same(scenario, grid_size=16, max_iters=3)
        assert result.trace[0]["previous_throughput"]["src"] == -math.inf

    def test_sum_objective(self):
        doc = {
            "nodes": [
                {
                    "id": node_id,
                    "role": role,
                    "position": [x, 20.0, 0.0],
                    "transmit_power": 0.8,
                    "fading": "rician",
                    "beta": 2.0,
                    "queue": {
                        "arrival_rate": 80.0,
                        "delay_threshold": 0.045,
                        "buffer_capacity_normalized": 100.0,
                    },
                }
                for node_id, role, x in (("a", "source", 10.0), ("b", "interferer", 30.0))
            ]
        }
        scenario = scenario_from_mapping(doc)
        self.assert_same(scenario, grid_size=48, tol=1e-9, max_iters=25, objective="sum")

    @pytest.mark.parametrize("placement", range(4))
    def test_sum_objective_example_placements(self, placement):
        # five nodes with mixed fading
        document = yaml.safe_load(EXAMPLE.read_text())
        scenario = scenario_from_mapping({**document, "placement_seed": placement})
        self.assert_same(scenario, grid_size=8, max_iters=2, objective="sum")

    def test_the_example_cycle(self):
        scenario = scenario_from_mapping(yaml.safe_load(EXAMPLE.read_text()))
        assert self.assert_same(scenario).cycle == (2, ("src", "i0"))

    def test_sum_objective_initial_threshold_beyond_the_bound(self):
        # every other node's trial faces src beyond its bound: the network rate is -inf
        scenario = rician_scenario(num_interferers=2, beta=2.0, interferer_beta=2.0, seed=9)
        beyond = tp.source_view(scenario).upper + 1.0
        scenario = rician_scenario(num_interferers=2, beta=beyond, interferer_beta=2.0, seed=9)
        result = self.assert_same(scenario, grid_size=16, max_iters=3, objective="sum")
        assert result.trace[0]["previous_throughput"]["src"] == -math.inf


class TestLinksOncePerScenario:
    """No call moves a node, so each node's link is built once per scenario and shared."""

    @pytest.mark.parametrize("call", ["jacobi_best_response", "source_view", "simulator"])
    def test_one_build_link_per_node(self, monkeypatch, call):
        scenario = scenario_from_mapping(yaml.safe_load(EXAMPLE.read_text()))
        links = []
        monkeypatch.setattr(ch, "build_link", recording(links, ch.build_link))
        if call == "jacobi_best_response":
            tp.jacobi_best_response(scenario)
        elif call == "source_view":  # one view of every node
            for node in scenario.nodes:
                tp.source_view(scenario, node_id=node.id)
        else:
            sim._sim_nodes(scenario)
        assert [args[0] for args in links] == [node.position for node in scenario.nodes]


class TestPolicyResolution:
    """A policy overrides the scenario's thresholds for the nodes it names."""

    def test_partial_policy_in_evaluate(self):
        scenario = rician_scenario(beta=4.0)
        full = PolicyVector({**scenario_policy(scenario).betas, "i1": 3.0})
        assert tp.evaluate(scenario, PolicyVector({"i1": 3.0})) == tp.evaluate(scenario, full)
        assert tp.evaluate(scenario, {"i1": 3.0}) == tp.evaluate(scenario, full)

    @pytest.mark.parametrize(
        "entry",
        [
            tp.evaluate,
            tp.source_view,
            lambda scenario, policy: sim.run(scenario, policy, sim.SimConfig(100)),
        ],
        ids=["evaluate", "source_view", "simulator.run"],
    )
    def test_unknown_id_is_named(self, entry):
        with pytest.raises(ScenarioError, match="'typo'"):
            entry(rician_scenario(), PolicyVector({"src": 2.0, "typo": 3.0}))


def test_policy_vector_validation():
    with pytest.raises(DomainError):
        PolicyVector({"a": -0.5})
    with pytest.raises(DomainError, match="'a'"):
        PolicyVector({"a": math.nan})
    for malformed in ("x", None, True):
        with pytest.raises(DomainError, match="'a'"):
            PolicyVector({"a": malformed})
        with pytest.raises(DomainError, match="'src'"):
            tp.evaluate(rician_scenario(), {"src": malformed})
    assert PolicyVector({"a": math.inf}).get("a") == math.inf  # inf silences a node


def test_int_thresholds_are_stored_and_priced_as_floats():
    policy = PolicyVector({"a": 2, "b": np.float64(1.5), "c": 0})
    assert all(type(beta) is float for beta in policy.betas.values())
    assert policy.betas == {"a": 2.0, "b": 1.5, "c": 0.0}
    scenario = scenario_from_mapping(yaml.safe_load(EXAMPLE.read_text()))
    view = tp.source_view(scenario, {"i1": 2}, "src")
    assert type(view.fit.shape) is float and type(view.fit.scale) is float
    assert view.fit == tp.source_view(scenario, {"i1": 2.0}, "src").fit


def test_beta_bounds_composition():
    scenario = rayleigh_scenario()
    view = tp.source_view(scenario)
    bounds = tp.beta_bounds(view)
    assert 0.0 <= bounds.lower <= bounds.upper
    assert bounds.upper == pytest.approx(
        tp.beta_upper(view.model, view.queue, view.num_channels)
    )
    with pytest.raises(DomainError):
        tp.BetaBounds(lower=2.0, upper=1.0)


@pytest.mark.parametrize("family", ["rician", "rayleigh"])
def test_beta_bounds_fits_and_bounds_the_view_once(family, monkeypatch):
    view = tp.source_view(rayleigh_scenario() if family == "rayleigh" else rician_scenario())
    fits, bounds = [], []
    monkeypatch.setattr(itf, "fit_interference", recording(fits, itf.fit_interference))
    monkeypatch.setattr(tp, "beta_upper", recording(bounds, tp.beta_upper))
    result = tp.beta_bounds(view)
    assert fits == [(view.interferers, view.num_channels)]
    assert bounds == [(view.model, view.queue, view.num_channels)]
    assert result.upper == view.upper and view.fit is view.fit  # kept, not recomputed
    assert len(fits) == len(bounds) == 1  # reading them again computes nothing
