"""Acceptance suite: one test per criterion, at the stated tolerances.

A terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Trend criteria run the pinned presets; oracle criteria compare the closed
forms against the slot-level Monte Carlo.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from oracles import beta_upper_erf, fading_pdf, p_error_pointwise
from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import presets as ps
from uavlink import simulator as sim
from uavlink import throughput as tp
from uavlink.channel import Rayleigh, Rician, build_link, transmit_prob
from uavlink.queueing import QueueParams, p_delay
from uavlink.scenario_io import load_scenario_file, scenario_from_mapping
from uavlink.simulator import SimConfig
from uavlink.specfun import QuadratureSpec
from uavlink.throughput import PolicyVector


def test_criterion_01_fig2_threshold_tradeoff():
    started = time.perf_counter()
    _, rows = ps.run_preset("fig2")
    bn_values = sorted({r["beta_n"] for r in rows})
    bm_values = sorted({r["beta_m"] for r in rows})
    rate = {(r["beta_n"], r["beta_m"]): r["throughput"] for r in rows}

    # interferers backing off never hurts the main link
    for bn in bn_values:
        curve = [rate[(bn, bm)] for bm in bm_values]
        for low, high in zip(curve, curve[1:]):
            assert high >= low - 1e-9

    # one interior optimum in the source threshold, near the known operating point
    averaged = np.zeros(len(bn_values))
    for bm in bm_values:
        curve = np.array([rate[(bn, bm)] for bn in bn_values])
        averaged += curve
        peak = int(np.argmax(curve))
        tolerance = 1e-9 + 1e-7 * max(curve.max(), 1.0)
        assert np.all(np.diff(curve[: peak + 1]) >= -tolerance)
        assert np.all(np.diff(curve[peak:]) <= tolerance)
    averaged /= len(bm_values)
    best = bn_values[int(np.argmax(averaged))]
    assert abs(best - 5.1) <= 0.5
    assert time.perf_counter() - started <= 60.0


def test_criterion_02_fig3_interferer_count():
    started = time.perf_counter()
    _, rows = ps.run_preset("fig3")
    rates = [r["throughput"] for r in rows]
    assert len(rates) == 9  # counts 0..8
    drops = [a - b for a, b in zip(rates, rates[1:])]
    assert all(d > 0 for d in drops)  # strictly decreasing throughput
    # the two strong-line-of-sight interferers cost more than any later one
    assert min(drops[0], drops[1]) > max(drops[2:])
    assert time.perf_counter() - started <= 60.0


def test_criterion_03_fig4_error_vs_sinr_threshold():
    started = time.perf_counter()
    _, rows = ps.run_preset("fig4")
    curves: dict[float, list[float]] = {}
    for row in rows:
        curves.setdefault(row["gamma_th"], []).append(row["p_error"])
    assert sorted(curves) == [2.0, 4.0, 8.0]
    for curve in curves.values():
        for low, high in zip(curve, curve[1:]):
            assert high > low  # more interferers, more errors
    for lenient, strict in zip((2.0, 4.0), (4.0, 8.0)):
        for lo, hi in zip(curves[lenient], curves[strict]):
            assert lo < hi  # easier decoding threshold, fewer errors
    assert time.perf_counter() - started <= 30.0


def test_criterion_04_fig5_queue_drop_vs_slot_duration():
    started = time.perf_counter()
    _, rows = ps.run_preset("fig5")
    curves: dict[float, list[tuple[float, float]]] = {}
    for row in rows:
        curves.setdefault(row["beta_n"], []).append((row["t_slt"], row["queue_drop"]))
    for points in curves.values():
        drops = [d for _, d in sorted(points)]
        for low, high in zip(drops, drops[1:]):
            assert high >= low - 1e-12  # longer slots leave fewer send chances
    top_threshold = max(curves)
    final_drop = [d for _, d in sorted(curves[top_threshold])][-1]
    assert final_drop >= 0.9  # near the bound the queue drops almost everything
    assert time.perf_counter() - started <= 10.0


def _oracle_error_scenario():
    """Three busy Rayleigh interferers plus a noise-limited main link."""
    doc = {
        "noise": {"bandwidth": 1e6},
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [5.0, 5.0, 0.0],
                "transmit_power": 0.5,
                "fading": "rayleigh",
                "beta": 3.6,
                "queue": {
                    "arrival_rate": 5.0,
                    "delay_threshold": 0.5,
                    "buffer_capacity_normalized": 100.0,
                },
            },
            *[
                {
                    "id": f"i{k}",
                    "role": "interferer",
                    "position": position,
                    "transmit_power": 0.8,
                    "fading": "rayleigh",
                    "beta": 3.3,
                    "queue": {
                        "arrival_rate": 28.0,
                        "delay_threshold": 10.0,
                        "buffer_capacity_normalized": 5000.0,
                    },
                }
                for k, position in enumerate(
                    [[30.0, 10.0, 0.0], [10.0, 30.0, 0.0], [32.0, 28.0, 0.0]]
                )
            ],
        ],
    }
    base = scenario_from_mapping(doc)
    link = build_link(base.nodes[0].position, base.destination, base.environment, None)
    margin_rate = 0.5 * link.path_loss_amplitude**2 / base.sinr_threshold
    doc["noise"]["bandwidth"] = margin_rate * 3.68**2 / (1.38e-23 * 290.0)
    return scenario_from_mapping(doc)


def test_criterion_05_oracle_error_probability():
    started = time.perf_counter()
    scenario = _oracle_error_scenario()
    analytic = tp.evaluate(scenario).p_error
    result = sim.run(
        scenario,
        cfg=SimConfig(1_000_000, seed=2024, warmup_slots=10_000, replication_count=8),
    )
    gap = abs(analytic - result.p_error.value)
    print(
        f"\nmoment-matching gap: analytic={analytic:.5f} "
        f"empirical={result.p_error.value:.5f}±{result.p_error.halfwidth:.5f} gap={gap:.5f}"
    )
    assert gap <= 0.03
    assert time.perf_counter() - started <= 300.0


def test_criterion_06_oracle_queueing():
    started = time.perf_counter()
    worst_delay_gap = worst_overflow_gap = 0.0
    for load_per_slot in (0.16, 0.24, 0.32):
        for utilization in (0.35, 0.45, 0.55):
            phi = load_per_slot / utilization
            beta = math.sqrt(-2.0 * math.log(1.0 - (1.0 - phi) ** (1.0 / 15.0)))
            doc = {
                "nodes": [
                    {
                        "id": "src",
                        "role": "source",
                        "position": [5.0, 5.0, 0.0],
                        "transmit_power": 0.5,
                        "fading": "rayleigh",
                        "beta": beta,
                        "queue": {
                            "arrival_rate": load_per_slot / 0.002,
                            "delay_threshold": 0.045,
                            "buffer_capacity_normalized": 8.0,
                        },
                    }
                ]
            }
            scenario = scenario_from_mapping(doc)
            breakdown = tp.evaluate(scenario)
            result = sim.run(
                scenario,
                cfg=SimConfig(150_000, seed=23, warmup_slots=5_000, replication_count=4),
            )
            delay_gap = abs(breakdown.p_delay - result.p_delay.value)
            overflow_gap = abs(breakdown.p_overflow - result.p_overflow.value)
            worst_delay_gap = max(worst_delay_gap, delay_gap)
            worst_overflow_gap = max(worst_overflow_gap, overflow_gap)
            assert delay_gap <= 0.05
            assert overflow_gap <= 0.05
    print(
        f"\nexponential-approximation gap: worst delay {worst_delay_gap:.4f}, "
        f"worst overflow {worst_overflow_gap:.4f}"
    )
    assert time.perf_counter() - started <= 300.0


def test_criterion_07_formula_self_consistency():
    started = time.perf_counter()

    # loss composition identity, exactly, in every node's breakdown across its feasible range
    scenario = load_scenario_file(Path(__file__).resolve().parent.parent / "scenarios/example.yaml")
    for node in scenario.nodes:
        view = tp.source_view(scenario, node_id=node.id)
        for beta in np.linspace(0.0, view.upper, 11).tolist():
            b = tp.evaluate_view(view, beta)
            assert b.p_loss == 1.0 - (1.0 - b.p_overflow) * (1.0 - b.p_delay) * (1.0 - b.p_error)
            assert b.throughput == node.queue.arrival_rate * (1.0 - b.p_loss)

    # Gamma moment identities
    for mean, variance in [(1e-9, 2.5e-17), (0.3, 0.04), (7.0, 49.0), (1e4, 3e5)]:
        fit = itf.fit_gamma(mean, variance)
        assert abs(fit.shape * fit.scale - mean) <= 1e-12 * mean
        assert abs(fit.shape * fit.scale * fit.scale - variance) <= 1e-12 * variance

    # truncated Rayleigh moments: closed forms vs quadrature
    model = Rayleigh(2.0)
    for beta in (0.0, 0.7, 1.55, 2.4, 3.3):
        for power in (2, 4):
            oracle, _ = scipy.integrate.quad(
                lambda x: x**power * fading_pdf(model, x),
                beta,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=300,
            )
            value = ch.truncated_power_moment(model, beta, power)
            assert abs(value - oracle) <= 1e-8 * oracle

    # the Rician CDF, 1 - Q1(b, beta) in the Marcum Q-function, against its density's integral
    for b in (0.5, 2.0, math.sqrt(30.0)):
        for beta in (0.3, 1.0, 3.0, 6.0):
            cdf, _ = scipy.integrate.quad(
                lambda x: fading_pdf(Rician(b), x), 0.0, beta,
                epsabs=1e-12, epsrel=1e-11, limit=300,
            )
            assert abs(ch.fading_cdf(Rician(b), beta) - cdf) <= 1e-9

    # the stability bound saturates the deadline-drop probability exactly
    q = QueueParams(80.0, 0.002, 0.045, 100.0)
    for model in (Rayleigh(2.0), Rician(math.sqrt(30.0))):
        upper = tp.beta_upper(model, q, 15)
        phi = transmit_prob(model, upper, 15)
        assert abs(p_delay(phi, q) - 1.0) <= 1e-9
    assert time.perf_counter() - started <= 10.0


def _derivative_scenario(family: str):
    doc = {
        "placement_seed": 3,
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [1.0, 1.0, 0.0],
                "transmit_power": 0.7,
                "fading": family,
                "beta": 2.0,
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
                    "fading": family,
                    "beta": 2.0 if family == "rayleigh" else 4.5,
                }
                for k in range(3)
            ],
        ],
    }
    return scenario_from_mapping(doc)


def test_criterion_08_derivative_validation():
    started = time.perf_counter()
    tight = QuadratureSpec(absolute_tolerance=1e-13, relative_tolerance=1e-12, max_subdivisions=400)

    def richardson_first(f, x, h):
        d = lambda step: (f(x + step) - f(x - step)) / (2.0 * step)
        return (4.0 * d(h / 2.0) - d(h)) / 3.0

    def richardson_second(f, x, h):
        d = lambda step: (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2
        return (4.0 * d(h / 2.0) - d(h)) / 3.0

    for family in ("rayleigh", "rician"):
        scenario = _derivative_scenario(family)
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        objective = lambda b: p_delay(
            transmit_prob(view.model, b, view.num_channels), view.queue
        ) + p_error_pointwise(
            view.link, view.power, b, view.interferers, view.noise, view.sinr_threshold,
            view.num_channels, conditional=False, quad=tight, fit=view.fit,
        )
        for beta in np.linspace(0.05 * upper, 0.97 * upper, 32):
            first, second = tp.loss_derivative(view, float(beta))
            fd_first = richardson_first(objective, float(beta), 1e-5)
            fd_second = richardson_second(objective, float(beta), 1e-3)
            assert first == pytest.approx(fd_first, rel=1e-4, abs=1e-12)
            assert second == pytest.approx(fd_second, rel=1e-3, abs=1e-12)
    assert time.perf_counter() - started <= 30.0


def test_criterion_09a_upper_bound_saturates_load():
    started = time.perf_counter()
    q = QueueParams(80.0, 0.002, 0.045, 100.0)
    load = q.arrival_rate * q.slot_duration

    # closed form and root both saturate the load exactly
    rayleigh_upper = tp.beta_upper(Rayleigh(2.0), q, 15)
    assert abs(transmit_prob(Rayleigh(2.0), rayleigh_upper, 15) - load) <= 1e-9
    for b in (1.0, 3.0, math.sqrt(30.0)):
        rician_upper = tp.beta_upper(Rician(b), q, 15)
        assert abs(transmit_prob(Rician(b), rician_upper, 15) - load) <= 1e-9
    assert time.perf_counter() - started <= 5.0


def test_criterion_09b_erf_surrogate_band():
    # The Gaussian-tail surrogate centres the Gaussian on sqrt(b^2 + 1), the
    # high-SNR Rician mean, rather than on b, so it carries the mean's excess
    # over b (about 1/(2b)) that the exact root also carries.  The printed
    # gaps show how far inside the 0.1 band it stays.  The exact root is what
    # the package uses everywhere.
    started = time.perf_counter()
    q = QueueParams(80.0, 0.002, 0.045, 100.0)
    gaps = {}
    for b in (3.1, 3.6, 4.1, 4.6, 5.1, math.sqrt(30.0)):
        model = Rician(b)
        exact = tp.beta_upper(model, q, 15)
        surrogate = beta_upper_erf(model, q, 15)
        gaps[round(b, 3)] = abs(exact - surrogate)
    print(f"\nsurrogate gaps over b: {gaps}")
    assert time.perf_counter() - started <= 5.0
    for b, gap in gaps.items():
        assert gap < 0.1, f"surrogate gap {gap:.4f} at b={b} exceeds the 0.1 band"


def test_criterion_10_optimizer_matches_exhaustive_search():
    started = time.perf_counter()
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
    grid_size = 32
    result = tp.jacobi_best_response(scenario, grid_size=grid_size, tol=1e-9, max_iters=30)
    assert result.converged
    assert result.policy.get("a") == pytest.approx(result.policy.get("b"), abs=1e-9)

    views = {node_id: tp.source_view(scenario, node_id=node_id) for node_id in ("a", "b")}
    grids = {
        node_id: np.linspace(
            0.0, tp.beta_upper(v.model, v.queue, v.num_channels), grid_size
        )
        for node_id, v in views.items()
    }
    rate_a = np.zeros((grid_size, grid_size))
    rate_b = np.zeros((grid_size, grid_size))
    for i, beta_a in enumerate(grids["a"]):
        for j, beta_b in enumerate(grids["b"]):
            policy = PolicyVector({"a": float(beta_a), "b": float(beta_b)})
            rate_a[i, j] = tp.evaluate(scenario, policy, node_id="a").throughput
            rate_b[i, j] = tp.evaluate(scenario, policy, node_id="b").throughput
    equilibria = [
        (i, j)
        for i in range(grid_size)
        for j in range(grid_size)
        if i == int(np.argmax(rate_a[:, j])) and j == int(np.argmax(rate_b[i, :]))
    ]
    assert equilibria
    step_a = grids["a"][1] - grids["a"][0]
    step_b = grids["b"][1] - grids["b"][0]
    closest = min(
        equilibria,
        key=lambda cell: abs(grids["a"][cell[0]] - result.policy.get("a"))
        + abs(grids["b"][cell[1]] - result.policy.get("b")),
    )
    assert abs(grids["a"][closest[0]] - result.policy.get("a")) <= step_a + 1e-12
    assert abs(grids["b"][closest[1]] - result.policy.get("b")) <= step_b + 1e-12
    assert time.perf_counter() - started <= 60.0
