"""Finite-buffer queue formulas against their Markov-chain counterparts (``oracles``)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavlink import queueing as qn
from uavlink.errors import DegeneratePolicyError, DomainError, StabilityError
from uavlink.queueing import QueueParams

from oracles import overflow_transition_prob, slots_to_transmit_pmf, state_distribution


def make_queue(arrival_rate=80.0, slot=0.002, deadline=0.045, buffer_norm=50.0):
    return QueueParams(
        arrival_rate=arrival_rate,
        slot_duration=slot,
        delay_threshold=deadline,
        buffer_capacity_normalized=buffer_norm,
    )


class TestSlotsToTransmitPmf:
    def test_always_transmits_first_slot(self):
        assert slots_to_transmit_pmf(1.0, 1) == 1.0
        assert slots_to_transmit_pmf(1.0, 2) == 0.0

    def test_geometric_value(self):
        assert slots_to_transmit_pmf(0.25, 3) == pytest.approx(0.140625, rel=1e-12)

    def test_mass_sums_to_one(self):
        phi = 0.23
        total = sum(slots_to_transmit_pmf(phi, k) for k in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_never_transmitting_policy_rejected(self):
        with pytest.raises(DegeneratePolicyError):
            slots_to_transmit_pmf(0.0, 1)
        for formula in (qn.offered_load, qn.p_delay, qn.p_overflow):
            with pytest.raises(DegeneratePolicyError):
                formula(0.0, make_queue())

    def test_bad_slot_count(self):
        with pytest.raises(DomainError):
            slots_to_transmit_pmf(0.5, 0)


class TestServiceRate:
    """The exponential service law's per-slot rate is the transmit probability itself."""

    @pytest.mark.parametrize("phi", [1.0, 0.5, 0.123])
    def test_identity(self, phi):
        q = make_queue()
        assert qn.offered_load(phi, q) == q.arrival_rate * q.slot_duration / phi

    def test_exponential_approximation_keeps_the_mean(self):
        # mean of the geometric slot count equals the exponential's mean
        phi = 0.37
        geometric_mean = sum(k * slots_to_transmit_pmf(phi, k) for k in range(1, 2000))
        assert geometric_mean == pytest.approx(1.0 / phi, rel=1e-9)


class TestPDelay:
    def test_boundary_is_one(self):
        q = make_queue()
        mu = q.arrival_rate * q.slot_duration  # service rate == arrival rate
        assert qn.p_delay(mu, q) == 1.0

    def test_direct_value(self):
        q = make_queue(arrival_rate=80.0, slot=0.002, deadline=0.040)
        assert qn.p_delay(1.0, q) == pytest.approx(math.exp(-16.8), rel=1e-12)

    def test_long_deadline_limit(self):
        q = make_queue(deadline=50.0)
        assert qn.p_delay(1.0, q) == pytest.approx(0.0, abs=1e-300)

    def test_unstable_queue_raises_with_deficit(self):
        q = make_queue()
        with pytest.raises(StabilityError) as excinfo:
            qn.p_delay(0.1, q)  # 50/s service < 80/s arrivals
        assert excinfo.value.margin == pytest.approx(30.0, rel=1e-9)

    def test_monotone_in_service_and_deadline(self):
        q = make_queue()
        mus = np.linspace(0.17, 1.0, 20)
        values = [qn.p_delay(m, q) for m in mus]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert qn.p_delay(0.5, make_queue(deadline=0.06)) < qn.p_delay(0.5, make_queue(deadline=0.03))


class TestPOverflow:
    def test_zero_buffer_always_overflows(self):
        for mu in (0.5, 0.9, 1.0):
            q = make_queue(buffer_norm=0.0)
            assert qn.p_overflow(mu, q) == pytest.approx(1.0, rel=1e-12)

    def test_light_load_limit(self):
        q = make_queue(arrival_rate=0.05, slot=0.002, buffer_norm=50.0)
        assert qn.p_overflow(1.0, q) == pytest.approx(math.exp(-50.0), rel=1e-3)

    def test_half_load_value(self):
        q = make_queue(arrival_rate=250.0, slot=0.002, buffer_norm=50.0)  # rho = 0.5
        expected = 0.5 * math.exp(-25.0) / (1.0 - 0.5 * math.exp(-25.0))
        assert qn.p_overflow(1.0, q) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_load_and_buffer(self):
        q = make_queue(arrival_rate=100.0)
        mus = np.linspace(0.21, 1.0, 25)
        values = [qn.p_overflow(m, q) for m in mus]  # rho falls as mu rises
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        small = qn.p_overflow(0.5, make_queue(buffer_norm=10.0))
        large = qn.p_overflow(0.5, make_queue(buffer_norm=60.0))
        assert large < small

    def test_full_load_boundary_limit(self):
        q = make_queue(arrival_rate=100.0, buffer_norm=40.0)
        assert qn.p_overflow(0.2, q) == pytest.approx(1.0 / 41.0, rel=1e-6)

    def test_overload_raises(self):
        q = make_queue(arrival_rate=100.0)
        with pytest.raises(StabilityError):
            qn.p_overflow(0.1, q)


NEAR_BOUND = QueueParams(120.0, 0.002, 0.045, 100.0)
BOUND = 120.0 * 0.002 * (1.0 - 1e-9)  # the slowest per-slot rate the tolerance admits


def raises_stability(closed_form, mu) -> bool:
    try:
        closed_form(mu, NEAR_BOUND)
    except StabilityError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.floats(BOUND - 4e-16, BOUND + 4e-16))
@example(0.23999999975999997)  # unstable to p_delay, but once accepted by p_overflow
def test_p_delay_and_p_overflow_share_one_stability_rule(mu):
    for rates in (mu, np.array([0.5, mu])):
        assert raises_stability(qn.p_delay, rates) == raises_stability(qn.p_overflow, rates)
    assert raises_stability(qn.p_overflow, mu) == (not qn.is_stable(mu, NEAR_BOUND))


class TestStateDistribution:
    def test_infinite_buffer_is_geometric(self):
        q = make_queue(arrival_rate=100.0, buffer_norm=5000.0)
        mu = 0.4  # rho = 0.5
        probs = state_distribution(mu, q)
        rho = qn.offered_load(mu, q)
        expected = (1.0 - rho) * rho ** np.arange(probs.size)
        np.testing.assert_allclose(probs, expected, rtol=1e-9)

    def test_head_probability_closed_form(self):
        q = make_queue(arrival_rate=100.0, buffer_norm=50.0)
        mu = 0.4  # rho = 0.5
        probs = state_distribution(mu, q)
        assert probs[0] == pytest.approx(0.5 / (1.0 - 0.5 * math.exp(-25.0)), rel=1e-12)

    def test_total_mass(self):
        for buffer_norm in (5.0, 20.0, 80.0):
            q = make_queue(arrival_rate=100.0, buffer_norm=buffer_norm)
            probs = state_distribution(0.35, q)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_successive_ratio_recursion(self):
        q = make_queue(arrival_rate=100.0, buffer_norm=12.0)
        mu = 0.31
        rho = qn.offered_load(mu, q)
        probs = state_distribution(mu, q)
        for i in range(min(len(probs) - 1, 30)):
            admit = 1.0 - overflow_transition_prob(i, q)
            assert probs[i + 1] == pytest.approx(rho * admit * probs[i], rel=1e-9)

    def test_partial_sums_bounded(self):
        q = make_queue(arrival_rate=120.0, buffer_norm=30.0)
        probs = state_distribution(0.27, q)
        assert np.all(probs >= 0.0)
        assert np.all(np.cumsum(probs) <= 1.0 + 1e-12)

    def test_unstable_raises(self):
        q = make_queue(arrival_rate=200.0)
        with pytest.raises(StabilityError):
            state_distribution(0.4, q)


def test_queue_losses_monotone_in_fading_threshold():
    # both loss channels worsen as the policy threshold rises, for either
    # fading family and any channel count
    from uavlink.channel import Rayleigh, Rician, transmit_prob
    from uavlink.throughput import beta_upper

    q = make_queue(buffer_norm=30.0)
    for model in (Rayleigh(2.0), Rayleigh(0.7), Rician(1.5), Rician(5.0)):
        for channels in (1, 8, 15):
            upper = beta_upper(model, q, channels)
            betas = np.linspace(0.0, 0.999 * upper, 15)
            mus = [transmit_prob(model, float(b), channels) for b in betas]
            delays = [qn.p_delay(m, q) for m in mus]
            overflows = [qn.p_overflow(m, q) for m in mus]
            assert all(b >= a - 1e-15 for a, b in zip(delays, delays[1:]))
            assert all(b >= a - 1e-15 for a, b in zip(overflows, overflows[1:]))


def test_overflow_sum_identity():
    # summing per-state overflow odds against the stationary law reproduces
    # the closed-form overflow probability
    for arrival_rate, mu, buffer_norm in [
        (100.0, 0.4, 10.0),
        (100.0, 0.25, 30.0),
        (150.0, 0.9, 5.0),
        (80.0, 0.2, 50.0),
    ]:
        q = make_queue(arrival_rate=arrival_rate, buffer_norm=buffer_norm)
        probs = state_distribution(mu, q, max_states=400_000)
        total = sum(
            overflow_transition_prob(i, q) * p for i, p in enumerate(probs)
        )
        assert total == pytest.approx(qn.p_overflow(mu, q), abs=1e-9)


def test_queue_params_validation():
    with pytest.raises(DomainError):
        make_queue(arrival_rate=0.0)
    with pytest.raises(DomainError):
        make_queue(arrival_rate=600.0)  # arrival * slot >= 1
    with pytest.raises(DomainError, match="arrival_rate"):
        make_queue(arrival_rate=math.nan)
    with pytest.raises(DomainError):
        QueueParams(80.0, 0.002, 0.045, -1.0)
    with pytest.raises(DomainError, match="buffer_capacity_normalized"):
        QueueParams(80.0, 1e-3, 0.045, math.nan)


class TestElementwise:
    def test_arrays_match_floats(self):
        q = make_queue()
        mus = np.array([0.16, 0.2, 0.5, 1.0])
        delays, overflows = qn.p_delay(mus, q), qn.p_overflow(mus, q)
        for mu, d, o in zip(mus.tolist(), delays.tolist(), overflows.tolist()):
            assert d == qn.p_delay(mu, q)
            assert o == qn.p_overflow(mu, q)

    def test_full_load_limit_is_continuous(self):
        q = make_queue(buffer_norm=20.0)
        load = q.arrival_rate * q.slot_duration
        near = qn.p_overflow(np.array([load, load * (1.0 + 1e-13), load * (1.0 + 1e-7)]), q)
        assert near[0] == pytest.approx(1.0 / 21.0, rel=1e-15)
        assert near[1] == pytest.approx(1.0 / 21.0, rel=1e-11)
        assert near[2] < near[1]

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
    def test_bad_element_in_an_array_raises(self, bad):
        mus = np.array([0.5, bad])
        for closed_form in (qn.p_delay, qn.p_overflow):
            with pytest.raises(DomainError, match="transmit probability"):
                closed_form(mus, make_queue())

    def test_unstable_element_raises_with_the_largest_deficit(self):
        q = make_queue()
        with pytest.raises(StabilityError) as excinfo:
            qn.p_delay(np.array([0.5, 0.1, 0.15]), q)
        assert excinfo.value.margin == pytest.approx(q.arrival_rate - 0.1 / q.slot_duration)
        with pytest.raises(StabilityError):
            qn.p_overflow(np.array([0.5, 0.1]), q)
        assert qn.is_stable(np.array([0.5, 0.16, 0.1, 0.0]), q).tolist() == [True, True, False, False]
