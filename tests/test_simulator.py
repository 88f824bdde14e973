"""Monte Carlo oracle: determinism, conservation, and analytic agreement."""

import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from oracles import _draw_fading_slot_loop, scenario_policy, slot_loop_counts, visit_block

from uavlink import presets
from uavlink import simulator as sim
from uavlink import throughput as tp
from uavlink.channel import Rayleigh, Rician, build_link, fading_cdf
from uavlink.errors import DomainError, ScenarioError
from uavlink.scenario_io import load_scenario_file, scenario_from_mapping
from uavlink.simulator import SimConfig, derive_seed
from uavlink.throughput import PolicyVector

EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"


def single_channel_scenario(noise_floor_fading=0.9):
    """One-channel scenario whose conditional error has an exact closed form."""
    doc = {
        "num_channels": 1,
        "noise": {"bandwidth": 1e6},
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [5.0, 5.0, 0.0],
                "transmit_power": 0.5,
                "fading": "rayleigh",
                "beta": 0.5,
                "queue": {
                    "arrival_rate": 150.0,
                    "delay_threshold": 0.1,
                    "buffer_capacity_normalized": 500.0,
                },
            },
            {
                "id": "i0",
                "role": "interferer",
                "position": [30.0, 10.0, 0.0],
                "transmit_power": 0.8,
                "fading": "rayleigh",
                "beta": math.inf,
            },
            {
                "id": "i1",
                "role": "interferer",
                "position": [10.0, 30.0, 0.0],
                "transmit_power": 0.8,
                "fading": "rayleigh",
                "beta": math.inf,
            },
        ],
    }
    base = scenario_from_mapping(doc)
    link = build_link(base.nodes[0].position, base.destination, base.environment, None)
    margin_rate = 0.5 * link.path_loss_amplitude**2 / base.sinr_threshold
    doc["noise"]["bandwidth"] = margin_rate * noise_floor_fading**2 / (1.38e-23 * 290.0)
    return scenario_from_mapping(doc)


def small_scenario(num_interferers=2, beta=1.0, interferer_beta=1.0, queue=None):
    doc = {
        "placement_seed": 17,
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [5.0, 5.0, 0.0],
                "transmit_power": 0.5,
                "fading": "rayleigh",
                "beta": beta,
                "queue": queue
                or {
                    "arrival_rate": 80.0,
                    "delay_threshold": 0.045,
                    "buffer_capacity_normalized": 20.0,
                },
            },
            *[
                {
                    "id": f"i{k}",
                    "role": "interferer",
                    "position": "sampled",
                    "transmit_power": "sampled",
                    "fading": "rayleigh",
                    "beta": interferer_beta,
                }
                for k in range(num_interferers)
            ],
        ],
    }
    return scenario_from_mapping(doc)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 0, 0) == derive_seed(42, 0, 0)

    def test_stream_separation(self):
        assert derive_seed(42, 0, 0) != derive_seed(42, 0, 1)

    def test_replication_separation(self):
        assert derive_seed(42, 1, 0) != derive_seed(42, 0, 0)

    def test_master_separation(self):
        assert derive_seed(42, 0, 0) != derive_seed(43, 0, 0)

    def test_64_bit_range(self):
        for args in [(0, 0, 0), (2**63, 7, 11), (123456789, 3, 2)]:
            assert 0 <= derive_seed(*args) < 2**64


class TestDeterminism:
    def test_bit_identical_results(self):
        scenario = small_scenario()
        cfg = SimConfig(5000, seed=9, warmup_slots=100, replication_count=3)
        first = sim.run(scenario, cfg=cfg)
        second = sim.run(scenario, cfg=cfg)
        assert first == second

    def test_seed_changes_results(self):
        scenario = small_scenario()
        a = sim.run(scenario, cfg=SimConfig(5000, seed=1, replication_count=2))
        b = sim.run(scenario, cfg=SimConfig(5000, seed=2, replication_count=2))
        assert a.counts != b.counts


class TestWorkerThreads:
    """A block's nodes advance as tasks on a thread pool that lives only while ``run`` does."""

    SCENARIOS = {"example": lambda: load_scenario_file(EXAMPLE),
                 "fig2": lambda: presets.preset_scenario("fig2", 0)}
    CFG = SimConfig(6000, seed=21, warmup_slots=500, replication_count=2)

    @staticmethod
    def run_on(monkeypatch, scenario, cpus):
        """``run``'s counts with ``cpus`` usable CPUs and 1,024-slot blocks, and the
        threads that drew; with several CPUs the first two tasks must meet on two threads."""
        threads, calls = set(), itertools.count()
        meet = threading.Barrier(2, timeout=30)
        draw = sim._draw_best

        def recorded(*args):
            threads.add(threading.get_ident())
            if cpus > 1 and next(calls) < 2:
                meet.wait()
            return draw(*args)

        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_draw_best", recorded)
        monkeypatch.setattr(sim, "_BLOCK", 1024)  # several blocks, the last one short
        try:
            return sim.run(scenario, cfg=TestWorkerThreads.CFG).counts, threads
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_counts_do_not_depend_on_the_thread_count(self, monkeypatch, name):
        scenario = self.SCENARIOS[name]()
        one, drew = self.run_on(monkeypatch, scenario, 1)
        assert len(drew) == 1 and threading.get_ident() not in drew
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            many, drew = self.run_on(monkeypatch, scenario, 8)  # more workers than cores
        finally:
            sys.setswitchinterval(interval)
        assert 2 <= len(drew) <= min(8, len(scenario.nodes))
        assert many == one

    def test_two_runs_at_once_equal_the_two_in_turn(self):
        jobs = [(self.SCENARIOS[name](), SimConfig(4000, seed=seed, replication_count=2))
                for name, seed in (("example", 3), ("fig2", 4))]
        want = [sim.run(scenario, cfg=cfg) for scenario, cfg in jobs]
        got = [None] * len(jobs)

        def job(k):
            got[k] = sim.run(jobs[k][0], cfg=jobs[k][1])

        threads = [threading.Thread(target=job, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_no_thread_outlives_run(self):
        before = threading.active_count()
        sim.run(load_scenario_file(EXAMPLE), cfg=SimConfig(3000, seed=1, replication_count=2))
        assert threading.active_count() == before

    def test_an_error_in_a_task_comes_out_of_run(self, monkeypatch):
        def fail(*args):
            raise DomainError("no draws today")

        monkeypatch.setattr(sim, "_draw_best", fail)
        before = threading.active_count()
        with pytest.raises(DomainError, match="^no draws today$"):
            sim.run(load_scenario_file(EXAMPLE), cfg=SimConfig(3000, seed=1))
        assert threading.active_count() == before


def loaded_source(load_per_slot, utilization, delay_threshold, buffer_capacity):
    """A lone Rayleigh source, as in acceptance criterion 06: transmit chance load / utilization."""
    phi = load_per_slot / utilization
    beta = math.sqrt(-2.0 * math.log(1.0 - (1.0 - phi) ** (1.0 / 15.0)))
    source = {
        "id": "src",
        "role": "source",
        "position": [5.0, 5.0, 0.0],
        "transmit_power": 0.5,
        "fading": "rayleigh",
        "beta": beta,
        "queue": {
            "arrival_rate": load_per_slot / 0.002,
            "delay_threshold": delay_threshold,
            "buffer_capacity_normalized": buffer_capacity,
        },
    }
    return scenario_from_mapping({"nodes": [source]})


# name: (scenario, policy, config); each case runs in well under 2 s
SLOT_LOOP_CASES = {
    "example_mixed_fading": (
        lambda: load_scenario_file(EXAMPLE),
        None,
        SimConfig(4000, seed=2, warmup_slots=400, replication_count=2),
    ),
    "fig2_rician_interferers": (
        lambda: presets.preset_scenario("fig2", 3),
        None,
        SimConfig(4000, seed=7, warmup_slots=400, replication_count=2),
    ),
    "silenced_interferer": (
        lambda: small_scenario(beta=1.8, interferer_beta=0.5),
        {"i1": math.inf},
        SimConfig(8000, seed=4, warmup_slots=500, replication_count=2),
    ),
    "silenced_source": (
        lambda: small_scenario(beta=1.8, interferer_beta=0.5),
        {"src": math.inf},
        SimConfig(8000, seed=4, warmup_slots=500, replication_count=2),
    ),
    "warmup_zero": (
        lambda: small_scenario(beta=2.2, interferer_beta=0.5),
        None,
        SimConfig(8000, seed=5, warmup_slots=0, replication_count=2),
    ),
    "warmup_inside_second_block": (
        lambda: small_scenario(
            num_interferers=1,
            beta=2.6,
            interferer_beta=0.5,
            queue={
                "arrival_rate": 160.0,
                "delay_threshold": 0.02,
                "buffer_capacity_normalized": 20.0,
            },
        ),
        None,
        SimConfig(70_000, seed=7, warmup_slots=66_000),
    ),
    "buffer_full_bursts": (
        lambda: small_scenario(
            beta=2.6,
            interferer_beta=0.5,
            queue={
                "arrival_rate": 300.0,
                "delay_threshold": 0.045,
                "buffer_capacity_normalized": 1.5,
            },
        ),
        None,
        SimConfig(8000, seed=9, warmup_slots=500, replication_count=2),
    ),
    "expiry_on_the_last_slot": (
        lambda: small_scenario(
            num_interferers=1,
            queue={
                "arrival_rate": 450.0,
                "delay_threshold": 0.01,
                "buffer_capacity_normalized": 50.0,
            },
        ),
        {"src": math.inf},
        SimConfig(300, seed=3, warmup_slots=20, replication_count=16),
    ),
    # deadline and overflow drops on both sides of the first block boundary
    "drops_across_the_block_boundary": (
        lambda: loaded_source(0.32, 0.55, delay_threshold=0.02, buffer_capacity=8.0),
        None,
        SimConfig(70_000, seed=23, warmup_slots=5_000),
    ),
}


class TestSlotLoopOracle:
    @pytest.mark.parametrize("case", list(SLOT_LOOP_CASES))
    def test_counts_bit_identical_to_the_slot_loop(self, case):
        make_scenario, policy, cfg = SLOT_LOOP_CASES[case]
        scenario = make_scenario()
        assert sim.run(scenario, policy, cfg).counts == slot_loop_counts(scenario, policy, cfg)

    @pytest.mark.parametrize("case", ["example_mixed_fading", "drops_across_the_block_boundary"])
    def test_counts_bit_identical_with_slices_of_a_few_slots(self, monkeypatch, case):
        """Slices of 3 (Rician) or 6 (Rayleigh) slots break inside blocks and part-walks."""
        make_scenario, policy, cfg = SLOT_LOOP_CASES[case]
        scenario = make_scenario()
        monkeypatch.setattr(sim, "_SLICE", 6 * scenario.num_channels)
        assert sim.run(scenario, policy, cfg).counts == slot_loop_counts(scenario, policy, cfg)

    def test_the_drop_case_drops_both_ways(self):
        make_scenario, policy, cfg = SLOT_LOOP_CASES["drops_across_the_block_boundary"]
        (counts,) = sim.run(make_scenario(), policy, cfg).counts
        assert counts.delay_drops > 0 and counts.overflow_drops > 0


class StubGenerator:
    """Hands out one fixed array of draws in the shape asked for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def _draw(self, size):
        return self.values.reshape(size).copy()

    standard_normal = standard_exponential = exponential = _draw


def hypot_above(re, im):
    """An imaginary part just above ``im`` whose ``np.hypot`` with ``re`` is one ulp larger."""
    h = np.hypot(re, im)
    up = im
    while np.hypot(re, up) == h:
        up = np.nextafter(up, math.inf)
    assert np.hypot(re, up) == np.nextafter(h, math.inf)
    return up


class TestDrawBest:
    """A slot's channel is the argmax of its draws, the first of equals, and its
    amplitude is the slot loop's amplitude of that channel, bit for bit."""

    NB, F = 40, 15

    def check(self, model, values, planted):
        """The slot loop's amplitudes, once ``_draw_best`` agrees with them; the
        first ``planted`` slots hold planted ties, and their channels are returned."""
        want = _draw_fading_slot_loop(StubGenerator(values), model, self.NB, self.F)
        channel, value = sim._draw_best(StubGenerator(values), model, self.NB, self.F)
        assert value.tolist() == want[np.arange(self.NB), channel].tolist()
        assert value.tolist() == want.max(axis=1).tolist()
        assert channel[planted:].tolist() == want[planted:].argmax(axis=1).tolist()
        return want, channel[:planted].tolist()

    def test_rician_ties_and_one_ulp_gaps(self):
        model = Rician(3.9)
        g = np.random.default_rng(11).standard_normal((self.NB, self.F, 2))
        re = model.b + 4.0  # the real part of the planted channels, above the random ones
        g[0, [3, 7], 0] = 4.0
        g[0, [3, 7], 1] = [1.25, -1.25]  # mirrored: equal magnitudes
        g[1, [2, 9], 0] = 4.0
        g[1, [2, 9], 1] = [hypot_above(re, 0.75), 0.75]  # the first is one ulp larger
        g[2, [2, 9], 0] = 4.0
        g[2, [2, 9], 1] = [0.75, hypot_above(re, 0.75)]  # the second is one ulp larger
        fades, channels = self.check(model, g, planted=3)
        assert channels == [3, 2, 9]
        assert fades[0, 3] == fades[0, 7]
        assert fades[1, 2] == np.nextafter(fades[1, 9], math.inf)
        assert fades[2, 9] == np.nextafter(fades[2, 2], math.inf)

    def test_rayleigh_ties_and_one_ulp_gaps(self):
        model = Rayleigh(0.7)
        e = np.random.default_rng(12).exponential(size=(self.NB, self.F))
        e[0, [3, 7]] = 50.0  # equal draws
        e[1, [1, 4]] = [50.0, np.nextafter(50.0, math.inf)]  # one ulp apart, equal amplitudes
        e[2, [1, 4]] = [np.nextafter(50.0, math.inf), 50.0]
        fades, channels = self.check(model, e, planted=3)
        assert channels == [3, 4, 1]  # the larger draw wins where the amplitudes round equal
        assert fades[1, 1] == fades[1, 4] == fades[2, 1] == fades[2, 4]

    @pytest.mark.parametrize("model", [Rayleigh(0.7), Rician(3.9)], ids=["rayleigh", "rician"])
    def test_the_best_of_f_channels_is_uniform_and_follows_the_cdf_to_the_f(self, model):
        """With i.i.d. channels the best one is uniform over them, and its amplitude
        has CDF F^f (David and Nagaraja, Order Statistics, 2003)."""
        nb = sim._BLOCK
        channel, value = sim._draw_best(np.random.default_rng(2027), model, nb, self.F)
        assert stats.chisquare(np.bincount(channel, minlength=self.F)).pvalue > 1e-3
        cdf = lambda x: fading_cdf(model, x) ** self.F  # noqa: E731
        assert stats.kstest(value, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("slots", [1, 7, 333])  # 333 slots do not divide the block
    @pytest.mark.parametrize("model", [Rayleigh(0.7), Rician(3.9)], ids=["rayleigh", "rician"])
    def test_slices_read_the_stream_of_one_call(self, monkeypatch, model, slots):
        nb, per_slot = 1000, self.F if isinstance(model, Rayleigh) else 2 * self.F
        rngs = [np.random.default_rng(2029) for _ in range(2)]
        monkeypatch.setattr(sim, "_SLICE", nb * per_slot)
        whole = sim._draw_best(rngs[0], model, nb, self.F)
        monkeypatch.setattr(sim, "_SLICE", slots * per_slot)
        sliced = sim._draw_best(rngs[1], model, nb, self.F)
        assert sliced[0].dtype == np.uint8
        assert [a.tolist() for a in sliced] == [a.tolist() for a in whole]
        assert rngs[1].random() == rngs[0].random()  # the draws that follow are the same

    def test_a_block_of_64_rician_channels_is_drawn_in_a_few_megabytes(self):
        """Drawn at once, the block's normals and magnitudes would take 100 MB."""
        rng = np.random.default_rng(2030)
        tracemalloc.start()
        try:
            sim._draw_best(rng, Rician(3.9), 1 << 16, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestArrivalOrder:
    def test_ties_of_the_rounded_key_keep_the_three_key_order(self):
        above = np.nextafter(0.5, 1.0)
        assert 5 + above == 5 + 0.5  # one ulp of the offset is lost in the key
        slot_of = np.array([0, 0, 1, 5, 5, 5, 7, 7])
        offsets = np.array([0.7, 0.2, 0.1, above, 0.5, 0.5, 0.3, 0.3])
        lengths = np.array([1.0, 1.0, 1.0, 0.2, 0.9, 0.4, 2.0, 0.5])
        order = sim._arrival_order(slot_of, offsets, lengths)
        assert order.tolist() == np.lexsort((lengths, offsets, slot_of)).tolist()
        assert order[3:6].tolist() == [5, 4, 3]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 70_000), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 5.0)
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_three_key_sort(self, arrivals):
        arrivals.sort(key=lambda a: a[0])  # arrivals come grouped by slot
        slot_of = np.array([a[0] for a in arrivals], dtype=int)
        offsets = np.array([a[1] for a in arrivals], dtype=float)
        lengths = np.array([a[2] for a in arrivals], dtype=float)
        order = sim._arrival_order(slot_of, offsets, lengths)
        assert order.tolist() == np.lexsort((lengths, offsets, slot_of)).tolist()


def block(
    nb=12, start=50, tx=(), arrivals=(), carried=(), warmup=0, deadline=0.05, capacity=30.0
):
    """One block of a queue: transmit slots ``tx``, ``arrivals`` as (slot, offset, length)
    in admission order, and the carried-in packets as (time, length)."""
    can_tx = np.zeros(nb, dtype=bool)
    can_tx[list(tx)] = True
    stored = 0.0
    for _, length in carried:
        stored += length
    return {
        "start": start,
        "t_slt": 0.002,
        "can_tx": can_tx,
        "slot_of": np.array([a[0] for a in arrivals], dtype=int),
        "times": np.array([(start + s + o) * 0.002 for s, o, _ in arrivals]),
        "lengths": np.array([a[2] for a in arrivals]),
        # the visit loop expires lazily; a visit at the last slot leaves the walk's state
        "bookkeeping": np.array(sorted({s for s in [warmup - 1 - start, nb - 1] if 0 <= s < nb})),
        "carried": list(carried),
        "stored": stored,
        "warmup": warmup,
        "deadline": deadline,
        "capacity": capacity,
    }


@st.composite
def queue_blocks(draw):
    """A block of random transmit chances, arrivals and carried-in packets."""
    nb = draw(st.integers(1, 40))
    start = draw(st.integers(0, 100))
    size = st.floats(0.01, 3.0)
    arrival = st.tuples(st.integers(0, nb - 1), st.floats(0.0, 1.0, exclude_max=True), size)
    ages = draw(st.lists(st.floats(0.0, 0.02), max_size=4))
    return block(
        nb=nb,
        start=start,
        tx=np.flatnonzero(draw(st.lists(st.booleans(), min_size=nb, max_size=nb))),
        arrivals=sorted(draw(st.lists(arrival, max_size=nb))),
        carried=[(start * 0.002 - age, draw(size)) for age in sorted(ages, reverse=True)],
        warmup=draw(st.integers(0, start + nb + 5)),
        deadline=draw(st.floats(0.001, 0.3)),
        capacity=draw(st.floats(0.5, 30.0)),
    )


CARRIED = [(0.09, 1.0), (0.095, 0.5)]
ARRIVALS = [(1, 0.3, 0.8), (1, 0.7, 1.1), (4, 0.1, 0.4), (9, 0.5, 2.0)]


def queue_state(queue) -> tuple:
    return (
        queue.arrivals,
        queue.overflow_drops,
        queue.delay_drops,
        queue.queued_at_warmup,
        list(queue.packets),
        queue.stored.hex(),
    )


def args_of(b, lo=0, hi=None):
    """The ``walk`` arguments of block slots ``lo`` to ``hi`` of block ``b``."""
    a, z = np.searchsorted(b["slot_of"], [lo, b["can_tx"].size if hi is None else hi])
    return (
        b["start"] + lo, b["t_slt"], b["can_tx"][lo:hi], b["slot_of"][a:z] - lo,
        b["times"][a:z], b["lengths"][a:z],
    )


class TestBlockSchedule:
    """The drop-aware departure schedule of a block against the visit loop."""

    @staticmethod
    def queue(b):
        node = sim._SimNode(
            index=0,
            beta=0.0,
            received_power=1.0,
            fading=Rayleigh(1.0),
            arrivals_per_slot=0.0,
            delay_threshold=b["deadline"],
            buffer_capacity=b["capacity"],
        )
        queue = sim._Queue(node, b["warmup"])
        queue.packets.extend(b["carried"])
        queue.stored = b["stored"]
        return queue

    @given(b=queue_blocks())
    @example(b=block(tx=[2, 5, 6, 10], arrivals=ARRIVALS, carried=CARRIED))  # carried in
    @example(b=block(tx=[11], arrivals=ARRIVALS, carried=CARRIED, deadline=0.01))  # deadline drops
    @example(b=block(tx=[10], arrivals=ARRIVALS, capacity=2.0))  # overflow drops
    @example(b=block(tx=[0, 3, 8], arrivals=ARRIVALS, carried=CARRIED, warmup=55))  # warmup inside
    @example(b=block(arrivals=ARRIVALS, carried=CARRIED))  # no transmit slot
    @example(b=block(arrivals=ARRIVALS, carried=CARRIED, deadline=0.01))  # none, and expiry
    @example(b=block(tx=[0, 3], carried=CARRIED, warmup=56))  # no arrivals
    @example(b=block(arrivals=ARRIVALS))  # nothing leaves, nothing dropped
    @example(b=block(carried=[(0.09, 1.0)], deadline=0.005))  # carried in past its deadline
    @example(b=block(nb=7, arrivals=[(1, 0.0, 1.0)], deadline=0.01))  # not yet past at slot 6
    @example(b=block(nb=7, start=513675, arrivals=[(1, 0.5, 1.0)], deadline=0.009))  # past at 6
    @settings(max_examples=400, deadline=None)
    def test_schedule_matches_the_visit_loop(self, b):
        loop, walked = self.queue(b), self.queue(b)
        want = visit_block(loop, *args_of(b), b["bookkeeping"])
        assert walked.walk(*args_of(b)).tolist() == want.tolist()
        assert queue_state(walked) == queue_state(loop)

    @given(b=queue_blocks(), data=st.data())
    @example(b=block(tx=[11], arrivals=ARRIVALS, carried=CARRIED, deadline=0.01), data=None)
    @settings(max_examples=300, deadline=None)
    def test_a_block_walks_the_same_in_two_parts(self, b, data):
        nb = b["can_tx"].size
        assume(nb > 1)
        cut = 5 if data is None else data.draw(st.integers(1, nb - 1))
        whole, parts = self.queue(b), self.queue(b)
        want = whole.walk(*args_of(b))
        got = [parts.walk(*args_of(b, 0, cut)), cut + parts.walk(*args_of(b, cut))]
        assert np.concatenate(got).tolist() == want.tolist()
        assert queue_state(parts) == queue_state(whole)


class TestClampChain:
    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 6)), max_size=70),
        st.integers(0, 25),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_clamps_one_by_one(self, bounds, tight):
        lo = np.array([b[0] for b in bounds], dtype=np.intp)
        hi = lo + np.array([b[1] if j % (tight + 1) == 0 else 99 for j, b in enumerate(bounds)])
        x, want = 0, []
        for low, high in zip(lo.tolist(), hi.tolist()):
            want.append(x)
            x = min(max(x, low), high)
        assert sim._clamp_chain(lo, hi).tolist() == want


class TestConservation:
    @pytest.mark.parametrize("warmup", [0, 700])
    def test_arrival_accounting_is_exact(self, warmup):
        scenario = small_scenario(beta=2.2, interferer_beta=0.5)
        result = sim.run(
            scenario, cfg=SimConfig(20_000, seed=5, warmup_slots=warmup, replication_count=3)
        )
        for c in result.counts:
            assert (
                c.arrivals + c.queued_at_warmup
                == c.delivered
                + c.delay_drops
                + c.error_drops
                + c.overflow_drops
                + c.queued_at_end
            )
            assert c.transmissions == c.delivered + c.error_drops

    def test_warmup_zero_starts_empty(self):
        scenario = small_scenario()
        result = sim.run(scenario, cfg=SimConfig(2000, seed=5, warmup_slots=0))
        assert result.counts[0].queued_at_warmup == 0


class TestSilencedInterferers:
    def test_infinite_threshold_equals_removing_them(self):
        # per-node streams are independent, so the source's sample path is
        # unchanged when the interferers never transmit
        silenced = single_channel_scenario()
        alone = scenario_from_mapping(
            {
                "num_channels": 1,
                "noise": {"bandwidth": silenced.noise.bandwidth},
                "nodes": [
                    {
                        "id": "src",
                        "role": "source",
                        "position": [5.0, 5.0, 0.0],
                        "transmit_power": 0.5,
                        "fading": "rayleigh",
                        "beta": 0.5,
                        "queue": {
                            "arrival_rate": 150.0,
                            "delay_threshold": 0.1,
                            "buffer_capacity_normalized": 500.0,
                        },
                    }
                ],
            }
        )
        cfg = SimConfig(4000, seed=33, warmup_slots=100, replication_count=2)
        assert sim.run(silenced, cfg=cfg).counts == sim.run(alone, cfg=cfg).counts

    def test_zero_interference_error_matches_analytics_within_ci(self):
        scenario = single_channel_scenario()
        analytic = tp.evaluate(scenario).p_error
        result = sim.run(scenario, cfg=SimConfig(60_000, seed=3, warmup_slots=500, replication_count=8))
        assert abs(result.p_error.value - analytic) <= max(result.p_error.halfwidth, 1e-3)

    def test_confidence_interval_coverage(self):
        # 100 pinned runs: the 95% normal-approximation interval must cover
        # the exact error probability in at least 93 of them
        scenario = single_channel_scenario()
        analytic = tp.evaluate(scenario).p_error
        covered = 0
        for run_idx in range(100):
            result = sim.run(
                scenario,
                cfg=SimConfig(1500, seed=1000 + run_idx, warmup_slots=100, replication_count=32),
            )
            if abs(result.p_error.value - analytic) <= result.p_error.halfwidth:
                covered += 1
        assert covered >= 93


class TestBoundaryBehavior:
    def test_queue_drops_grow_past_the_stability_bound(self):
        # at the bound the deadline keeps the loss finite; beyond it the
        # service deficit pushes the drop rate toward one
        scenario = small_scenario(num_interferers=0)
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        cfg = SimConfig(60_000, seed=8, warmup_slots=10_000)

        at_bound = sim.run(scenario, PolicyVector({"src": upper}), cfg).counts[0]
        drop_at_bound = (at_bound.delay_drops + at_bound.overflow_drops) / at_bound.arrivals
        assert drop_at_bound > 0.1

        beyond = sim.run(scenario, PolicyVector({"src": 1.3 * upper}), cfg).counts[0]
        drop_beyond = (beyond.delay_drops + beyond.overflow_drops) / beyond.arrivals
        assert drop_beyond > 0.8
        assert drop_beyond > drop_at_bound

    def test_empirical_throughput_rises_with_interferer_thresholds(self):
        scenario = small_scenario(num_interferers=2, beta=1.8, interferer_beta=0.0)
        cfg = SimConfig(30_000, seed=21, warmup_slots=1000, replication_count=4)
        rates = []
        for beta_m in (0.0, 1.5, 3.5):
            policy = PolicyVector({"src": 1.8, "i0": beta_m, "i1": beta_m})
            result = sim.run(scenario, policy, cfg)
            rates.append(result.throughput)
        for low, high in zip(rates, rates[1:]):
            assert high.value >= low.value - (low.halfwidth + high.halfwidth + 1e-9)


class TestConfigValidation:
    def test_warmup_bounds(self):
        with pytest.raises(DomainError):
            SimConfig(100, warmup_slots=100)

    def test_replications(self):
        with pytest.raises(DomainError):
            SimConfig(100, replication_count=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_slots": 2000.5},
            {"num_slots": 2000.0},
            {"num_slots": True},
            {"num_slots": 2000, "warmup_slots": 1.5},
            {"num_slots": 2000, "warmup_slots": True},
            {"num_slots": 2000, "replication_count": 2.0},
            {"num_slots": 2000, "replication_count": True},
            {"num_slots": 2000, "seed": 1.5},
        ],
    )
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(np.int64(2000), warmup_slots=np.int32(10))
        assert cfg.num_slots == 2000

    def test_unknown_policy_node_named(self):
        with pytest.raises(ScenarioError, match="typo"):
            sim.run(small_scenario(), policy={"typo": 3.0}, cfg=SimConfig(100))

    def test_partial_policy_gives_the_completed_counts(self):
        scenario = load_scenario_file(EXAMPLE)
        full = PolicyVector({**scenario_policy(scenario).betas, "src": 4.5})
        cfg = SimConfig(3000, seed=4, warmup_slots=100, replication_count=2)
        partial = sim.run(scenario, PolicyVector({"src": 4.5}), cfg).counts
        assert partial == sim.run(scenario, full, cfg).counts

    @pytest.mark.parametrize("beta", [math.nan, -1.0])
    def test_invalid_policy_threshold_named(self, beta):
        with pytest.raises(DomainError, match="'src'"):
            sim.run(load_scenario_file(EXAMPLE), {"src": beta}, SimConfig(1000))

    @pytest.mark.parametrize("num_channels", [10**300, 2**62])
    def test_an_undrawable_channel_count_is_named_before_the_pool(self, monkeypatch, capfd,
                                                                   num_channels):
        def no_pool():
            raise AssertionError("the pool was started")

        monkeypatch.setattr(sim, "_usable_cpus", no_pool)
        scenario = replace(load_scenario_file(EXAMPLE), num_channels=num_channels)
        with pytest.raises(DomainError, match="^num_channels = "):
            sim.run(scenario, cfg=SimConfig(100))
        assert capfd.readouterr().err == ""

    def test_single_replication_has_zero_halfwidth(self):
        scenario = small_scenario()
        result = sim.run(scenario, cfg=SimConfig(2000, seed=1, replication_count=1))
        assert result.p_error.halfwidth == 0.0
