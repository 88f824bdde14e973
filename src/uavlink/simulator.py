"""Slot-level Monte Carlo oracle for the analytic loss model.

Unlike the closed forms, the simulator runs the true system: geometric
service (a head-of-line packet leaves only when the best channel clears
the threshold), the exact interference sum with per-channel collisions,
finite buffers holding exponential packet lengths, and deadline drops at
slot boundaries.  Gaps between these statistics and the analytics measure
the quality of the closed-form approximations, not bugs.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .errors import DomainError
from .scenario_io import Scenario
from .throughput import _resolve_policy

__all__ = [
    "SimConfig",
    "MetricEstimate",
    "ReplicationCounts",
    "SimResult",
    "derive_seed",
    "run",
]

_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Horizon, seeding, warmup, and replication count of one simulation."""

    num_slots: int
    seed: int = 0
    warmup_slots: int = 0
    replication_count: int = 1

    def __post_init__(self):
        for name in ("num_slots", "seed", "warmup_slots", "replication_count"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"SimConfig: {name} must be an integer, got {value!r}")
        if not 0 <= self.warmup_slots < self.num_slots:
            raise DomainError("SimConfig: need num_slots > warmup_slots >= 0")
        if self.replication_count < 1:
            raise DomainError("SimConfig: replication_count must be >= 1")


@dataclass(frozen=True)
class MetricEstimate:
    """Point estimate with a 95% normal-approximation halfwidth across replications."""

    value: float
    halfwidth: float


@dataclass(frozen=True)
class ReplicationCounts:
    """Raw post-warmup event tallies of the source node for one replication.

    The exact conservation identity is
    arrivals + queued_at_warmup ==
    delivered + delay_drops + error_drops + overflow_drops + queued_at_end.
    """

    arrivals: int
    overflow_drops: int
    delay_drops: int
    error_drops: int
    delivered: int
    transmissions: int
    queued_at_warmup: int
    queued_at_end: int

    @property
    def admitted(self) -> int:
        return self.arrivals - self.overflow_drops + self.queued_at_warmup

    def p_overflow(self) -> float:
        return self.overflow_drops / self.arrivals if self.arrivals else 0.0

    def p_delay(self) -> float:
        return self.delay_drops / self.admitted if self.admitted else 0.0

    def p_error(self) -> float:
        return self.error_drops / self.transmissions if self.transmissions else 0.0


@dataclass(frozen=True)
class SimResult:
    p_delay: MetricEstimate
    p_overflow: MetricEstimate
    p_error: MetricEstimate
    throughput: MetricEstimate
    counts: tuple[ReplicationCounts, ...]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, replication: int, node: int) -> int:
    """Avalanche-mixed per-(replication, node) stream seed; pure and stable."""
    h = _splitmix64(master & _MASK64)
    h = _splitmix64(h ^ ((replication + 1) & _MASK64))
    h = _splitmix64(h ^ (((node + 1) << 32) & _MASK64))
    return h


@dataclass(frozen=True)
class _SimNode:
    index: int
    beta: float
    received_power: float  # transmit power times squared path-loss amplitude
    fading: ch.FadingModel
    arrivals_per_slot: float
    delay_threshold: float
    buffer_capacity: float


_NEAR_TIE = 1e-13  # relative gap below which the proxy's pick is checked on the amplitudes


def _draw_best(rng: np.random.Generator, model: ch.FadingModel, nb: int, f: int, work: np.ndarray):
    """Each of ``nb`` slots' best channel among ``f`` and its fading amplitude.

    Rayleigh amplitudes are sqrt(omega E) of unit exponentials E and Rician
    ones |b + Z| of standard complex normals Z, computed by ``np.hypot``.
    The winner is picked on a monotone proxy that is cheaper than the
    amplitudes: E itself, or ``np.abs(b + Z)``, which is within a few ulp of
    ``np.hypot``.  The proxy is laid out channel-major, so the top of each
    slot is one elementwise maximum over the channels, and a slot's winner
    is its only channel within ``_NEAR_TIE`` of the top.  A slot with more
    than one is picked again on the amplitudes, so channel (the first of
    equals) and amplitude are those of the argmax over all ``f`` amplitudes.
    The draws and the proxy are made in ``work``, a float array of at least
    ``3 nb f`` elements that the caller reuses from block to block.
    """
    n = nb * f
    proxy = work[2 * n : 3 * n].reshape(f, nb)
    if isinstance(model, ch.Rayleigh):
        draws = rng.standard_exponential(out=work[:n].reshape(nb, f))
        np.copyto(proxy, draws.T)

        def amplitude(x):
            return np.sqrt(model.omega * x)
    else:
        normals = rng.standard_normal(out=work[: 2 * n].reshape(nb, f, 2))
        normals[..., 0] += model.b
        draws = normals.view(complex)[..., 0]
        np.abs(draws.T, out=proxy)

        def amplitude(z):
            return np.hypot(z.real, z.imag)
    # 1 where a channel is within reach of its slot's top, else 0
    np.greater_equal(proxy, proxy.max(axis=0) * (1.0 - _NEAR_TIE), out=proxy)
    channel = (np.arange(f, dtype=float) @ proxy).astype(np.intp)  # the index of a lone 1
    if np.count_nonzero(proxy) > nb:
        rows = np.flatnonzero(np.count_nonzero(proxy, axis=0) > 1)
        channel[rows] = amplitude(draws[rows]).argmax(axis=1)
    return channel, amplitude(draws[np.arange(nb), channel])


class _Queue:
    """One node's FIFO buffer, advanced one block of slots at a time.

    A slot does deadline expiry, then at most one transmission, then the
    slot's arrivals in offset order.  A block in which nothing is dropped
    is one departure schedule (:meth:`_schedule`); any other block is
    walked visit by visit (:meth:`_visit`).  Tallies count events in slots
    at or after ``warmup``.
    """

    def __init__(self, node: _SimNode, warmup: int):
        self.packets: deque = deque()
        self.stored = 0.0
        self.delay_threshold = node.delay_threshold
        self.buffer_capacity = node.buffer_capacity
        self.warmup = warmup
        self.arrivals = self.overflow_drops = self.delay_drops = 0
        self.queued_at_warmup = 0

    def walk(self, start, t_slt, can_tx, slot_of, times, lengths, bookkeeping) -> np.ndarray:
        """Advance through one block; return the block slots it transmitted in.

        ``can_tx`` marks the block slots whose best channel clears the
        threshold.  Packet ``j`` arrives in block slot ``slot_of[j]`` at
        time ``times[j]`` with length ``lengths[j]``, in admission order.
        ``bookkeeping`` are further block slots to visit.
        """
        sent = self._schedule(start, t_slt, can_tx, slot_of, times, lengths)
        if sent is None:
            sent = self._visit(start, t_slt, can_tx, slot_of, times, lengths, bookkeeping)
        return sent

    def _schedule(self, start, t_slt, can_tx, slot_of, times, lengths) -> np.ndarray | None:
        """:meth:`walk` for a block that drops nothing; ``None``, changing nothing, otherwise.

        Without drops the queue is a FIFO served at the transmit slots, so
        (Lindley, 1952) packet j, the carried-in packets first, leaves at
        transmit slot number d_j = max(a_j, d_{j-1} + 1) = j + max over
        i <= j of (a_i - i), where a_i is the first transmit slot after
        packet i's arrival slot (0 for a carried-in packet).  ``stored`` is
        replayed over each slot's departure, then its arrivals: the float
        sequence the visits add up.  The schedule stands if no packet is
        past its deadline when it leaves, none that stays is past it at
        the block's last slot, and every arrival fits the buffer.
        """
        tx_slots = np.flatnonzero(can_tx)
        held = len(self.packets)
        first = np.searchsorted(tx_slots, slot_of, side="right")
        if held:
            carried = np.array(self.packets).T
            times = np.concatenate((carried[0], times))
            lengths = np.concatenate((carried[1], lengths))
            first = np.concatenate((np.zeros(held, dtype=first.dtype), first))
        rank = np.arange(first.size)
        leave = rank + np.maximum.accumulate(first - rank)
        gone = int(np.searchsorted(leave, tx_slots.size))
        sent = tx_slots[leave[:gone]]
        deadline = self.delay_threshold
        if np.any((start + sent) * t_slt - times[:gone] > deadline) or np.any(
            (start + can_tx.size - 1) * t_slt - times[gone:] > deadline
        ):
            return None
        # departures before arrivals within a slot; steps in FIFO order within each kind
        order = np.argsort(np.concatenate((2 * sent, 2 * slot_of + 1)), kind="stable")
        steps = np.concatenate((-lengths[:gone], lengths[held:]))[order]
        level = np.add.accumulate(np.concatenate(([self.stored], steps)))
        if np.any(level[1:][order >= gone] > self.buffer_capacity):
            return None
        self.stored = float(level[-1])
        self.packets = deque(zip(times[gone:].tolist(), lengths[gone:].tolist()))
        last_warmup_slot = self.warmup - 1 - start
        if 0 <= last_warmup_slot < can_tx.size:
            self.queued_at_warmup = (
                held
                + int(np.searchsorted(slot_of, last_warmup_slot, side="right"))
                - int(np.searchsorted(sent, last_warmup_slot, side="right"))
            )
        self.arrivals += slot_of.size - int(np.searchsorted(slot_of, self.warmup - start))
        return sent

    def _visit(self, start, t_slt, can_tx, slot_of, times, lengths, bookkeeping) -> np.ndarray:
        """:meth:`walk` by visiting the slots where the queue can change.

        The queue is visited at its arrival slots, at its transmit slots
        while it holds packets, and at the ``bookkeeping`` slots.  Between
        two visits nothing enters or leaves it, and the expired packets
        form a prefix that only grows with time, so expiring them at the
        next visit pops the same packets in the same order, and ``stored``
        sees the same float sequence, as expiring them in every slot.  A
        bookkeeping visit at ``warmup - 1`` keeps packets that expired
        before the warmup out of the tallies.
        """
        nb = can_tx.size
        mark = np.zeros(nb + 1, dtype=bool)
        mark[slot_of] = True
        mark[bookkeeping] = True
        mark[nb] = True  # sentinel: drain the block's last transmit slots
        visits = np.flatnonzero(mark)
        tx_slots = np.flatnonzero(can_tx)
        # the transmit slots up to each visit, its own included
        stops = np.searchsorted(tx_slots, visits) + np.append(can_tx, False)[visits]

        q = self.packets
        stored = self.stored
        deadline = self.delay_threshold
        capacity = self.buffer_capacity
        warmup = self.warmup
        arrivals = overflow_drops = delay_drops = 0
        times = times.tolist()
        lengths = lengths.tolist()
        tx_list = tx_slots.tolist()
        sent = []
        k = lo = 0
        for v, hi, stop in zip(
            visits.tolist(),
            np.searchsorted(slot_of, visits, side="right").tolist(),
            stops.tolist(),
        ):
            while q and k < stop:
                s = tx_list[k]
                k += 1
                slot = start + s
                now = slot * t_slt
                while q and now - q[0][0] > deadline:
                    stored -= q.popleft()[1]
                    if slot >= warmup:
                        delay_drops += 1
                if q:
                    stored -= q.popleft()[1]
                    sent.append(s)
            if v == nb:
                break
            k = stop
            slot = start + v
            now = slot * t_slt
            measured = slot >= warmup
            while q and now - q[0][0] > deadline:
                stored -= q.popleft()[1]
                if measured:
                    delay_drops += 1
            for j in range(lo, hi):
                length = lengths[j]
                if stored + length <= capacity:
                    q.append((times[j], length))
                    stored += length
                elif measured:
                    overflow_drops += 1
            if measured:
                arrivals += hi - lo
            lo = hi
            if slot == warmup - 1:
                self.queued_at_warmup = len(q)
        self.stored = stored
        self.arrivals += arrivals
        self.overflow_drops += overflow_drops
        self.delay_drops += delay_drops
        return np.array(sent, dtype=np.intp)


def _arrival_order(slot_of: np.ndarray, offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((lengths, offsets, slot_of))``, sorting arrivals by time.

    The rounded key slot + offset orders the arrivals as (slot, offset) does
    wherever no two keys tie, and one stable sort of it is far cheaper than
    the three-key sort, which is kept for a block with a tie.
    """
    key = slot_of + offsets
    order = np.argsort(key, kind="stable")
    if np.any(key[order[1:]] == key[order[:-1]]):
        return np.lexsort((lengths, offsets, slot_of))
    return order


def _run_replication(
    scenario: Scenario,
    nodes: list[_SimNode],
    source_idx: int,
    cfg: SimConfig,
    replication: int,
) -> ReplicationCounts:
    f = scenario.num_channels
    t_slt = scenario.slot_duration
    gamma_th = scenario.sinr_threshold
    noise_power = scenario.noise.power
    rngs = [
        np.random.default_rng(derive_seed(cfg.seed, replication, node.index))
        for node in nodes
    ]
    queues = [_Queue(node, cfg.warmup_slots) for node in nodes]
    bookkeeping = np.array([cfg.warmup_slots - 1, cfg.num_slots - 1])
    delivered = transmissions = 0
    work = np.empty(3 * min(_BLOCK, cfg.num_slots) * f)

    done = 0
    while done < cfg.num_slots:
        nb = min(_BLOCK, cfg.num_slots - done)
        local = bookkeeping - done
        local = local[(local >= 0) & (local < nb)]
        best_val = []
        best_ch = []
        sent = []
        for node, rng, queue in zip(nodes, rngs, queues):
            channel, value = _draw_best(rng, node.fading, nb, f, work)
            best_ch.append(channel)
            best_val.append(value)
            cnt = rng.poisson(node.arrivals_per_slot, nb)
            total = int(cnt.sum())
            offsets = rng.random(total)
            lengths = rng.exponential(1.0, total)
            slot_of = np.repeat(np.arange(nb), cnt)
            order = _arrival_order(slot_of, offsets, lengths)  # FIFO follows arrival times
            times = ((slot_of + done) + offsets[order]) * t_slt
            sent.append(
                queue.walk(done, t_slt, value >= node.beta, slot_of, times, lengths[order], local)
            )

        tx = sent[source_idx]
        if tx.size:
            my_ch = best_ch[source_idx][tx]
            interference = np.zeros(tx.size)
            for i, node in enumerate(nodes):
                if i == source_idx:
                    continue
                on = np.zeros(nb, dtype=bool)
                on[sent[i]] = True
                hit = on[tx] & (best_ch[i][tx] == my_ch)
                interference += np.where(hit, node.received_power * best_val[i][tx] ** 2, 0.0)
            signal = nodes[source_idx].received_power * best_val[source_idx][tx] ** 2
            ok = signal >= gamma_th * (noise_power + interference)
            measured = tx + done >= cfg.warmup_slots
            transmissions += int(np.count_nonzero(measured))
            delivered += int(np.count_nonzero(ok & measured))
        done += nb

    source = queues[source_idx]
    return ReplicationCounts(
        arrivals=source.arrivals,
        overflow_drops=source.overflow_drops,
        delay_drops=source.delay_drops,
        error_drops=transmissions - delivered,
        delivered=delivered,
        transmissions=transmissions,
        queued_at_warmup=source.queued_at_warmup,
        queued_at_end=len(source.packets),
    )


def _estimate(values: list[float]) -> MetricEstimate:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return MetricEstimate(mean, 0.0)
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return MetricEstimate(mean, half)


def _sim_nodes(scenario: Scenario, policy=None) -> tuple[list[_SimNode], int]:
    """The scenario's nodes under ``policy``, and the index of the source."""
    betas = _resolve_policy(scenario, policy).betas
    nodes = []
    source_idx = None
    for index, node in enumerate(scenario.nodes):
        link = ch.build_link(
            node.position, scenario.destination, scenario.environment, node.fading_override
        )
        if node.role == "source":
            source_idx = index
        nodes.append(
            _SimNode(
                index=index,
                beta=float(betas[node.id]),
                received_power=node.transmit_power * link.path_loss_amplitude**2,
                fading=link.fading,
                arrivals_per_slot=node.queue.arrival_rate * scenario.slot_duration,
                delay_threshold=node.queue.delay_threshold,
                buffer_capacity=node.queue.buffer_capacity_normalized,
            )
        )
    return nodes, source_idx


def run(scenario: Scenario, policy=None, cfg: SimConfig = SimConfig(100_000)) -> SimResult:
    """Simulate the scenario and collect the source node's empirical losses.

    ``policy`` (a ``PolicyVector`` or a mapping of node ids to thresholds)
    overrides the scenario's thresholds for the nodes it names; a
    threshold of ``inf`` silences a node entirely, an unknown node id
    raises ``ScenarioError``, and a NaN or negative threshold raises
    ``DomainError``.  Replications use independently derived
    streams and are reduced in replication order, so identical inputs give
    bit-identical results.
    """
    nodes, source_idx = _sim_nodes(scenario, policy)
    counts = tuple(
        _run_replication(scenario, nodes, source_idx, cfg, rep)
        for rep in range(cfg.replication_count)
    )
    observed_slots = cfg.num_slots - cfg.warmup_slots
    horizon = observed_slots * scenario.slot_duration
    return SimResult(
        p_delay=_estimate([c.p_delay() for c in counts]),
        p_overflow=_estimate([c.p_overflow() for c in counts]),
        p_error=_estimate([c.p_error() for c in counts]),
        throughput=_estimate([c.delivered / horizon for c in counts]),
        counts=counts,
    )
