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
import os
from collections import deque
from concurrent import futures  # its ThreadPoolExecutor module loads at first use
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import specfun
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
_SPLIT = 1 << 13  # the part length of a block that overflows
_SLICE = 1 << 16  # the most floats of fading drawn at once


@dataclass(frozen=True)
class SimConfig:
    """Horizon, seeding, warmup, and replication count of one simulation."""

    num_slots: int
    seed: int = 0
    warmup_slots: int = 0
    replication_count: int = 1

    def __post_init__(self):
        specfun._count("SimConfig.seed", self.seed, -math.inf, math.inf)  # any integer seeds
        specfun._count("SimConfig.warmup_slots", self.warmup_slots, 0)
        specfun._count("SimConfig.num_slots", self.num_slots, self.warmup_slots + 1)
        specfun._count("SimConfig.replication_count", self.replication_count, 1)


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


def _draw_best(rng: np.random.Generator, model: ch.FadingModel, nb: int, f: int):
    """Each of ``nb`` slots' best channel among ``f`` and its fading amplitude.

    Rayleigh amplitudes are sqrt(omega E) of unit exponentials E and Rician
    ones |b + Z| of standard complex normals Z, computed by ``np.hypot``.
    A slot's channel is the argmax of its draws themselves, E or
    ``np.abs(b + Z)``, the first of equal draws, and only that channel's
    amplitude is computed.  Where two draws differ but their amplitudes
    round equal, the larger draw wins; ``np.abs`` may order two Rician
    channels a few ulp apart unlike ``np.hypot``.  The draws come in slices
    of whole slots, of at most ``_SLICE`` floats or else one slot; numpy
    fills an array element by element, so they read the stream as one call.
    """
    rayleigh = isinstance(model, ch.Rayleigh)
    rows = max(1, _SLICE // (f if rayleigh else 2 * f))
    channel, value = np.empty(nb, dtype=np.min_scalar_type(f - 1)), np.empty(nb)
    for s in range(0, nb, rows):
        n = min(rows, nb - s)
        if rayleigh:
            draws = rng.standard_exponential((n, f))
            best = draws.argmax(axis=1)
            value[s : s + n] = np.sqrt(model.omega * draws[np.arange(n), best])
        else:
            normals = rng.standard_normal((n, f, 2))
            normals[..., 0] += model.b
            best = np.abs(normals.view(complex)[..., 0]).argmax(axis=1)
            value[s : s + n] = np.hypot(*normals[np.arange(n), best].T)
        channel[s : s + n] = best
    return channel, value


class _Queue:
    """One node's FIFO buffer, advanced one block of slots at a time.

    A slot does deadline expiry, then at most one transmission, then the
    slot's arrivals in offset order.  Expiry is eager: a packet is dropped
    in the first slot in which its deadline has passed, so after a block the
    queue holds what a slot-by-slot loop holds after the block's last slot,
    and a block can be walked in parts.  Tallies count events in slots at
    or after ``warmup``.
    """

    def __init__(self, node: _SimNode, warmup: int):
        self.packets: deque = deque()
        self.stored = 0.0
        self.node = node
        self.warmup = warmup
        self.arrivals = self.overflow_drops = self.delay_drops = self.queued_at_warmup = 0

    def walk(self, start, t_slt, can_tx, slot_of, times, lengths) -> np.ndarray:
        """Advance through one block; return the block slots it transmitted in.

        ``can_tx`` marks the block slots whose best channel clears the
        threshold.  Packet ``j`` arrives in block slot ``slot_of[j]`` at
        time ``times[j]`` with length ``lengths[j]``, in admission order.

        Packets are served first come, first served at the transmit slots,
        with the deadline as a deterministic patience (Barrer, 1957).  Let
        a_j be the first transmit slot number after packet j's arrival (0 for
        a carried-in packet, which comes first) and b_j the number of
        transmit slots before it expires.  With p the first one still free,
        packet j leaves at max(p, a_j) if that is below b_j and expires
        otherwise, so over the packets with a_j < b_j, p - j runs through a
        chain of clamps (:func:`_clamp_chain`): Lindley's (1952) recursion
        when none binds.  ``stored`` is replayed over each slot's expiries,
        departure and arrivals, the float sequence of a slot-by-slot loop.
        The block is solved again without the arrivals that overflow until
        these repeat; each round settles at least the first arrival decided
        wrongly.  A block longer than ``_SPLIT`` slots that overflows is
        walked in parts of that length.
        """
        nb = can_tx.size
        held = len(self.packets)
        tx_slots = np.flatnonzero(can_tx)
        counts = np.zeros(nb + 1, dtype=np.int32)  # transmit slots before each slot
        np.cumsum(can_tx, out=counts[1:])  # in int32, far cheaper here than in int64
        first, t, size = counts[slot_of + 1], times, lengths
        if held:
            carried = np.array(self.packets).T
            t = np.concatenate((carried[0], times))
            size = np.concatenate((carried[1], lengths))
            first = np.concatenate((np.zeros(held, dtype=first.dtype), first))
        deadline = self.node.delay_threshold
        slot = np.ceil((t + deadline) / t_slt)  # the first slot past the deadline, to rounding
        slot += slot * t_slt - t <= deadline  # made exact with the slot loop's own test
        slot -= (slot - 1) * t_slt - t > deadline
        expiry = np.maximum(slot.astype(np.intp) - start, 0)  # one past it expires at once
        chances = counts[np.minimum(expiry, nb)]
        chances[expiry >= nb] = tx_slots.size + t.size  # never expires: never runs out
        overflowed = np.zeros(t.size, dtype=bool)
        while True:
            hopeful = np.flatnonzero(~overflowed & (first < chances))
            rank = np.arange(hopeful.size)
            lo = first[hopeful] - rank
            hi = chances[hopeful] - rank - 1
            free = _clamp_chain(lo, hi)  # p - j as each hopeful packet comes up
            stays = free <= hi
            kept = hopeful[stays]
            leave = (rank + np.maximum(free, lo))[stays]
            gone = int(np.searchsorted(leave, tx_slots.size))
            sent = tx_slots[leave[:gone]]
            expired = ~overflowed
            expired[kept] = False
            expired = np.flatnonzero(expired)
            keys = np.concatenate((3 * expiry[expired], 3 * sent + 1, 3 * slot_of + 2))
            order = np.argsort(keys, kind="stable")
            admitted = np.where(overflowed[held:], 0.0, lengths)
            steps = np.concatenate((-size[expired], -size[kept[:gone]], admitted))
            level = np.add.accumulate(np.concatenate(([self.stored], steps[order])))
            arriving = np.flatnonzero(order >= expired.size + gone)
            rejected = level[arriving] + lengths > self.node.buffer_capacity
            if (rejected == overflowed[held:]).all():
                break
            overflowed[held:] = rejected
            if nb > _SPLIT:
                cuts = np.searchsorted(slot_of, [*range(0, nb, _SPLIT), nb]).tolist()
                return np.concatenate([
                    s + self.walk(start + s, t_slt, can_tx[s : s + _SPLIT],
                                  slot_of[a:b] - s, times[a:b], lengths[a:b])
                    for s, a, b in zip(range(0, nb, _SPLIT), cuts, cuts[1:])
                ])
        self.stored = float(level[-1])
        self.packets = deque(zip(t[kept[gone:]].tolist(), size[kept[gone:]].tolist()))
        w = self.warmup - start  # the block's first measured slot
        self.arrivals += slot_of.size - int(np.searchsorted(slot_of, w))
        self.overflow_drops += int(np.count_nonzero(overflowed[held:] & (slot_of >= w)))
        self.delay_drops += int(np.count_nonzero(expiry[expired] >= w))
        if 0 < w <= nb:  # the packets held after slot w - 1
            came = held + np.count_nonzero(~overflowed[held:] & (slot_of < w))
            left = np.count_nonzero(expiry[expired] < w) + np.searchsorted(sent, w)
            self.queued_at_warmup = int(came - left)
        return sent


def _clamp_chain(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x_0, ..., x_{n-1} of x_0 = 0, x_{j+1} = min(max(x_j, lo_j), hi_j), where lo <= hi.

    Without a binding ``hi`` this is a running maximum.  Otherwise, as a
    chain of clamps composes into one clamp, the chain up to every j is
    found by doubling in log2(n) steps (Hillis and Steele, 1986).
    """
    x = np.maximum.accumulate(np.concatenate(([0], lo)))[:-1]
    if np.all(x <= hi):
        return x
    lo, hi = lo.copy(), hi.copy()  # become the bounds of the chain's clamp up to each j
    step = 1
    while step < lo.size:  # clamp the chain before each j, of `step` links, by j's own
        lo[step:], hi[step:] = [np.clip(b[:-step], lo[step:], hi[step:]) for b in (lo, hi)]
        step *= 2
    return np.concatenate(([0], np.clip(0, lo[:-1], hi[:-1])))


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


def _advance(node: _SimNode, rng, queue: _Queue, start: int, nb: int, f: int,
             t_slt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One node's block of ``nb`` slots from slot ``start``.

    Returns each slot's best channel and its amplitude, and the block slots
    the node transmitted in.  It touches only the node's own ``rng`` and
    ``queue``, so nodes can advance at once on separate threads.
    """
    channel, value = _draw_best(rng, node.fading, nb, f)
    cnt = rng.poisson(node.arrivals_per_slot, nb)
    total = int(cnt.sum())
    offsets = rng.random(total)
    lengths = rng.exponential(1.0, total)
    slot_of = np.repeat(np.arange(nb), cnt)
    order = _arrival_order(slot_of, offsets, lengths)  # FIFO follows arrival times
    times = ((slot_of + start) + offsets[order]) * t_slt
    return channel, value, queue.walk(start, t_slt, value >= node.beta, slot_of, times,
                                      lengths[order])


def _run_replication(
    scenario: Scenario,
    nodes: list[_SimNode],
    source_idx: int,
    cfg: SimConfig,
    replication: int,
    pool: futures.Executor,
) -> ReplicationCounts:
    """One replication; a block's nodes advance as tasks on ``pool`` and are
    gathered in node order."""
    f = scenario.num_channels
    t_slt = scenario.slot_duration
    gamma_th = scenario.sinr_threshold
    noise_power = scenario.noise.power
    rngs = [
        np.random.default_rng(derive_seed(cfg.seed, replication, node.index))
        for node in nodes
    ]
    queues = [_Queue(node, cfg.warmup_slots) for node in nodes]
    delivered = transmissions = 0

    done = 0
    while done < cfg.num_slots:
        nb = min(_BLOCK, cfg.num_slots - done)

        def advance(node, rng, queue, start=done, nb=nb):
            return _advance(node, rng, queue, start, nb, f, t_slt)

        best_ch, best_val, sent = zip(*pool.map(advance, nodes, rngs, queues))
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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        link = scenario.links[node.id]
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

    Within a block of slots the nodes advance in parallel, one task per
    node on a thread pool with a worker per usable CPU (at most one per
    node), which lives only while the call runs.  A node's draws and queue
    touch nothing of another node's, and the SINR step takes their results
    in node order, so the results are bit-identical for any CPU count.
    A node draws a block's fading in slices of at most ``_SLICE`` floats,
    or of one slot's 2 x ``num_channels`` (Rician) where that is more; a
    channel count too large for a numpy array raises ``DomainError``
    before any thread starts.
    """
    nodes, source_idx = _sim_nodes(scenario, policy)
    f = scenario.num_channels
    if 2 * f * np.dtype(float).itemsize > np.iinfo(np.intp).max:  # numpy's array limit
        raise DomainError(f"num_channels = {f:.6g} is too many to draw for one slot")
    with futures.ThreadPoolExecutor(min(_usable_cpus(), len(nodes))) as pool:
        counts = tuple(
            _run_replication(scenario, nodes, source_idx, cfg, rep, pool)
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
