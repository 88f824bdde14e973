"""Test-side oracles: the buffer-occupancy Markov chain behind the queue
formulas, the per-point SINR error integral with the tolerances it runs
at and the bound a kernel keeps of it, the checked fading density, the
error integrand in scipy's ufuncs, the Rician truncated moment summed
one order at a time, the scaled Bessel I0, the reduced loss of the
lower threshold bound, its derivatives and curvature scan with every
call checked and derived afresh, the inverse error function with the
Gaussian-tail surrogate of the Rician stability bound, that bound by
scipy's ``brentq``, the slot-by-slot simulator loop and its per-block
visit loop, a reader for results files, a scenario's own policy, the
best-response loop that rebuilds and re-evaluates every node's view each
iteration, and the sweep runner that evaluates each point on its own.

These reproduce ``queueing.p_overflow``, the geometric service law,
``throughput.beta_upper``'s root, ``throughput.loss_derivative`` and
``beta_lower``, ``interference.p_error``, the quadrature's float
integrand, the paired moment series of
``channel._rician_truncated_moment``,
``simulator.run``, ``simulator._Queue.walk``,
``throughput.jacobi_best_response`` and ``presets._sweep`` the hard way,
so the package's closed forms, prepared derivatives, grid kernel, float
kernels, paired moments, per-node queue schedule, prepared best-response
grids and grouped sweeps can be checked against them.
They live with the tests because the package itself never calls them.
"""

from __future__ import annotations

import io
import itertools
import math
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np
import scipy.optimize
import scipy.special as sp
import scipy.stats

from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import presets as ps
from uavlink import queueing as qn
from uavlink import simulator as sim
from uavlink import specfun
from uavlink.errors import DegeneratePolicyError, DomainError, StabilityError
from uavlink.queueing import QueueParams
from uavlink.specfun import DEFAULT_QUAD, QuadratureSpec
from uavlink import throughput as tp
from uavlink.throughput import PolicyVector


def slots_to_transmit_pmf(phi: float, k: int) -> float:
    """Geometric probability that the first successful slot is slot ``k``."""
    if phi == 0.0:
        raise DegeneratePolicyError("transmit probability is 0: node never transmits")
    if k < 1:
        raise DomainError(f"slot count must be >= 1, got {k}")
    return (1.0 - phi) ** (k - 1) * phi


def overflow_transition_prob(i: int, q: QueueParams) -> float:
    """Probability an arrival overflows the buffer when ``i`` packets are stored.

    With i.i.d. unit-mean exponential lengths, the stored total given that
    ``i`` packets fit is a conditioned Erlang, and the overflow chance is the
    Poisson point mass at ``i`` over the Poisson tail from ``i``.
    """
    if i < 0:
        raise DomainError(f"state index must be >= 0, got {i}")
    bn = q.buffer_capacity_normalized
    tail = scipy.stats.poisson.sf(i - 1, bn)  # P[N >= i]
    if tail <= 0.0:
        return 1.0
    return float(scipy.stats.poisson.pmf(i, bn) / tail)


def state_distribution(mu: float, q: QueueParams, max_states: int = 100_000) -> np.ndarray:
    """Stationary distribution of the buffer occupancy Markov chain.

    Truncated at the first state where the geometric tail bound drops
    below 1e-12, capped at ``max_states``.
    """
    rho = qn.offered_load(mu, q)
    if rho >= 1.0:
        raise StabilityError(
            f"unstable queue: offered load {rho:.6g} >= 1", margin=rho - 1.0
        )
    bn = q.buffer_capacity_normalized
    slack = 1.0 - rho
    p0 = slack / (slack - rho * math.expm1(-bn * slack))
    probs = [p0]
    rho_pow = 1.0
    for i in range(1, max_states):
        rho_pow *= rho
        if p0 * rho_pow / slack < 1e-12:
            break
        tail = float(scipy.stats.poisson.sf(i - 1, bn))  # P[N >= i]
        probs.append(p0 * rho_pow * tail)
    return np.asarray(probs)


# The per-point oracle at default tolerances can itself be off by ~1e-10 where
# the transmit mass is small; run it tighter so that it stands for the truth.
ORACLE_QUAD = QuadratureSpec(
    absolute_tolerance=1e-14, relative_tolerance=1e-12, max_subdivisions=500
)


def recording(calls, function):
    """``function``, appending the positional arguments of each call to ``calls``."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    return wrapper


def agrees_with_oracle(value, oracle) -> bool:
    """Whether a kernel value lies within the bound it keeps of an ``ORACLE_QUAD`` oracle."""
    return abs(value - oracle) <= 1e-10 + 1e-8 * abs(oracle)


def p_error_pointwise(
    main,
    main_power: float,
    main_beta: float,
    links,
    noise,
    gamma_th: float,
    num_channels: int,
    conditional: bool = True,
    quad=DEFAULT_QUAD,
    fit=None,
) -> float:
    """SINR error probability at one threshold, with its own adaptive quadrature.

    The per-point form of ``interference.p_error``: the fading density
    integrated from ``max(main_beta, x0)`` to infinity against the
    interference tail (:func:`ufunc_error_integrand`, one float node at a
    time), plus the certain loss below the noise floor ``x0``.
    """
    if main_power <= 0:
        raise DomainError(f"main_power must be > 0, got {main_power}")
    if gamma_th <= 0:
        raise DomainError(f"gamma_th must be > 0, got {gamma_th}")
    if main_beta < 0:
        raise DomainError(f"main_beta must be >= 0, got {main_beta}")
    if math.isinf(main_beta):
        return 0.0
    if fit is None:
        fit = itf.fit_interference(links, num_channels)
    model = main.fading
    margin_rate = main_power * main.path_loss_amplitude**2 / gamma_th
    noise_power = noise.power
    x0 = math.sqrt(noise_power / margin_rate)

    lo = max(main_beta, x0)
    certain_loss = max(0.0, ch.fading_cdf(model, lo) - ch.fading_cdf(model, main_beta))
    if isinstance(fit, itf.ZeroInterference):
        raw = certain_loss
    else:
        integrand = ufunc_error_integrand(model, fit, margin_rate, noise_power)
        raw = certain_loss + specfun.integrate(integrand, lo, math.inf, quad).value
    if not conditional:
        return min(1.0, max(0.0, raw))
    transmit_mass = 1.0 - ch.fading_cdf(model, main_beta)
    if transmit_mass <= 1e-300:
        return 0.0
    return min(1.0, max(0.0, raw / transmit_mass))


def fading_pdf(model: ch.FadingModel, x: float) -> float:
    """Density of the fading amplitude at x >= 0: ``channel._pdf`` at a checked float."""
    x = float(x)
    if x < 0:
        raise DomainError(f"fading_pdf: x must be >= 0, got {x}")
    return float(ch._pdf(model, x))


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x): the overflow-free form used inside fading densities."""
    x = float(x)
    if not 0.0 <= x < math.inf:  # also rejects NaN
        raise DomainError(f"bessel_i0_scaled argument must be finite and >= 0, got {x}")
    return float(sp.i0e(x))


def reduced_loss(view, beta: float) -> float:
    """Deadline drop plus ``p_error`` times the transmit mass 1 - F(beta), from ``evaluate_view``:
    the loss ``throughput.loss_derivative`` differentiates for the lower threshold bound."""
    breakdown = tp.evaluate_view(view, beta)
    return breakdown.p_delay + breakdown.p_error * (1.0 - ch.fading_cdf(view.model, beta))


def loss_derivative_layered(view, beta):
    """A frozen copy of ``throughput.loss_derivative`` as it stood before the prepared kernel.

    Each call checks its thresholds, derives the view's margin rate, noise power and
    queue rate, and takes the fading density and its slope apart (two exponentials, and
    for Rician two ``i0e``) and ``cdf ** (n - 1)`` twice.
    """
    betas = np.asarray(specfun._nonnegative_grid("loss_derivative: beta", beta))
    if not betas.min(initial=1.0) > 0.0:
        raise DomainError(f"loss_derivative: beta must be > 0, got {beta}")
    upper, worst = view.upper, float(np.max(betas, initial=0.0))
    if worst >= upper:
        raise StabilityError(
            f"beta {worst:.6g} is at or beyond the stability bound {upper:.6g}",
            margin=worst - upper,
            node=view.node_id,
        )
    n = view.num_channels
    cdf = ch._cdf(view.model, betas)
    p_dly = qn._p_delay(1.0 - cdf**n, view.queue)
    pdf = ch._pdf(view.model, betas)
    dpdf = _fading_pdf_slope(view.model, betas)

    margin_rate = itf._margin_rate(view.link, view.power, view.sinr_threshold)
    excess = margin_rate * betas * betas - view.noise.power
    tail = itf.interference_ccdf(view.fit, excess)
    dtail = -itf.interference_pdf(view.fit, excess) * 2.0 * margin_rate * betas

    d_err_1 = -pdf * tail
    d_err_2 = -dpdf * tail - pdf * dtail

    rate = view.queue.delay_threshold / view.queue.slot_duration
    psi = rate * n * cdf ** (n - 1) * pdf
    dpsi = rate * n * ((n - 1) * cdf ** max(n - 2, 0) * pdf * pdf + cdf ** (n - 1) * dpdf)
    first = d_err_1 + p_dly * psi
    second = d_err_2 + p_dly * (psi * psi + dpsi)
    if betas.ndim == 0:
        return float(first), float(second)
    return first, second


def _fading_pdf_slope(model: ch.FadingModel, x: np.ndarray) -> np.ndarray:
    """Derivative of ``channel._pdf`` in x, with its own exponential and ``i0e``."""
    if isinstance(model, ch.Rayleigh):
        om = model.omega
        return (2.0 / om) * np.exp(-x * x / om) * (1.0 - 2.0 * x * x / om)
    diff = x - model.b
    xb = x * model.b
    return np.exp(-0.5 * diff * diff) * ((1.0 - x * x) * sp.i0e(xb) + xb * sp.i1e(xb))


def beta_lower_layered(view) -> float:
    """``throughput.beta_lower``'s scan with every array, the grid and each rescanned
    cell, priced by a checked :func:`loss_derivative_layered` call."""
    upper = view.upper
    grid = np.linspace(upper * 1e-3, upper * (1.0 - 1e-9), tp.LOWER_GRID_SIZE)
    _, curv = loss_derivative_layered(view, grid)
    if curv[0] > 0.0:
        return 0.0
    positive = np.nonzero(curv > 0.0)[0]
    lo, hi = grid[positive[0] - 1], grid[positive[0]]
    while hi - lo > tp.LOWER_TOL:
        cell = np.linspace(lo, hi, min(34, math.ceil((hi - lo) / tp.LOWER_TOL) + 1))
        _, curv = loss_derivative_layered(view, cell[1:-1])
        first = int(np.argmax(np.append(curv, 1.0) > 0.0)) + 1
        lo, hi = cell[first - 1], cell[first]
    return float(hi)


def erfinv(y: float) -> float:
    """Inverse error function on (-1, 1)."""
    y = float(y)
    if not -1.0 < y < 1.0:  # also rejects NaN
        raise DomainError(f"erfinv argument must lie in (-1, 1), got {y}")
    return float(sp.erfinv(y))


def beta_upper_erf(model: ch.Rician, q: QueueParams, num_channels: int) -> float:
    """Gaussian-tail surrogate of the Rician upper bound (intended for b > 3).

    At high LoS strength the Rician amplitude is close to a unit-variance
    Gaussian centred on its mean sqrt(b^2 + 1) (Gudbjartsson & Patz, 1995),
    so the bound is sqrt(b^2 + 1) - sqrt(2) * erfinv(1 - 2 (1 - load)^(1/N)).
    """
    if not isinstance(model, ch.Rician):
        raise DomainError("beta_upper_erf applies to Rician fading only")
    load = q.arrival_rate * q.slot_duration  # in (0, 1), as QueueParams requires
    return math.hypot(model.b, 1.0) - math.sqrt(2.0) * erfinv(
        1.0 - 2.0 * (1.0 - load) ** (1.0 / num_channels)
    )


def brentq_bound(model: ch.Rician, q: QueueParams, num_channels: int) -> float:
    """The Rician stability bound by ``scipy.optimize.brentq``, on the bracket and at the
    tolerances of ``throughput.beta_upper``, whose Brent port returns the same float."""
    target = (1.0 - q.arrival_rate * q.slot_duration) ** (1.0 / num_channels)

    def excess(beta: float) -> float:
        return ch._cdf(model, beta) - target

    hi = model.b + 10.0
    while excess(hi) < 0.0:
        hi += 10.0
    return scipy.optimize.brentq(excess, 0.0, hi, xtol=1e-12, rtol=8.9e-16)


def ufunc_error_integrand(model, fit, margin_rate: float, noise_power: float):
    """The error quadrature's integrand at one float x, in scipy's ufuncs.

    A frozen copy of ``channel._pdf(model, x) * gamma_tail(k)(z)`` as the
    package evaluated it at a float node before its float kernels: the
    density in ``math.exp`` and ``sp.i0e``, the Gamma tail in
    ``sp.gammaincc`` with the recurrence band (0.1, 2) below shape 1, and
    the affordable power clamped by the mask ``excess * (excess > 0)``.
    ``interference._tail_integrand`` must equal it bit for bit.
    """
    k, scale = fit.shape, fit.scale
    log_norm = math.lgamma(k + 1.0)

    def tail_of(x: float):
        if k < 1.0 and 0.1 < x < 2.0:
            return sp.gammaincc(k + 1.0, x) - math.exp(k * math.log(x) - x - log_norm)
        return sp.gammaincc(k, x)

    def pdf(x: float):
        if isinstance(model, ch.Rayleigh):
            return (2.0 * x / model.omega) * math.exp(-x * x / model.omega)
        diff = x - model.b
        return x * math.exp(-0.5 * diff * diff) * sp.i0e(x * model.b)

    def integrand(x: float) -> float:
        excess = margin_rate * x * x - noise_power
        return float(pdf(x) * tail_of(excess * (excess > 0.0) / scale))

    return integrand


def _draw_fading_slot_loop(
    rng: np.random.Generator, model: ch.FadingModel, nb: int, f: int
) -> np.ndarray:
    if isinstance(model, ch.Rayleigh):
        return np.sqrt(model.omega * rng.exponential(size=(nb, f)))
    g = rng.standard_normal(size=(nb, f, 2))
    return np.hypot(model.b + g[..., 0], g[..., 1])


def _slot_loop_replication(
    scenario,
    nodes,
    source_idx: int,
    cfg,
    replication: int,
) -> sim.ReplicationCounts:
    n_nodes = len(nodes)
    f = scenario.num_channels
    t_slt = scenario.slot_duration
    gamma_th = scenario.sinr_threshold
    noise_power = scenario.noise.power
    rngs = [
        np.random.default_rng(sim.derive_seed(cfg.seed, replication, node.index))
        for node in nodes
    ]

    queues: list[deque] = [deque() for _ in range(n_nodes)]
    stored: list[float] = [0.0] * n_nodes

    arrivals = overflow_drops = delay_drops = error_drops = 0
    delivered = transmissions = 0
    queued_at_warmup = 0

    done = 0
    while done < cfg.num_slots:
        nb = min(sim._BLOCK, cfg.num_slots - done)
        best_val = []
        best_ch = []
        can_tx = []
        counts = []
        offsets = []
        lengths = []
        for node, rng in zip(nodes, rngs):
            fades = _draw_fading_slot_loop(rng, node.fading, nb, f)
            best = fades.max(axis=1)
            best_val.append(best)
            best_ch.append(fades.argmax(axis=1))
            can_tx.append(best >= node.beta)
            cnt = rng.poisson(node.arrivals_per_slot, nb)
            counts.append(cnt)
            total = int(cnt.sum())
            offsets.append(rng.random(total))
            lengths.append(rng.exponential(1.0, total))
        ptr = [0] * n_nodes

        for t in range(nb):
            slot = done + t
            now = slot * t_slt
            measured = slot >= cfg.warmup_slots
            if slot == cfg.warmup_slots:
                queued_at_warmup = len(queues[source_idx])

            tx_channel = [-1] * n_nodes
            tx_value = [0.0] * n_nodes
            for i in range(n_nodes):
                q = queues[i]
                node = nodes[i]
                while q and now - q[0][0] > node.delay_threshold:
                    _, length = q.popleft()
                    stored[i] -= length
                    if i == source_idx and measured:
                        delay_drops += 1
                if q and can_tx[i][t]:
                    tx_channel[i] = best_ch[i][t]
                    tx_value[i] = best_val[i][t]
                    _, length = q.popleft()
                    stored[i] -= length

            if tx_channel[source_idx] >= 0:
                my_ch = tx_channel[source_idx]
                interference = 0.0
                for i in range(n_nodes):
                    if i != source_idx and tx_channel[i] >= 0 and tx_channel[i] == my_ch:
                        interference += nodes[i].received_power * tx_value[i] ** 2
                signal = nodes[source_idx].received_power * tx_value[source_idx] ** 2
                ok = signal >= gamma_th * (noise_power + interference)
                if measured:
                    transmissions += 1
                    if ok:
                        delivered += 1
                    else:
                        error_drops += 1

            for i in range(n_nodes):
                node = nodes[i]
                count = int(counts[i][t])
                if count == 0:
                    continue
                batch = sorted(
                    zip(offsets[i][ptr[i] : ptr[i] + count], lengths[i][ptr[i] : ptr[i] + count])
                )  # FIFO admission follows the within-slot arrival times
                ptr[i] += count
                for offset, length in batch:
                    if i == source_idx and measured:
                        arrivals += 1
                    if stored[i] + length <= node.buffer_capacity:
                        queues[i].append(((slot + offset) * t_slt, length))
                        stored[i] += length
                    elif i == source_idx and measured:
                        overflow_drops += 1
        done += nb

    return sim.ReplicationCounts(
        arrivals=arrivals,
        overflow_drops=overflow_drops,
        delay_drops=delay_drops,
        error_drops=error_drops,
        delivered=delivered,
        transmissions=transmissions,
        queued_at_warmup=queued_at_warmup,
        queued_at_end=len(queues[source_idx]),
    )


def visit_block(queue, start, t_slt, can_tx, slot_of, times, lengths, bookkeeping) -> np.ndarray:
    """``simulator._Queue.walk`` on ``queue`` by visiting the slots where it can change.

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

    q = queue.packets
    stored = queue.stored
    deadline = queue.node.delay_threshold
    capacity = queue.node.buffer_capacity
    warmup = queue.warmup
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
            queue.queued_at_warmup = len(q)
    queue.stored = stored
    queue.arrivals += arrivals
    queue.overflow_drops += overflow_drops
    queue.delay_drops += delay_drops
    return np.array(sent, dtype=np.intp)


def slot_loop_counts(scenario, policy=None, cfg=None) -> tuple:
    """``simulator.run(...).counts`` from the slot-by-slot loop.

    Every slot visits every node: deadline expiry, then one transmission,
    then the SINR test of the source, then arrivals in offset order.  The
    per-node streams are drawn exactly as ``simulator.run`` draws them.
    """
    cfg = cfg or sim.SimConfig(100_000)
    nodes, source_idx = sim._sim_nodes(scenario, policy)
    return tuple(
        _slot_loop_replication(scenario, nodes, source_idx, cfg, rep)
        for rep in range(cfg.replication_count)
    )


def read_results(source: str | Path | io.TextIOBase) -> list[dict[str, Any]]:
    """Parse a results file back into rows, mapping numeric cells to floats."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    lines = [line for line in text.split("\n") if line != ""]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells: list[Any] = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(dict(zip(header, cells)))
    return rows


def scenario_policy(scenario) -> PolicyVector:
    """Every node's threshold as the scenario sets it."""
    return PolicyVector({node.id: node.beta for node in scenario.nodes})


def jacobi_rebuilding(scenario, initial=None, grid_size=64, tol=1e-3, max_iters=50,
                      objective="own") -> tp.JacobiResult:
    """``jacobi_best_response`` with every view rebuilt and every grid evaluated afresh.

    Each iteration calls ``source_view`` for every node and scores its grid,
    its initial threshold and its previous threshold as one scan (the
    previous is the initial or a grid point, so every iteration lays out the
    same thresholds) through the public checked chain:
    the fading CDF, the queue's closed forms, ``p_error`` on the array of
    stable thresholds, the loss composed left to right and
    ``expected_throughput``.  Under the sum, each trial adds to the node's
    own scanned rate every other node's ``evaluate_view`` facing the trial,
    in scenario order.  The loop stops at the first iterate that repeats an
    earlier one, the initial policy included, found by a linear search.  The
    package's loop must give the same trace and cycle, bit for bit.
    """
    policy = tp._resolve_policy(scenario, initial)
    initial_betas = policy.betas
    node_ids = [node.id for node in scenario.nodes]
    grids = {
        node_id: np.linspace(
            0.0, tp.source_view(scenario, policy, node_id).upper, grid_size
        ).tolist()
        for node_id in node_ids
    }

    def own_rates(view, betas):
        betas = np.array(betas)
        mu = 1.0 - ch.fading_cdf(view.model, betas) ** view.num_channels
        stable = qn.is_stable(mu, view.queue)
        mu = mu[stable]
        p_err = itf.p_error(view.link, view.power, betas[stable], view.noise,
                            view.sinr_threshold, fit=view.fit)
        p_ov, p_dly = qn.p_overflow(mu, view.queue), qn.p_delay(mu, view.queue)
        p_loss = 1.0 - (1.0 - p_ov) * (1.0 - p_dly) * (1.0 - p_err)
        rates = iter(tp.expected_throughput(view.queue.arrival_rate, p_loss).tolist())
        return [next(rates) if ok else -math.inf for ok in stable.tolist()]

    def rate(trial, node_id):
        """``node_id``'s throughput under the policy ``trial``; -inf if unstable."""
        try:
            return tp.evaluate_view(tp.source_view(scenario, trial, node_id),
                                    trial.get(node_id)).throughput
        except StabilityError:
            return -math.inf

    trace = []
    converged, cycle = False, None
    for iteration in range(max_iters):
        new_betas, chosen_rate, previous_rate = {}, {}, {}
        for node_id in node_ids:
            view = tp.source_view(scenario, policy, node_id)
            grid = grids[node_id]
            previous = policy.get(node_id)
            rates = own_rates(view, [*grid, initial_betas[node_id], previous])
            values = rates[:grid_size]
            if objective == "sum":
                values = []
                for k, beta in enumerate(grid):
                    trial = PolicyVector({**policy.betas, node_id: beta})
                    values.append(sum(rates[k] if i == node_id else rate(trial, i)
                                      for i in node_ids))
            best_idx = int(np.argmax(values))
            chosen_rate[node_id], previous_rate[node_id] = rates[best_idx], rates[-1]
            new_betas[node_id] = grid[best_idx]
        delta = max(abs(new_betas[i] - policy.get(i)) for i in node_ids)
        policy = PolicyVector(new_betas)
        trace.append({
            "iteration": iteration,
            "betas": dict(new_betas),
            "throughput": dict(chosen_rate),
            "previous_throughput": dict(previous_rate),
            "max_change": delta,
        })
        if delta < tol:
            converged = True
            break
        iterates = [initial_betas] + [entry["betas"] for entry in trace]
        start = next(k for k, betas in enumerate(iterates) if betas == new_betas) - 1
        if start < iteration:
            period = iteration - start
            moving = tuple(i for i in node_ids
                           if any(iterates[-1][i] != betas[i] for betas in iterates[-period:]))
            cycle = period, moving
            break
    return tp.JacobiResult(trace=trace, converged=converged, cycle=cycle)


def sweep_pointwise(scenario, axes, outputs) -> tuple[list[str], list[dict]]:
    """``presets._sweep`` evaluating each point on its own.

    The loop the grouped runner replaced: each group's scenario (its axes
    applied) and view are built at its first point, and every point checks
    its own ``beta_n`` and calls ``evaluate_view``.  The grouped runner must
    give the same rows, bit for bit, and raise the same error first.
    """
    if any(callable(axis.values) for axis in axes):
        upper = ps._stability_bound(scenario, axes)
        axes = [
            replace(axis, values=tuple(float(v) for v in axis.values(upper)))
            if callable(axis.values)
            else axis
            for axis in axes
        ]
    columns = [axis.column or axis.variable for axis in axes] + list(outputs)
    source = scenario.source().id
    groups = {}
    rows = []
    for point in itertools.product(*(axis.values for axis in axes)):
        group = tuple((a.variable, v) for a, v in zip(axes, point) if a.variable != "beta_n")
        own = {source: float(v) for a, v in zip(axes, point) if a.variable == "beta_n"}
        if group in groups:
            PolicyVector(own)
        else:
            group_scenario = scenario
            for variable, value in group:
                group_scenario = ps._apply_point(group_scenario, variable, value)
            policy = tp._resolve_policy(group_scenario, own)
            groups[group] = tp.source_view(group_scenario, policy), policy.get(source)
        view, beta = groups[group]
        breakdown = tp.evaluate_view(view, own.get(source, beta))
        row = dict(zip(columns, point))
        row.update((column, ps._output(breakdown, column)) for column in outputs)
        rows.append(row)
    return columns, rows


def rician_moment_per_order(b: float, beta: float, power: int) -> float:
    """E[X^power; X >= beta] for Rician(b), power in {2, 4}, by its own Poisson series.

    The one-order-per-call series that ``channel._rician_truncated_moment``
    summed before it paired the two orders; the paired pass must give the
    same floats, bit for bit.
    """
    m, lam, t = power // 2, 0.5 * b * b, 0.5 * beta * beta
    j = np.arange(math.ceil(lam + math.sqrt(lam * lam + 2.0 * lam * (m + t))) + 53.0)
    weights = np.exp(sp.xlogy(j, lam) - lam - sp.gammaln(j + 1.0))
    rising = (j + 1.0) * (j + 2.0) if m == 2 else j + 1.0
    return float(2**m * np.sum(weights * rising * sp.gammaincc(j + 1.0 + m, t)))
