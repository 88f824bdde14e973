"""Loss composition, expected throughput, threshold bounds, and the optimizer.

A packet survives if it is not dropped by buffer overflow, not dropped by
the queueing deadline, and then decoded above the SINR threshold; the
three loss probabilities compose multiplicatively.  The feasible range of
the fading threshold follows from queue stability (upper bound) and the
curvature of the loss curve (lower bound), and a Jacobi best-response
iteration lets every node tune its own threshold against the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import channel as ch
from . import interference as itf
from . import queueing as qn
from . import specfun
from .channel import FadingModel, LinkChannel, Rayleigh
from .errors import DomainError, LowerBoundNotFoundError, ScenarioError, StabilityError
from .interference import GammaFit, InterfererLink, NoiseModel, ZeroInterference
from .queueing import QueueParams
from .scenario_io import Scenario

__all__ = [
    "PolicyVector",
    "LossBreakdown",
    "BetaBounds",
    "SourceView",
    "beta_upper",
    "beta_lower",
    "beta_bounds",
    "source_view",
    "loss_derivative",
    "evaluate",
    "evaluate_view",
    "JacobiResult",
    "jacobi_best_response",
]


@dataclass(frozen=True)
class PolicyVector:
    """Per-node fading thresholds, keyed by node id."""

    betas: dict[str, float]

    def __post_init__(self):
        # every threshold a Python float, so an int one takes the float path downstream
        object.__setattr__(self, "betas", {
            i: specfun._nonnegative(f"PolicyVector: beta for node {i!r}", beta)
            for i, beta in self.betas.items()
        })

    def get(self, node_id: str) -> float:
        return self.betas[node_id]


@dataclass(frozen=True)
class LossBreakdown:
    """All loss components and the resulting throughput for one source."""

    p_delay: float
    p_overflow: float
    p_error: float
    p_loss: float
    throughput: float


@dataclass(frozen=True)
class BetaBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise DomainError("BetaBounds: need 0 <= lower <= upper")


@dataclass(frozen=True)
class SourceView:
    """Everything needed to evaluate one node's losses against fixed opponents.

    The view's interference law and stability bound depend on nothing else,
    so each is computed at its first use and kept.
    """

    node_id: str
    link: LinkChannel
    power: float
    queue: QueueParams
    noise: NoiseModel
    sinr_threshold: float
    num_channels: int
    interferers: tuple[InterfererLink, ...]

    @property
    def model(self) -> FadingModel:
        return self.link.fading

    @cached_property
    def fit(self) -> GammaFit | ZeroInterference:
        """The interference law on the observed channel (:func:`interference.fit_interference`)."""
        return itf.fit_interference(self.interferers, self.num_channels)

    @cached_property
    def upper(self) -> float:
        """The largest threshold keeping this node's queue stable (:func:`beta_upper`)."""
        return beta_upper(self.model, self.queue, self.num_channels)


def _check_probability(name: str, p) -> None:
    """Raise ``DomainError`` naming ``name`` unless each element of ``p`` lies in [0, 1].

    ``p`` is a float or an array; NaN lies outside.
    """
    p = np.asarray(p)
    if not np.all((0.0 <= p) & (p <= 1.0)):  # NaN fails both
        raise DomainError(f"{name} must lie in [0, 1], got {p}")


# --------------------------------------------------------------------------
# Threshold bounds
# --------------------------------------------------------------------------


def beta_upper(model: FadingModel, q: QueueParams, num_channels: int) -> float:
    """Largest threshold keeping the queue stable: transmit prob equals load.

    Closed form for Rayleigh; for Rician the (monotone) CDF is inverted on [0, b + 10k]
    by Brent's method to 1e-12, as ``scipy.optimize.brentq`` (:func:`specfun._brentq`).
    """
    load = q.arrival_rate * q.slot_duration  # in (0, 1), as QueueParams requires
    target_cdf = (1.0 - load) ** (1.0 / num_channels)
    if isinstance(model, Rayleigh):
        return math.sqrt(-model.omega * math.log1p(-target_cdf))

    def excess(beta: float) -> float:
        return ch._cdf(model, beta) - target_cdf

    hi = model.b + 10.0
    while excess(hi) < 0.0:
        hi += 10.0
    return specfun._brentq(excess, 0.0, hi)


# --------------------------------------------------------------------------
# Loss derivatives (reduced loss: deadline drop + raw SINR error)
# --------------------------------------------------------------------------


def loss_derivative(
    view: SourceView, beta: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Analytic first and second derivatives of the reduced loss in beta.

    The reduced loss is the deadline-drop probability plus the raw error
    integral, :func:`interference.p_error` times the transmit mass 1 - F(beta):
    the objective whose curvature defines the lower threshold bound.  Buffer
    overflow is omitted because its contribution is negligible over the
    feasible range.  ``beta`` is one threshold (two floats are returned) or
    an array of them (two arrays of its shape), all in (0, ``view.upper``).
    The error part differentiates the integral through its lower limit; the
    interference tail's own derivative enters via the Gamma density chain
    rule.  The deadline part differentiates the exponential waiting tail
    through the transmit probability.
    """
    betas = _feasible(view, beta)
    first, second = _loss_derivatives(view)(betas)
    return (float(first), float(second)) if betas.ndim == 0 else (first, second)


def _feasible(view: SourceView, beta: float | np.ndarray) -> np.ndarray:
    """``beta`` as a float array once every element lies in (0, ``view.upper``)."""
    betas = np.asarray(specfun._nonnegative_grid("loss_derivative: beta", beta))
    if not betas.min(initial=1.0) > 0.0:
        raise DomainError(f"loss_derivative: beta must be > 0, got {beta}")
    upper, worst = view.upper, float(np.max(betas, initial=0.0))
    if worst >= upper:
        raise StabilityError(f"node {view.node_id!r}: beta {worst:.6g} is at or beyond the"
                             f" stability bound {upper:.6g}")
    return betas


def _loss_derivatives(view: SourceView) -> Callable:
    """:func:`loss_derivative` on ``view``'s fading, law, margin rate, noise and queue, read
    once: a function of a float array of thresholds in (0, ``view.upper``), unchecked, giving
    the arrays (first, second) from one ``_cdf`` and one :func:`channel._pdf_and_slope`."""
    model, fit, q, n = view.model, view.fit, view.queue, view.num_channels
    margin_rate = itf._margin_rate(view.link, view.power, view.sinr_threshold)
    noise_power, rate = view.noise.power, q.delay_threshold / q.slot_duration

    def derivatives(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # thresholds in (0, upper) give rates in (0, 1] that keep the queue stable
        cdf = ch._cdf(model, betas)
        p_dly = qn._p_delay(1.0 - cdf**n, q)
        pdf, dpdf = ch._pdf_and_slope(model, betas)
        excess = margin_rate * betas * betas - noise_power
        tail = itf.interference_ccdf(fit, excess)
        # d(tail)/d(beta) through the Gamma density, which is zero where the tail is pinned at 1
        dtail = -itf.interference_pdf(fit, excess) * 2.0 * margin_rate * betas
        d_err_1 = -pdf * tail
        d_err_2 = -dpdf * tail - pdf * dtail
        below = cdf ** (n - 1)
        psi = rate * n * below * pdf
        dpsi = rate * n * ((n - 1) * cdf ** max(n - 2, 0) * pdf * pdf + below * dpdf)
        return d_err_1 + p_dly * psi, d_err_2 + p_dly * (psi * psi + dpsi)

    return derivatives


# The curvature scan of beta_lower: its points over the feasible range, and the
# width of the bracketing cell whose upper end it returns.
LOWER_GRID_SIZE = 512
LOWER_TOL = 1e-6


def beta_lower(view: SourceView) -> float:
    """Smallest beta where the reduced-loss curvature turns positive.

    Checks ``LOWER_GRID_SIZE`` points over the feasible range and scans them
    in one call of the view's :func:`_loss_derivatives`, then rescans the cell
    of the first sign change (at most 32 points a call, unchecked) until it is
    no wider than ``LOWER_TOL``, and returns its upper end.  Returns 0 when the
    curvature is positive from the start; raises :class:`LowerBoundNotFoundError`
    naming the node when it never turns positive.
    """
    upper = view.upper
    grid = np.linspace(upper * 1e-3, upper * (1.0 - 1e-9), LOWER_GRID_SIZE)
    derivatives = _loss_derivatives(view)
    _, curv = derivatives(_feasible(view, grid))
    if curv[0] > 0.0:
        return 0.0
    positive = np.nonzero(curv > 0.0)[0]
    if positive.size == 0:
        raise LowerBoundNotFoundError(f"node {view.node_id!r}: reduced-loss curvature never"
                                      f" turns positive on the feasible range (0, {upper:.6g})")
    lo, hi = grid[positive[0] - 1], grid[positive[0]]
    while hi - lo > LOWER_TOL:
        cell = np.linspace(lo, hi, min(34, math.ceil((hi - lo) / LOWER_TOL) + 1))
        _, curv = derivatives(cell[1:-1])
        first = int(np.argmax(np.append(curv, 1.0) > 0.0)) + 1  # hi when none is positive
        lo, hi = cell[first - 1], cell[first]
    return float(hi)


def beta_bounds(view: SourceView) -> BetaBounds:
    return BetaBounds(lower=beta_lower(view), upper=view.upper)


# --------------------------------------------------------------------------
# Scenario evaluation
# --------------------------------------------------------------------------


def _resolve_policy(
    scenario: Scenario, policy: PolicyVector | Mapping[str, float] | None
) -> PolicyVector:
    """The scenario's thresholds with ``policy``'s applied on top.

    ``policy`` may cover any subset of the nodes; an id that names no node
    raises :class:`ScenarioError`, and :class:`PolicyVector` checks every value.
    """
    betas = {node.id: node.beta for node in scenario.nodes}
    if policy is not None:
        overrides = policy.betas if isinstance(policy, PolicyVector) else policy
        for node_id in overrides:
            if node_id not in betas:
                raise ScenarioError(f"policy: unknown node id {node_id!r}")
        betas.update(overrides)
    return PolicyVector(betas)


def source_view(
    scenario: Scenario,
    policy: PolicyVector | Mapping[str, float] | None = None,
    node_id: str | None = None,
) -> SourceView:
    """Assemble the evaluation context for one node against all the others.

    ``policy`` overrides the scenario's thresholds for the nodes it names.
    """
    policy = _resolve_policy(scenario, policy)
    if node_id is None:
        node_id = scenario.source().id
    me, links = scenario.node(node_id), scenario.links
    interferers = tuple(
        InterfererLink(other.transmit_power, links[other.id].path_loss_amplitude,
                       links[other.id].fading, policy.get(other.id))
        for other in scenario.nodes if other.id != node_id
    )
    return SourceView(
        node_id=node_id,
        link=links[node_id],
        power=me.transmit_power,
        queue=me.queue,
        noise=scenario.noise,
        sinr_threshold=scenario.sinr_threshold,
        num_channels=scenario.num_channels,
        interferers=interferers,
    )


def _laws(scenario: Scenario) -> Callable:
    """``law(ids, betas)``: :func:`interference.fit_interference` of the nodes ``ids``, in
    scenario order, at ``betas``, bit for bit; the terms of each node (its power and link)
    at each threshold are made once per returned function."""
    power, links = {node.id: node.transmit_power for node in scenario.nodes}, scenario.links
    terms = cache(lambda i, beta: itf._link_terms(
        InterfererLink(power[i], links[i].path_loss_amplitude, links[i].fading, beta),
        scenario.num_channels))
    return lambda ids, betas: itf._fitted(*itf._summed(map(terms, ids, betas)))


def _prepare_grid(view: SourceView, betas: Sequence[float] | np.ndarray, *,
                  scan: bool) -> tuple[tuple, Callable]:
    """:func:`evaluate_view` at each of ``betas`` up to the law, which the returned function takes.

    Returns the arrays ``(betas, phi, stable)`` of thresholds, transmit probabilities and
    stable queues, and a function of the law giving the arrays ``p_delay, p_overflow,
    p_error, p_loss, throughput`` at the stable thresholds.
    Only the view's source side is read.  The thresholds were checked where they entered;
    one fading-CDF evaluation feeds the queue terms and the error grid (laid out as points
    or, with ``scan``, as a scan: :func:`interference._error_grid`), which take the stable
    rates, in (0, 1] by construction, unchecked.  With the finite buffer and deadline
    :class:`queueing.QueueParams` requires, those rates bound the queue terms to [0, 1],
    so the loss lies in [0, 1] once the error does: only the error is checked.
    """
    betas = np.asarray(betas, dtype=float)
    cdf = ch._cdf(view.model, betas)
    mu = 1.0 - cdf**view.num_channels
    stable = qn.is_stable(mu, view.queue)
    grid = betas, mu, stable
    if not stable.all():  # keep the stable thresholds only
        betas, mu, cdf = betas[stable], mu[stable], cdf[stable]
    q = view.queue
    p_dly = qn._p_delay(mu, q)
    p_ov = qn._p_overflow(q.arrival_rate * q.slot_duration / mu, q)
    p_err = itf._error_grid(view.link, view.power, view.noise, view.sinr_threshold, betas, cdf,
                            scan=scan)
    # the loss composes left to right: overflow, then deadline drop, then SINR error; the
    # queue terms do not depend on the law, so their product is taken once
    survive = (1.0 - p_ov) * (1.0 - p_dly)

    def price(fit: GammaFit | ZeroInterference) -> tuple[np.ndarray, ...]:
        errors = p_err(fit)
        _check_probability("p_err", errors)  # a quadrature may return NaN
        p_loss = 1.0 - survive * (1.0 - errors)
        return p_dly, p_ov, errors, p_loss, q.arrival_rate * (1.0 - p_loss)

    return grid, price


def _breakdowns(view: SourceView, prepared: tuple[tuple, Callable], fit) -> list:
    """The breakdowns of a grid prepared on ``view``'s source side, priced against ``fit``."""
    grid, price = prepared
    rows = zip(*(a.tolist() for a in price(fit)))
    return [
        LossBreakdown(*next(rows)) if ok else _instability(view, beta, phi)
        for beta, phi, ok in zip(*(a.tolist() for a in grid))
    ]


def _instability(view: SourceView, beta: float, phi: float) -> StabilityError:
    """The error, naming the node, of ``beta`` whose transmit probability ``phi`` is unstable."""
    return StabilityError(f"node {view.node_id!r}: beta {beta:.6g} exceeds the stability bound"
                          f" ({qn._unstable(phi, view.queue)})")


def evaluate_view(view: SourceView, beta: float) -> LossBreakdown:
    """Loss breakdown of one node at threshold ``beta`` under fixed opponents: a grid of one
    prepared as points (:func:`_prepare_grid`), priced as a sweep prices each threshold."""
    beta = specfun._nonnegative(f"node {view.node_id!r}: beta", beta)
    (result,) = _breakdowns(view, _prepare_grid(view, [beta], scan=False), view.fit)
    if isinstance(result, StabilityError):
        raise result
    return result


def evaluate(
    scenario: Scenario, policy: PolicyVector | Mapping[str, float] | None = None
) -> LossBreakdown:
    """Evaluate the loss breakdown of the scenario's source.

    ``policy`` overrides the scenario's thresholds for the nodes it names.  Any other
    node's breakdown is ``evaluate_view(source_view(scenario, policy, node_id), beta)``.
    """
    policy = _resolve_policy(scenario, policy)
    view = source_view(scenario, policy)
    return evaluate_view(view, policy.get(view.node_id))


# --------------------------------------------------------------------------
# Jacobi best response
# --------------------------------------------------------------------------


@dataclass
class JacobiResult:
    """The best-response trace, one entry per iteration, never empty, and the cycle
    the last iterate closed, if any: its period and the ids of the nodes that move in it."""

    trace: list[dict]
    converged: bool
    cycle: tuple[int, tuple[str, ...]] | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def policy(self) -> PolicyVector:
        """The last iterate."""
        return PolicyVector(self.trace[-1]["betas"])


def jacobi_best_response(
    scenario: Scenario,
    grid_size: int = 64,
    tol: float = 1e-3,
    max_iters: int = 50,
    objective: str = "own",
) -> JacobiResult:
    """Simultaneous best-response iteration on every node's own threshold.

    The first iterate is the scenario's thresholds.  Each iteration, every
    node grid-searches ``grid_size`` thresholds from 0 to its stability
    bound for its own throughput (or the network sum with
    ``objective='sum'``), holding the others at the previous iterate; ties
    break toward the smaller threshold.  A node's own
    throughput is one price of its grid, prepared once per call as a scan
    (:func:`_prepare_grid`) and holding its first threshold too when that
    lies off the grid, so every iteration prices one layout, against the
    interference law of the others' thresholds, summed from terms built once
    per interferer and threshold, with -inf for an unstable queue.  Under
    ``'sum'`` each trial adds, in scenario order, every other node's grid of
    one at its previous threshold facing the trial.  Each distinct price is
    made once per call.  Stops when no threshold moves by more than ``tol``
    (finite and > 0), or when an iterate repeats an earlier one (the first
    iterate counts as iterate -1), naming the cycle.  Best-response dynamics
    need not converge, so a cycle or ``max_iters`` (at least 1) returns the
    last iterate with ``converged=False`` rather than raising.
    """
    if objective not in ("own", "sum"):
        raise DomainError(f"objective must be 'own' or 'sum', got {objective!r}")
    specfun._count("grid_size", grid_size, 2, np.iinfo(np.intp).max // 8)  # numpy's array limit
    specfun._count("max_iters", max_iters, 1)
    specfun._positive("tol", tol)  # no change is ever below a NaN or non-positive one
    policy = _resolve_policy(scenario, None)  # the scenario's thresholds, each a float
    node_ids = [node.id for node in scenario.nodes]
    views = {node_id: source_view(scenario, policy, node_id) for node_id in node_ids}
    grids = {i: tuple(np.linspace(0.0, v.upper, grid_size).tolist()) for i, v in views.items()}
    prepared = cache(lambda node_id, betas: _prepare_grid(views[node_id], betas, scan=True))
    law = _laws(scenario)
    others = {node_id: [i for i in node_ids if i != node_id] for node_id in node_ids}

    @cache  # equal inputs give equal floats, so a repeated price is looked up
    def priced(node_id: str, betas: tuple[float, ...], faced: tuple[float, ...]) -> tuple:
        """The node's throughput at each of ``betas`` facing the others' thresholds
        ``faced`` in scenario order; -inf where unstable."""
        (_, _, stable), price = prepared(node_id, betas)
        throughputs = np.full(len(betas), -math.inf)
        throughputs[stable] = price(law(others[node_id], faced))[-1]
        return tuple(throughputs.tolist())

    betas = policy.betas
    scored = {i: grid if betas[i] in grid else (*grid, betas[i]) for i, grid in grids.items()}
    seen = {tuple(betas.values()): -1}
    trace: list[dict] = []
    converged, cycle = False, None
    for iteration in range(max_iters):
        new_betas, chosen_rate, previous_rate = {}, {}, {}
        for node_id in node_ids:
            grid, previous = grids[node_id], betas[node_id]
            values = priced(node_id, scored[node_id], tuple(map(betas.get, others[node_id])))
            scores = values[:grid_size]
            if objective == "sum":  # each trial adds the others' rates facing it, in scenario order
                scores = [
                    sum(values[k] if i == node_id else priced(i, (betas[i],), tuple(
                        beta if j == node_id else betas[j] for j in others[i]))[0]
                        for i in node_ids)
                    for k, beta in enumerate(grid)
                ]
            best_idx = int(np.argmax(scores))  # first max = smallest beta
            new_betas[node_id] = grid[best_idx]
            chosen_rate[node_id] = values[best_idx]
            previous_rate[node_id] = values[scored[node_id].index(previous)]
        delta = max(abs(new_betas[i] - betas[i]) for i in node_ids)
        betas = new_betas
        trace.append({"iteration": iteration, "betas": new_betas, "throughput": chosen_rate,
                      "previous_throughput": previous_rate, "max_change": delta})
        if delta < tol:
            converged = True
            break
        start = seen.setdefault(tuple(betas.values()), iteration)
        if start < iteration:  # iterates start + 1 to iteration repeat forever
            loop = [entry["betas"] for entry in trace[start + 1:]]
            cycle = iteration - start, tuple(i for i in node_ids if len({b[i] for b in loop}) > 1)
            break
    return JacobiResult(trace=trace, converged=converged, cycle=cycle)
