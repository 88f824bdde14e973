"""Built-in sweep presets and the one sweep runner behind them and ``uavlink sweep``.

Each preset pins a reproducible scenario (sampled quantities resolved by a
documented placement seed) and emits plot-ready rows:

``fig2``  throughput vs the interferers' threshold, one curve per source
          threshold, ten all-Rician nodes.
``fig3``  throughput vs interferer count; the first two interferers are
          Rician, the rest Rayleigh.
``fig4``  error probability vs interferer count for several SINR
          thresholds, all nodes Rician.
``fig5``  queue-drop probability vs slot duration, one curve per source
          threshold; no interferers enter this metric.

A preset is data: the source's power and arrival rate, its interferers,
and a product of sweep axes.  The runner walks the product with the first
axis outermost and evaluates the source at every point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Sequence

import numpy as np

from . import specfun
from . import throughput as tp
from .errors import DomainError, ScenarioError, StabilityError, UavLinkError
from .scenario_io import Scenario, scenario_from_mapping
from .throughput import LossBreakdown

__all__ = ["SweepSpec", "run_sweep", "PRESETS", "run_preset", "preset_scenario"]

DEFAULT_PRESET_SEED = 7

# Interferer thresholds reported as the throughput-maximizing operating
# points of the two fading families in the preset geometry.
RICIAN_BETA = 5.1
RAYLEIGH_BETA = 1.55

SWEEP_VARIABLES = ("beta_n", "beta_m", "interferer_count", "gamma_th", "t_slt")

BREAKDOWN_COLUMNS = tuple(f.name for f in fields(LossBreakdown))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis: a variable, its values in order, and its output column.

    ``values`` may instead be a function of the source's stability bound
    ``beta_upper``; the runner resolves it to a tuple before sweeping.
    ``column`` names the axis in the output (default: the variable).
    """

    variable: str
    values: tuple | Callable[[float], Sequence[float]]
    column: str | None = None

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise DomainError(
                f"SweepSpec.variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if callable(self.values):
            return
        if len(self.values) == 0:
            raise DomainError("SweepSpec.values must be non-empty")
        name = f"SweepSpec: {self.variable}"
        for value in self.values:
            if self.variable in ("beta_n", "beta_m"):  # a threshold: >= 0, where inf silences
                specfun._nonnegative(name, value)
            elif self.variable != "interferer_count":  # gamma_th and t_slt
                specfun._positive(name, value)
            # a count, but whole floats too, since `uavlink sweep --values` parses floats; an
            # integer beyond the float range reads as inf, which is not whole
            elif not ((count := specfun._real(name, value)) >= 0 and count.is_integer()):
                raise DomainError(f"{name} takes whole numbers >= 0, got {value!r}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise DomainError("SweepSpec.values must be strictly increasing")


def _with_interferer_prefix(scenario: Scenario, count: int) -> Scenario:
    interferers = scenario.interferers()
    if count > len(interferers):
        raise DomainError(
            f"interferer_count {count} exceeds the {len(interferers)} interferers available"
        )
    kept = (scenario.source(), *interferers[:count])
    return replace(scenario, nodes=kept)


def _with_slot_duration(scenario: Scenario, slot: float) -> Scenario:
    """The scenario with every node's queue on slot duration ``slot``."""
    nodes = []
    for node in scenario.nodes:
        try:
            queue = replace(node.queue, slot_duration=slot)
        except DomainError as exc:
            raise ScenarioError(f"node {node.id!r}: {exc}") from exc
        nodes.append(replace(node, queue=queue))
    return replace(scenario, nodes=tuple(nodes))


def _apply_point(scenario: Scenario, variable: str, value: Any) -> Scenario:
    """The scenario with ``variable`` set to ``value``.

    ``beta_m`` sets the threshold of every interferer present, and a later
    ``interferer_count`` keeps it on the interferers it keeps.  The source's own
    threshold ``beta_n`` is not applied here: it varies within a group of points.
    """
    if variable == "beta_m":
        nodes = [n if n.role == "source" else replace(n, beta=float(value)) for n in scenario.nodes]
        return replace(scenario, nodes=tuple(nodes))
    if variable == "gamma_th":
        return replace(scenario, sinr_threshold=float(value))
    if variable == "t_slt":
        return _with_slot_duration(scenario, float(value))
    return _with_interferer_prefix(scenario, int(value))


def _output(breakdown: LossBreakdown, column: str) -> float:
    if column == "queue_drop":
        # lost to the queue: the buffer overflows, or an admitted packet misses its deadline
        return breakdown.p_overflow + (1.0 - breakdown.p_overflow) * breakdown.p_delay
    return getattr(breakdown, column)


def _stability_bound(scenario: Scenario, axes: Sequence[SweepSpec]) -> float:
    """The source's ``beta_upper`` at the largest slot duration the sweep reaches.

    That bound is the tightest one, so every point of the sweep stays feasible.
    It depends on the source's own link and queue alone.
    """
    slot = max(
        (v for axis in axes if axis.variable == "t_slt" for v in axis.values),
        default=scenario.slot_duration,
    )
    source = _with_slot_duration(scenario, float(slot)).source()
    return tp.beta_upper(scenario.links[source.id].fading, source.queue, scenario.num_channels)


def _sweep(
    scenario: Scenario,
    axes: Sequence[SweepSpec],
    outputs: Sequence[str],
) -> tuple[list[str], list[dict]]:
    """Evaluate the source over the product of ``axes``, first axis outermost.

    Points that differ only in ``beta_n`` form a group, and every group takes
    the ``beta_n`` values (checked by their axis, :class:`SweepSpec`), else the
    source's own threshold.  A group is the scenario its other axes write
    (:func:`_apply_point`).  Groups whose scenarios give the source the same
    queue and SINR threshold share a source state: the one view of the source
    alone with that queue and threshold, and its thresholds prepared as points
    (:func:`throughput._prepare_grid`), which each group prices against the law
    of its interferers at their own thresholds (:func:`throughput._laws`).  A
    group whose pricing fails is priced point by point on its full view, so
    each error comes up at its own point.
    """
    if any(callable(axis.values) for axis in axes):
        upper = _stability_bound(scenario, axes)
        axes = [
            replace(axis, values=tuple(float(v) for v in axis.values(upper)))
            if callable(axis.values)
            else axis
            for axis in axes
        ]
    columns = [axis.column or axis.variable for axis in axes] + list(outputs)
    own = [axis.values for axis in axes if axis.variable == "beta_n"] or [[scenario.source().beta]]
    thresholds = [float(b[-1]) for b in itertools.product(*own)]  # the last beta_n axis sets it
    alone = replace(tp.source_view(scenario), interferers=())
    law = tp._laws(scenario)
    states, groups, rows = {}, {}, []  # each source state's view and grid; each group's rows
    for point in itertools.product(*(axis.values for axis in axes)):
        group = tuple((a.variable, v) for a, v in zip(axes, point) if a.variable != "beta_n")
        if group not in groups:
            group_scenario = scenario
            for variable, value in group:
                group_scenario = _apply_point(group_scenario, variable, value)
            state = group_scenario.source().queue, group_scenario.sinr_threshold
            interferers = group_scenario.interferers()
            try:
                if state not in states:
                    view = replace(alone, queue=state[0], sinr_threshold=state[1])
                    states[state] = view, tp._prepare_grid(view, thresholds, scan=False)
                fit = law([n.id for n in interferers], [n.beta for n in interferers])
                groups[group] = iter(tp._breakdowns(*states[state], fit))
            except UavLinkError:  # each point alone, so an error comes up at its own point
                view = tp.source_view(group_scenario)
                groups[group] = map(functools.partial(tp.evaluate_view, view), thresholds)
        breakdown = next(groups[group])
        if isinstance(breakdown, StabilityError):
            raise breakdown
        row = dict(zip(columns, point))
        row.update((column, _output(breakdown, column)) for column in outputs)
        rows.append(row)
    return columns, rows


def run_sweep(scenario: Scenario, spec: SweepSpec) -> tuple[list[str], list[dict]]:
    """Evaluate the source's breakdown at every sweep point, in given order."""
    return _sweep(scenario, (spec,), BREAKDOWN_COLUMNS)


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A pinned scenario and the sweep that runs on it.

    The source sits near the area corner: its moderate elevation keeps the
    feasible threshold range wide enough to show the interior optimum.
    Interferers take their position, power and queue from the placement seed.
    """

    description: str
    source_power: float
    arrival_rate: float
    interferers: tuple[tuple[str, float], ...]  # (fading, beta) per interferer
    axes: tuple[SweepSpec, ...]  # a product, first axis outermost
    outputs: tuple[str, ...]  # columns after the axes'

    def scenario(self, seed: int) -> Scenario:
        source = {
            "id": "src",
            "role": "source",
            "position": [1.0, 1.0, 0.0],
            "transmit_power": self.source_power,
            "fading": "rician",
            "beta": RICIAN_BETA,
            "queue": {
                "arrival_rate": self.arrival_rate,
                "delay_threshold": 0.045,
                "buffer_capacity_normalized": 100.0,
            },
        }
        interferers = [
            {
                "id": f"i{k}",
                "role": "interferer",
                "position": "sampled",
                "transmit_power": "sampled",
                "fading": fading,
                "beta": beta,
                "queue": dict.fromkeys(
                    ("arrival_rate", "delay_threshold", "buffer_capacity_normalized"), "sampled"
                ),
            }
            for k, (fading, beta) in enumerate(self.interferers)
        ]
        return scenario_from_mapping({"placement_seed": seed, "nodes": [source, *interferers]})


_RICIAN = ("rician", RICIAN_BETA)
_RAYLEIGH = ("rayleigh", RAYLEIGH_BETA)

PRESETS: dict[str, Preset] = {
    "fig2": Preset(
        "throughput vs interferer threshold, curves over source threshold (10 Rician nodes)",
        source_power=0.75,
        arrival_rate=120.0,
        interferers=(_RICIAN,) * 9,
        axes=(
            SweepSpec("beta_n", lambda upper: np.linspace(0.3, 0.995 * upper, 28)),
            SweepSpec("beta_m", (2.5, 3.5, 4.5, 5.1, 5.7, 6.3, 7.0)),
        ),
        outputs=("throughput",),
    ),
    "fig3": Preset(
        "throughput vs interferer count (first two interferers Rician, rest Rayleigh)",
        source_power=0.5,
        arrival_rate=80.0,
        interferers=(_RICIAN,) * 2 + (_RAYLEIGH,) * 6,
        axes=(SweepSpec("interferer_count", tuple(range(9)), "num_interferers"),),
        outputs=("throughput",),
    ),
    "fig4": Preset(
        "error probability vs interferer count for SINR thresholds 2/4/8 (all Rician)",
        source_power=0.5,
        arrival_rate=80.0,
        interferers=(_RICIAN,) * 8,
        axes=(
            SweepSpec("gamma_th", (2.0, 4.0, 8.0)),
            SweepSpec("interferer_count", tuple(range(1, 9)), "num_interferers"),
        ),
        outputs=("p_error",),
    ),
    "fig5": Preset(
        "queue-drop probability vs slot duration, curves over source threshold",
        source_power=0.5,
        arrival_rate=80.0,
        interferers=(),
        axes=(
            SweepSpec("t_slt", tuple(np.linspace(0.5e-3, 4.0e-3, 8).tolist())),
            SweepSpec("beta_n", lambda upper: [f * upper for f in (0.70, 0.85, 0.95, 0.999)]),
        ),
        outputs=("queue_drop",),
    ),
}


def _preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]


def preset_scenario(name: str, seed: int | None = None) -> Scenario:
    return _preset(name).scenario(DEFAULT_PRESET_SEED if seed is None else seed)


def run_preset(name: str, seed: int | None = None) -> tuple[list[str], list[dict]]:
    preset = _preset(name)
    return _sweep(preset_scenario(name, seed), preset.axes, preset.outputs)
