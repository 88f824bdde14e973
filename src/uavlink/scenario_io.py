"""Scenario documents: loading, validation, sampling, and results output.

A scenario is one YAML document (JSON works too, being a YAML subset)
describing the environment, the noise floor, the destination, and the
nodes.  Omitted fields fall back to the defaults baked into the bundled
presets; per-node quantities may be declared ``"sampled"``, in which case
they are drawn reproducibly from the documented ranges using
``placement_seed``.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np
import yaml

from . import channel, specfun
from .channel import EnvironmentParams, FadingKind, Position
from .errors import DomainError, ScenarioError
from .interference import _POWER_MAX, NoiseModel
from .queueing import QueueParams

__all__ = [
    "SCHEMA_VERSION",
    "Node",
    "Scenario",
    "load_scenario",
    "load_scenario_file",
    "scenario_from_mapping",
    "write_results",
]

SCHEMA_VERSION = 1

# Sampling ranges for fields declared "sampled" in a document.
ARRIVAL_RATE_CHOICES = (60.0, 80.0, 100.0, 120.0)
BUFFER_CHOICES = (50.0, 75.0, 100.0, 125.0, 150.0)
DELAY_THRESHOLD_RANGE = (0.030, 0.060)
POWER_RANGE = (0.5, 1.0)

_DEFAULT_QUEUE = {"arrival_rate": 80.0, "delay_threshold": 0.045, "buffer_capacity_normalized": 100.0}


@contextlib.contextmanager
def _reported(where: str):
    """Report a :class:`DomainError` raised in the block as a :class:`ScenarioError`
    at ``where``."""
    try:
        yield
    except DomainError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Node:
    """One transmitter: its geometry, power, queue, policy, and role."""

    id: str
    role: str
    position: Position
    transmit_power: float
    queue: QueueParams
    beta: float = 0.0
    fading_override: FadingKind | None = None

    def __post_init__(self):
        if self.role not in ("source", "interferer"):
            raise ScenarioError(f"node {self.id!r}: role must be 'source' or 'interferer'")
        with _reported(f"node {self.id!r}"):
            if not specfun._positive("transmit_power", self.transmit_power) <= _POWER_MAX:
                raise DomainError(f"transmit_power must be <= {_POWER_MAX:g},"
                                  f" got {self.transmit_power}")
            specfun._nonnegative("beta", self.beta)  # inf silences the node


@dataclass(frozen=True)
class Scenario:
    """A full experiment description.

    The slot duration lives in the nodes' queues, which must all agree on it.
    ``links`` is derived: each node's channel to the destination, built once
    per object at its first read and kept.  It is no field, so equality, the
    hash and the repr ignore it, and a ``dataclasses.replace`` builds its own.
    """

    environment: EnvironmentParams = field(default_factory=EnvironmentParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    num_channels: int = 15
    sinr_threshold: float = 8.0
    destination: Position = Position(20.0, 20.0, 50.0)
    nodes: tuple[Node, ...] = ()

    def __post_init__(self):
        with _reported("Scenario"):
            specfun._count("num_channels", self.num_channels, 1)
            specfun._positive("sinr_threshold", self.sinr_threshold)
        sources = [n for n in self.nodes if n.role == "source"]
        if len(sources) != 1:
            raise ScenarioError(
                f"nodes: exactly one node must have role 'source' (got {len(sources)})"
            )
        slot = sources[0].queue.slot_duration
        seen: set[str] = set()
        for node in self.nodes:
            if node.id in seen:
                raise ScenarioError(f"nodes: duplicate node id {node.id!r}")
            seen.add(node.id)
            d = math.dist(
                (node.position.x, node.position.y, node.position.z),
                (self.destination.x, self.destination.y, self.destination.z),
            )
            if d < self.environment.d0:
                raise ScenarioError(
                    f"node {node.id!r}: distance {d:.3g} m to the destination is below "
                    f"the reference distance d0 = {self.environment.d0:.3g} m"
                )
            if node.queue.slot_duration != slot:
                raise ScenarioError(
                    f"node {node.id!r}: queue slot_duration {node.queue.slot_duration} "
                    f"differs from the source's {slot}"
                )

    @cached_property
    def links(self) -> dict[str, channel.LinkChannel]:
        """Each node's :class:`channel.LinkChannel` to the destination, by id; a link that
        cannot be built is a :class:`ScenarioError` naming its node."""
        links = {}
        for n in self.nodes:
            with _reported(f"node {n.id!r}"):
                links[n.id] = channel.build_link(n.position, self.destination, self.environment,
                                                 n.fading_override)
        return links

    @property
    def slot_duration(self) -> float:
        """Slot length shared by every node's queue [s]."""
        return self.source().queue.slot_duration

    def source(self) -> Node:
        return next(n for n in self.nodes if n.role == "source")

    def interferers(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.role != "source")

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise ScenarioError(f"unknown node id {node_id!r}")


def _require_keys(mapping: Mapping, allowed: Iterable[str], context: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(f"{context}: unknown field(s) {sorted(unknown)}")


def _number(
    spec: Mapping,
    key: str,
    default: Any,
    context: str,
    sample: Callable[[str], float] | None = None,
    integer: bool = False,
) -> Any:
    """The number at ``spec[key]``, or ``default`` when the key is absent.

    ``"sampled"`` is drawn by ``sample`` where the key allows it.  Only the
    YAML type is checked here: the value's range is checked by the type that
    holds it.
    """
    value = spec.get(key, default)
    where = f"{context}.{key}"
    if sample is not None and value == "sampled":
        return sample(where)
    if not isinstance(value, int if integer else (int, float)) or isinstance(value, bool):
        kind = "an integer" if integer else "a number or 'sampled'" if sample else "a number"
        raise ScenarioError(f"{where}: expected {kind}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{where}: the integer lies beyond the float range") from None


def _params(doc: Mapping, key: str, cls: type):
    """The parameter dataclass ``cls`` read from the mapping at ``doc[key]``."""
    spec = doc.get(key, {})
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{key}: expected a mapping")
    names = [f.name for f in fields(cls)]
    _require_keys(spec, names, key)
    with _reported(key):
        return cls(**{name: _number(spec, name, getattr(cls, name), key) for name in names})


class _Sampler:
    """Consumes the placement RNG in document order, or rejects 'sampled'."""

    def __init__(self, seed: int | None):
        self._rng = np.random.default_rng(seed) if seed is not None else None

    def _generator(self, context: str) -> np.random.Generator:
        if self._rng is None:
            raise ScenarioError(
                f"{context}: declared 'sampled' but the document has no placement_seed"
            )
        return self._rng

    def uniform(self, lo: float, hi: float, context: str) -> float:
        return float(self._generator(context).uniform(lo, hi))

    def choice(self, options: Sequence[float], context: str) -> float:
        return float(options[int(self._generator(context).integers(0, len(options)))])


def _parse_position(
    value: Any, where: str, sampler: _Sampler, area: tuple[float, float]
) -> Position:
    if value == "sampled":
        x = sampler.uniform(0.0, area[0], where)
        y = sampler.uniform(0.0, area[1], where)
        return Position(x, y, 0.0)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{where}: expected [x, y, z] or 'sampled', got {value!r}")
    coords = dict(zip("xyz", value))
    with _reported(where):
        return Position(*(_number(coords, k, None, where) for k in "xyz"))


def _parse_node(
    spec: Mapping,
    index: int,
    slot_duration: float,
    area: tuple[float, float],
    sampler: _Sampler,
    default_position: Position,
) -> Node:
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"nodes[{index}]: expected a mapping, got {spec!r}")
    node_id = spec.get("id", f"node{index}")
    context = f"nodes[{index}] ({node_id})"
    _require_keys(
        spec,
        ("id", "role", "position", "transmit_power", "beta", "fading", "queue"),
        context,
    )
    role = spec.get("role", "interferer")
    queue_spec = spec.get("queue", {})
    queue_context = f"{context}.queue"
    if not isinstance(queue_spec, Mapping):
        raise ScenarioError(f"{queue_context}: expected a mapping")
    _require_keys(queue_spec, _DEFAULT_QUEUE, queue_context)
    draws = {
        "arrival_rate": partial(sampler.choice, ARRIVAL_RATE_CHOICES),
        "delay_threshold": partial(sampler.uniform, *DELAY_THRESHOLD_RANGE),
        "buffer_capacity_normalized": partial(sampler.choice, BUFFER_CHOICES),
    }
    with _reported(queue_context):  # in _DEFAULT_QUEUE's order, which fixes the order of the draws
        queue = QueueParams(
            slot_duration=slot_duration,
            **{
                key: _number(queue_spec, key, default, queue_context, draws[key])
                for key, default in _DEFAULT_QUEUE.items()
            },
        )
    fading = spec.get("fading")
    override = None
    if fading is not None:
        try:
            override = FadingKind(fading)
        except ValueError:
            raise ScenarioError(
                f"{context}.fading: must be 'rayleigh' or 'rician', got {fading!r}"
            ) from None
    return Node(  # the position is drawn after the queue and before the power
        id=str(node_id),
        role=role,
        position=_parse_position(spec.get("position", list(default_position.__dict__.values())),
                                 f"{context}.position", sampler, area),
        transmit_power=_number(
            spec, "transmit_power", 0.5, context, partial(sampler.uniform, *POWER_RANGE)
        ),
        queue=queue,
        beta=_number(spec, "beta", Node.beta, context),
        fading_override=override,
    )


def scenario_from_mapping(doc: Mapping) -> Scenario:
    """Validate a parsed document and assemble the scenario."""
    if not isinstance(doc, Mapping):
        raise ScenarioError(f"document: expected a mapping, got {type(doc).__name__}")
    _require_keys(
        doc,
        (
            "schema_version", "environment", "noise", "num_channels", "sinr_threshold",
            "slot_duration", "area", "uav_altitude", "destination", "placement_seed",
            "nodes",
        ),
        "document",
    )
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: unsupported version {version!r}")

    environment = _params(doc, "environment", EnvironmentParams)
    noise = _params(doc, "noise", NoiseModel)
    num_channels = _number(doc, "num_channels", Scenario.num_channels, "document", integer=True)
    sinr_threshold = _number(doc, "sinr_threshold", Scenario.sinr_threshold, "document")
    slot_duration = _number(doc, "slot_duration", 0.002, "document")
    area_spec = doc.get("area", [40.0, 40.0])
    if not isinstance(area_spec, (list, tuple)) or len(area_spec) != 2:
        raise ScenarioError(f"area: expected [width, height], got {area_spec!r}")
    extents = dict(zip(("width", "height"), area_spec))
    placement_seed = doc.get("placement_seed")
    with _reported("document"):  # the keys no type holds
        uav_altitude = specfun._positive(
            "uav_altitude", _number(doc, "uav_altitude", 50.0, "document"))
        area = tuple(specfun._positive(f"area.{k}", _number(extents, k, None, "area"))
                     for k in extents)
        if placement_seed is not None:
            specfun._count("placement_seed", placement_seed, 0, math.inf)
    sampler = _Sampler(placement_seed)

    default_destination = Position(area[0] / 2.0, area[1] / 2.0, uav_altitude)
    dest_spec = doc.get("destination")
    if dest_spec is None:
        destination = default_destination
    else:
        destination = _parse_position(dest_spec, "destination", sampler, area)

    ground_center = Position(area[0] / 2.0, area[1] / 2.0, 0.0)
    node_specs = doc.get("nodes", [{"id": "src", "role": "source"}])
    if not isinstance(node_specs, list):
        raise ScenarioError("nodes: expected a list")
    nodes = tuple(
        _parse_node(spec, i, slot_duration, area, sampler, ground_center)
        for i, spec in enumerate(node_specs)
    )
    return Scenario(
        environment=environment,
        noise=noise,
        num_channels=num_channels,
        sinr_threshold=sinr_threshold,
        destination=destination,
        nodes=nodes,
    )


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document given as YAML/JSON text."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"document: not parseable ({exc})") from exc
    if doc is None:
        doc = {}
    return scenario_from_mapping(doc)


def load_scenario_file(path: str | Path) -> Scenario:
    return load_scenario(Path(path).read_text(encoding="utf-8"))


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_results(
    rows: Sequence[Mapping[str, Any]],
    destination: str | Path | io.TextIOBase,
    columns: Sequence[str] | None = None,
) -> None:
    """Write rows as comma-separated text: header row, 12 significant digits, LF.

    Row order is preserved exactly as given (sweeps emit sweep-major order).
    """
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8", newline="\n")
    else:
        destination.write(text)
