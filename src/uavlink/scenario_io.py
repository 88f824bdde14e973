"""Scenario documents: loading, validation, sampling, and results output.

A scenario is one YAML document (JSON works too, being a YAML subset)
describing the environment, the noise floor, the destination, and the
nodes.  Omitted fields fall back to the defaults baked into the bundled
presets; per-node quantities may be declared ``"sampled"``, in which case
they are drawn reproducibly from the documented ranges using
``placement_seed``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import yaml

from .channel import EnvironmentParams, FadingKind, Position
from .errors import ScenarioError
from .interference import NoiseModel
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
        if self.transmit_power <= 0:
            raise ScenarioError(f"node {self.id!r}: transmit_power must be > 0")
        if self.beta < 0:
            raise ScenarioError(f"node {self.id!r}: beta must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """A full experiment description.

    The slot duration lives in the nodes' queues, which must all agree on it.
    """

    environment: EnvironmentParams = field(default_factory=EnvironmentParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    num_channels: int = 15
    sinr_threshold: float = 8.0
    destination: Position = Position(20.0, 20.0, 50.0)
    nodes: tuple[Node, ...] = ()
    placement_seed: int | None = None

    def __post_init__(self):
        if self.num_channels < 1:
            raise ScenarioError("num_channels: must be >= 1")
        if self.sinr_threshold <= 0:
            raise ScenarioError("sinr_threshold: must be > 0")
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


def _number(doc: Mapping, key: str, default: float, context: str, positive: bool = True) -> float:
    value = doc.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{context}.{key}: expected a number, got {value!r}")
    if positive and value <= 0:
        raise ScenarioError(f"{context}.{key}: must be > 0, got {value}")
    return float(value)


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
        return float(self._generator(context).choice(np.asarray(options)))


def _node_number(
    spec: Mapping,
    key: str,
    default: float,
    context: str,
    sampler: _Sampler,
    sampled_range: tuple[float, float] | None = None,
    sampled_choices: Sequence[float] | None = None,
) -> float:
    value = spec.get(key, default)
    if value == "sampled":
        if sampled_choices is not None:
            return sampler.choice(sampled_choices, f"{context}.{key}")
        if sampled_range is not None:
            return sampler.uniform(*sampled_range, f"{context}.{key}")
        raise ScenarioError(f"{context}.{key}: cannot be sampled")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{context}.{key}: expected a number or 'sampled', got {value!r}")
    if value <= 0:
        raise ScenarioError(f"{context}.{key}: must be > 0, got {value}")
    return float(value)


def _parse_position(value: Any, context: str, sampler: _Sampler, area: tuple[float, float]) -> Position:
    if value == "sampled":
        x = sampler.uniform(0.0, area[0], f"{context}.position")
        y = sampler.uniform(0.0, area[1], f"{context}.position")
        return Position(x, y, 0.0)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{context}.position: expected [x, y, z] or 'sampled', got {value!r}")
    try:
        return Position(float(value[0]), float(value[1]), float(value[2]))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{context}.position: {exc}") from exc


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
    if not isinstance(queue_spec, Mapping):
        raise ScenarioError(f"{context}.queue: expected a mapping")
    _require_keys(
        queue_spec,
        ("arrival_rate", "delay_threshold", "buffer_capacity_normalized"),
        f"{context}.queue",
    )
    try:
        queue = QueueParams(
            arrival_rate=_node_number(
                queue_spec, "arrival_rate", _DEFAULT_QUEUE["arrival_rate"],
                f"{context}.queue", sampler, sampled_choices=ARRIVAL_RATE_CHOICES,
            ),
            slot_duration=slot_duration,
            delay_threshold=_node_number(
                queue_spec, "delay_threshold", _DEFAULT_QUEUE["delay_threshold"],
                f"{context}.queue", sampler, sampled_range=DELAY_THRESHOLD_RANGE,
            ),
            buffer_capacity_normalized=_node_number(
                queue_spec, "buffer_capacity_normalized",
                _DEFAULT_QUEUE["buffer_capacity_normalized"],
                f"{context}.queue", sampler, sampled_choices=BUFFER_CHOICES,
            ),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{context}.queue: {exc}") from exc
    fading = spec.get("fading")
    override = None
    if fading is not None:
        try:
            override = FadingKind(fading)
        except ValueError:
            raise ScenarioError(
                f"{context}.fading: must be 'rayleigh' or 'rician', got {fading!r}"
            ) from None
    beta = spec.get("beta", 0.0)
    if not isinstance(beta, (int, float)) or isinstance(beta, bool) or beta < 0:
        raise ScenarioError(f"{context}.beta: must be a number >= 0, got {beta!r}")
    return Node(
        id=str(node_id),
        role=role,
        position=_parse_position(spec.get("position", list(default_position.__dict__.values())),
                                 context, sampler, area),
        transmit_power=_node_number(
            spec, "transmit_power", 0.5, context, sampler, sampled_range=POWER_RANGE
        ),
        queue=queue,
        beta=float(beta),
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

    env_spec = doc.get("environment", {})
    if not isinstance(env_spec, Mapping):
        raise ScenarioError("environment: expected a mapping")
    env_fields = ("a1", "b1", "k0", "k_pi2", "alpha0", "alpha_pi2", "omega", "d0",
                  "carrier_frequency")
    _require_keys(env_spec, env_fields, "environment")
    defaults = EnvironmentParams()
    try:
        environment = EnvironmentParams(
            **{f: _number(env_spec, f, getattr(defaults, f), "environment") for f in env_fields}
        )
    except Exception as exc:
        raise ScenarioError(f"environment: {exc}") from exc

    noise_spec = doc.get("noise", {})
    if not isinstance(noise_spec, Mapping):
        raise ScenarioError("noise: expected a mapping")
    _require_keys(noise_spec, ("boltzmann", "temperature", "bandwidth"), "noise")
    noise_defaults = NoiseModel()
    noise = NoiseModel(
        boltzmann=_number(noise_spec, "boltzmann", noise_defaults.boltzmann, "noise"),
        temperature=_number(noise_spec, "temperature", noise_defaults.temperature, "noise"),
        bandwidth=_number(noise_spec, "bandwidth", noise_defaults.bandwidth, "noise"),
    )

    num_channels = doc.get("num_channels", 15)
    if not isinstance(num_channels, int) or isinstance(num_channels, bool) or num_channels < 1:
        raise ScenarioError(f"num_channels: must be an integer >= 1, got {num_channels!r}")
    sinr_threshold = _number(doc, "sinr_threshold", 8.0, "document")
    slot_duration = _number(doc, "slot_duration", 0.002, "document")
    uav_altitude = _number(doc, "uav_altitude", 50.0, "document")

    area_spec = doc.get("area", [40.0, 40.0])
    if not isinstance(area_spec, (list, tuple)) or len(area_spec) != 2:
        raise ScenarioError(f"area: expected [width, height], got {area_spec!r}")
    area = (float(area_spec[0]), float(area_spec[1]))
    if area[0] <= 0 or area[1] <= 0:
        raise ScenarioError("area: both extents must be > 0")

    placement_seed = doc.get("placement_seed")
    if placement_seed is not None and (
        not isinstance(placement_seed, int) or isinstance(placement_seed, bool)
    ):
        raise ScenarioError(f"placement_seed: must be an integer, got {placement_seed!r}")
    sampler = _Sampler(placement_seed)

    default_destination = Position(area[0] / 2.0, area[1] / 2.0, uav_altitude)
    dest_spec = doc.get("destination")
    if dest_spec is None:
        destination = default_destination
    else:
        destination = _parse_position(dest_spec, "document", sampler, area)

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
        placement_seed=placement_seed,
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
