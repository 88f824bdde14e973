"""Scenario document loading, validation, sampling, and results files."""

import io
import math
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_results

from uavlink import scenario_io
from uavlink.channel import EnvironmentParams, FadingKind, Position, build_link
from uavlink.errors import ScenarioError
from uavlink.interference import NoiseModel
from uavlink.queueing import QueueParams
from uavlink.scenario_io import (
    Node,
    Scenario,
    load_scenario,
    load_scenario_file,
    scenario_from_mapping,
    write_results,
)

EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"

# every numeric key of a document, as its path from the document root
NUMERIC_KEYS = [
    *(("environment", f.name) for f in fields(EnvironmentParams)),
    *(("noise", f.name) for f in fields(NoiseModel)),
    ("num_channels",),
    ("sinr_threshold",),
    ("slot_duration",),
    ("area",),
    ("uav_altitude",),
    ("destination",),
    ("placement_seed",),
    ("nodes", "position"),
    ("nodes", "transmit_power"),
    ("nodes", "beta"),
    ("nodes", "queue", "arrival_rate"),
    ("nodes", "queue", "delay_threshold"),
    ("nodes", "queue", "buffer_capacity_normalized"),
]
DOCUMENT_KEYS = sorted({name for path in NUMERIC_KEYS for name in path} | {"id", "role"})


def _floats(value):
    """Every float held by a scenario, its nested parameter types included."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _floats(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


class TestDefaults:
    def test_empty_document_gets_full_defaults(self):
        scenario = load_scenario("{}")
        assert scenario.num_channels == 15
        assert scenario.sinr_threshold == 8.0
        assert scenario.slot_duration == 0.002
        assert scenario.destination == Position(20.0, 20.0, 50.0)
        assert scenario.environment.omega == 2.0
        assert scenario.environment.d0 == 20.0
        assert scenario.environment.carrier_frequency == 900e6
        assert scenario.noise.temperature == 290.0
        assert len(scenario.nodes) == 1
        assert scenario.source().role == "source"

    def test_an_empty_document_is_the_empty_mapping(self):
        # YAML reads an empty document as None: the one-source default
        scenario = load_scenario("")
        assert scenario == load_scenario("{}")
        assert [(n.id, n.role) for n in scenario.nodes] == [("src", "source")]

    def test_unknown_node_id(self):
        with pytest.raises(ScenarioError, match="^unknown node id 'nope'$"):
            load_scenario("{}").node("nope")

    def test_node_defaults(self):
        scenario = load_scenario("nodes:\n  - {id: s, role: source}\n")
        node = scenario.source()
        assert node.transmit_power == 0.5
        assert node.beta == 0.0
        assert node.queue.arrival_rate == 80.0
        assert node.queue.delay_threshold == 0.045
        assert node.queue.buffer_capacity_normalized == 100.0
        assert node.queue.slot_duration == scenario.slot_duration

    def test_fading_override_parse(self):
        scenario = load_scenario(
            "nodes:\n  - {id: s, role: source, fading: rayleigh}\n"
        )
        assert scenario.source().fading_override is FadingKind.RAYLEIGH

    def test_infinite_threshold_parses(self):
        scenario = load_scenario(
            "nodes:\n"
            "  - {id: s, role: source}\n"
            "  - {id: quiet, role: interferer, beta: .inf}\n"
        )
        assert scenario.node("quiet").beta == math.inf


class TestSampling:
    DOC = """
placement_seed: 12
nodes:
  - id: s
    role: source
    position: sampled
    transmit_power: sampled
    queue:
      arrival_rate: sampled
      delay_threshold: sampled
      buffer_capacity_normalized: sampled
  - id: i0
    role: interferer
    position: sampled
    transmit_power: sampled
"""

    def test_sampled_fields_resolve_in_documented_ranges(self):
        scenario = load_scenario(self.DOC)
        node = scenario.source()
        assert 0.0 <= node.position.x <= 40.0
        assert 0.0 <= node.position.y <= 40.0
        assert node.position.z == 0.0
        assert 0.5 <= node.transmit_power <= 1.0
        assert node.queue.arrival_rate in (60.0, 80.0, 100.0, 120.0)
        assert 0.030 <= node.queue.delay_threshold <= 0.060
        assert node.queue.buffer_capacity_normalized in (50.0, 75.0, 100.0, 125.0, 150.0)

    def test_same_seed_reproduces(self):
        assert load_scenario(self.DOC) == load_scenario(self.DOC)

    def test_different_seed_differs(self):
        other = self.DOC.replace("placement_seed: 12", "placement_seed: 13")
        assert load_scenario(self.DOC) != load_scenario(other)

    @pytest.mark.parametrize("options", [(1.0,), (60.0, 80.0, 100.0),
                                         scenario_io.ARRIVAL_RATE_CHOICES,
                                         scenario_io.BUFFER_CHOICES], ids=len)
    def test_choice_draws_what_generator_choice_drew(self, options):
        # one bounded integer, as numpy's Generator.choice takes it: same values, same stream
        for seed in range(200):
            sampler, rng = scenario_io._Sampler(seed), np.random.default_rng(seed)
            for _ in range(4):
                assert sampler.choice(options, "x") == float(rng.choice(np.asarray(options)))
                assert sampler.uniform(0.0, 1.0, "x") == float(rng.uniform(0.0, 1.0))

    def test_sampled_without_seed_is_an_error(self):
        doc = self.DOC.replace("placement_seed: 12\n", "")
        with pytest.raises(ScenarioError, match="placement_seed"):
            load_scenario(doc)


class TestValidationErrors:
    @pytest.mark.parametrize("text, message", [
        ("environment: 5", "environment: expected a mapping"),
        ("nodes: [{id: src, role: source, queue: 5}]", "nodes[0] (src).queue: expected a mapping"),
        ("nodes: [{id: src, role: source, position: [1, 2]}]",
         "nodes[0] (src).position: expected [x, y, z] or 'sampled', got [1, 2]"),
        ("area: [40]", "area: expected [width, height], got [40]"),
    ], ids=["environment", "queue", "position", "area"])
    def test_a_malformed_shape_is_named(self, text, message):
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(text)
        assert str(excinfo.value) == message

    def test_too_close_to_destination(self):
        doc = {"nodes": [{"id": "s", "role": "source", "position": [20.0, 20.0, 40.0]}]}
        with pytest.raises(ScenarioError, match="reference distance"):
            scenario_from_mapping(doc)

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_mapping({"frequency": 900e6})

    def test_unknown_node_field_names_the_node(self):
        doc = {"nodes": [{"id": "s", "role": "source", "power": 1.0}]}
        with pytest.raises(ScenarioError, match=r"nodes\[0\]"):
            scenario_from_mapping(doc)

    def test_no_source(self):
        doc = {"nodes": [{"id": "a", "role": "interferer"}]}
        with pytest.raises(ScenarioError, match="exactly one node"):
            scenario_from_mapping(doc)

    def test_two_sources(self):
        doc = {"nodes": [{"id": "a", "role": "source"}, {"id": "b", "role": "source"}]}
        with pytest.raises(ScenarioError, match="exactly one node"):
            scenario_from_mapping(doc)

    def test_duplicate_ids(self):
        doc = {"nodes": [{"id": "a", "role": "source"}, {"id": "a", "role": "interferer"}]}
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_mapping(doc)

    def test_bad_role(self):
        doc = {"nodes": [{"id": "a", "role": "relay"}]}
        with pytest.raises(ScenarioError, match="role"):
            scenario_from_mapping(doc)

    def test_negative_power(self):
        doc = {"nodes": [{"id": "a", "role": "source", "transmit_power": -1.0}]}
        with pytest.raises(ScenarioError, match="transmit_power"):
            scenario_from_mapping(doc)

    def test_overloaded_queue(self):
        doc = {
            "slot_duration": 0.01,
            "nodes": [{"id": "a", "role": "source", "queue": {"arrival_rate": 120.0}}],
        }
        with pytest.raises(ScenarioError, match="arrival_rate"):
            scenario_from_mapping(doc)

    def test_queues_must_share_the_slot(self):
        def node(node_id, role, slot):
            return Node(
                id=node_id,
                role=role,
                position=Position(0.0, 0.0, 0.0),
                transmit_power=0.5,
                queue=QueueParams(80.0, slot, 0.045, 100.0),
            )

        with pytest.raises(ScenarioError, match="'i0'.*slot_duration"):
            Scenario(nodes=(node("src", "source", 0.002), node("i0", "interferer", 0.001)))

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_mapping({"schema_version": 99})

    def test_bad_yaml(self):
        with pytest.raises(ScenarioError, match="parseable"):
            load_scenario("nodes: [unclosed")

    def test_bad_fading(self):
        doc = {"nodes": [{"id": "a", "role": "source", "fading": "nakagami"}]}
        with pytest.raises(ScenarioError, match="fading"):
            scenario_from_mapping(doc)

    @pytest.mark.parametrize("path", NUMERIC_KEYS, ids=".".join)
    def test_nan_is_rejected_naming_the_key(self, path):
        doc = {"nodes": [{"id": "src", "role": "source", "position": [1.0, 1.0, 0.0]}]}
        *parents, key = path
        target = doc
        for name in parents:
            target = target[name][0] if name == "nodes" else target.setdefault(name, {})
        if key in ("area", "destination", "position"):
            target[key] = [math.nan, 1.0, 50.0][: 2 if key == "area" else 3]
        else:
            target[key] = math.nan
        with pytest.raises(ScenarioError, match=key):
            scenario_from_mapping(doc)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"sinr_threshold": 10**400}, "sinr_threshold"),
            ({"nodes": [{"id": "s", "role": "source", "beta": 10**400}]}, "beta"),
            ({"placement_seed": -1}, "placement_seed"),
        ],
    )
    def test_out_of_range_integer_is_named(self, doc, key):
        with pytest.raises(ScenarioError, match=key):
            scenario_from_mapping(doc)

    @given(
        doc=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.floats(),
                st.integers(min_value=-(10**9), max_value=10**9),
                st.text(max_size=8),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(
                    st.one_of(st.text(max_size=8), st.sampled_from(DOCUMENT_KEYS)),
                    children,
                    max_size=4,
                ),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_documents_load_or_fail_cleanly(self, doc):
        # anything that loads satisfies the invariants and holds no NaN;
        # anything else raises the validation error, never another exception
        try:
            scenario = scenario_from_mapping(doc)
        except ScenarioError:
            return
        assert isinstance(scenario, Scenario)
        assert sum(1 for n in scenario.nodes if n.role == "source") == 1
        assert not any(math.isnan(v) for v in _floats(scenario))


class TestResultsFiles:
    def test_round_trip_preserves_twelve_digits(self, tmp_path):
        rows = [
            {"x": 1.0 / 3.0, "name": "a", "count": 3},
            {"x": 1.2345678901234e-7, "name": "b", "count": 4},
        ]
        path = tmp_path / "out.csv"
        write_results(rows, path, ["x", "name", "count"])
        parsed = read_results(path)
        assert [r["name"] for r in parsed] == ["a", "b"]
        for original, loaded in zip(rows, parsed):
            assert loaded["x"] == pytest.approx(original["x"], rel=1e-11)
            assert loaded["count"] == original["count"]

    def test_header_only_for_empty_rows(self):
        buffer = io.StringIO()
        write_results([], buffer, ["alpha", "beta"])
        assert buffer.getvalue() == "alpha,beta\n"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([{"a": 1.5}], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_row_order_preserved(self):
        buffer = io.StringIO()
        rows = [{"v": float(k)} for k in range(7)]
        write_results(rows, buffer, ["v"])
        parsed = read_results(io.StringIO(buffer.getvalue()))
        assert [r["v"] for r in parsed] == [float(k) for k in range(7)]

    def test_infinity_round_trips(self):
        buffer = io.StringIO()
        write_results([{"v": math.inf}], buffer, ["v"])
        parsed = read_results(io.StringIO(buffer.getvalue()))
        assert parsed[0]["v"] == math.inf


class TestLinks:
    """``links`` is derived from the geometry, kept per object and no part of its value."""

    def test_reading_links_leaves_equality_hash_and_repr(self):
        scenario, twin = load_scenario_file(EXAMPLE), load_scenario_file(EXAMPLE)
        before = hash(scenario), repr(scenario)
        assert scenario.links is scenario.links  # built once, then kept
        assert scenario == twin
        assert (hash(scenario), repr(scenario)) == before == (hash(twin), repr(twin))
        with pytest.raises(FrozenInstanceError):
            scenario.links = {}

    def test_a_moved_destination_gives_fresh_links(self):
        scenario = load_scenario_file(EXAMPLE)
        kept = scenario.links
        moved = replace(scenario, destination=Position(20.0, 20.0, 80.0))
        for node in moved.nodes:
            link = build_link(node.position, moved.destination, moved.environment,
                              node.fading_override)
            assert moved.links[node.id] == link != kept[node.id]
        assert scenario.links is kept
