"""Sweep machinery: axis application, presets, and reproducibility."""

import dataclasses
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import yaml
from oracles import read_results, recording, sweep_pointwise

from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import presets as ps
from uavlink import throughput as tp
from uavlink.errors import AccuracyError, DomainError, StabilityError, UavLinkError
from uavlink.scenario_io import scenario_from_mapping
from uavlink.specfun import QuadratureSpec

GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"


def example_scenario():
    return scenario_from_mapping(yaml.safe_load(EXAMPLE.read_text()))


def base_scenario():
    return scenario_from_mapping(
        {
            "placement_seed": 5,
            "nodes": [
                {
                    "id": "src",
                    "role": "source",
                    "position": [1.0, 1.0, 0.0],
                    "transmit_power": 0.6,
                    "fading": "rician",
                    "beta": 4.0,
                },
                {
                    "id": "i0",
                    "role": "interferer",
                    "position": "sampled",
                    "transmit_power": 0.5,
                    "fading": "rician",
                    "beta": 4.0,
                },
                {
                    "id": "i1",
                    "role": "interferer",
                    "position": "sampled",
                    "transmit_power": 1.0,
                    "fading": "rician",
                    "beta": 4.0,
                },
            ],
        }
    )


class TestSweepSpec:
    def test_rejects_unknown_variable(self):
        with pytest.raises(DomainError):
            ps.SweepSpec("altitude", (1.0, 2.0))

    def test_rejects_empty_and_unordered_values(self):
        with pytest.raises(DomainError):
            ps.SweepSpec("beta_m", ())
        with pytest.raises(DomainError):
            ps.SweepSpec("beta_m", (2.0, 1.0))
        with pytest.raises(DomainError):
            ps.SweepSpec("beta_m", (1.0, 1.0))

    @pytest.mark.parametrize(
        "values, bad",
        [((-1, 0), "-1"), ((1.5,), "1.5"), ((0, math.nan), "nan"), ((math.inf,), "inf")],
    )
    def test_interferer_count_takes_whole_numbers(self, values, bad):
        with pytest.raises(DomainError, match=f"whole numbers >= 0, got {bad}$"):
            ps.SweepSpec("interferer_count", values)


class TestRunSweep:
    def test_beta_n_axis_changes_only_the_source(self):
        scenario = base_scenario()
        columns, rows = ps.run_sweep(scenario, ps.SweepSpec("beta_n", (3.0, 4.0, 5.0)))
        assert columns[0] == "beta_n"
        assert [r["beta_n"] for r in rows] == [3.0, 4.0, 5.0]

    def test_gamma_th_axis_is_monotone_in_error(self):
        scenario = base_scenario()
        _, rows = ps.run_sweep(scenario, ps.SweepSpec("gamma_th", (2.0, 4.0, 8.0)))
        errors = [r["p_error"] for r in rows]
        assert errors[0] < errors[1] < errors[2]

    def test_t_slt_axis_raises_queue_losses(self):
        scenario = base_scenario()
        _, rows = ps.run_sweep(scenario, ps.SweepSpec("t_slt", (0.001, 0.002, 0.004)))
        drops = [r["p_delay"] for r in rows]
        assert drops[0] <= drops[1] <= drops[2]

    def test_interferer_count_prefix_nesting(self):
        scenario = base_scenario()
        _, rows = ps.run_sweep(scenario, ps.SweepSpec("interferer_count", (0, 1, 2)))
        rates = [r["throughput"] for r in rows]
        assert rates[0] > rates[1] > rates[2]
        with pytest.raises(DomainError):
            ps.run_sweep(scenario, ps.SweepSpec("interferer_count", (3,)))

    def test_column_names_the_axis(self):
        scenario = base_scenario()
        spec = ps.SweepSpec("interferer_count", (0, 2), "num_interferers")
        columns, rows = ps.run_sweep(scenario, spec)
        assert columns[0] == "num_interferers"
        assert [r["num_interferers"] for r in rows] == [0, 2]

    def test_bound_relative_values_resolve_against_beta_upper(self):
        scenario = base_scenario()
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        spec = ps.SweepSpec("beta_n", lambda bound: [0.5 * bound, 0.9 * bound])
        _, rows = ps.run_sweep(scenario, spec)
        assert [r["beta_n"] for r in rows] == [0.5 * upper, 0.9 * upper]

    def test_single_point_sweep_equals_evaluate(self):
        scenario = base_scenario()
        _, rows = ps.run_sweep(scenario, ps.SweepSpec("gamma_th", (8.0,)))
        breakdown = tp.evaluate(scenario)
        assert rows[0]["throughput"] == pytest.approx(breakdown.throughput, rel=1e-12)
        assert rows[0]["p_loss"] == pytest.approx(breakdown.p_loss, rel=1e-12)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(ps.PRESETS))
    def test_rows_match_declared_columns(self, name):
        columns, rows = ps.run_preset(name)
        assert rows
        for row in rows:
            assert list(row) == columns

    def test_same_seed_reproduces(self):
        assert ps.run_preset("fig3") == ps.run_preset("fig3", ps.DEFAULT_PRESET_SEED)

    def test_seed_changes_sampled_interferers(self):
        assert ps.run_preset("fig3", 1) != ps.run_preset("fig3", 2)

    def test_unknown_preset(self):
        from uavlink.errors import ScenarioError

        with pytest.raises(ScenarioError):
            ps.run_preset("fig9")

    def test_fig2_scenario_is_all_rician_ten_nodes(self):
        scenario = ps.preset_scenario("fig2")
        assert len(scenario.nodes) == 10
        from uavlink.channel import FadingKind

        assert all(n.fading_override is FadingKind.RICIAN for n in scenario.nodes)

    def test_fig3_scenario_first_two_interferers_rician(self):
        from uavlink.channel import FadingKind

        scenario = ps.preset_scenario("fig3")
        kinds = [n.fading_override for n in scenario.interferers()]
        assert kinds[:2] == [FadingKind.RICIAN, FadingKind.RICIAN]
        assert all(k is FadingKind.RAYLEIGH for k in kinds[2:])
        assert scenario.source().transmit_power == 0.5
        assert scenario.source().queue.arrival_rate == 80.0

    # per preset: source states, groups, axes a group applies, distinct (node, threshold)s,
    # and links built
    SHAPES = {"fig2": (1, 7, 1, 63, 10), "fig3": (1, 9, 1, 8, 9), "fig4": (3, 24, 2, 8, 9),
              "fig5": (8, 8, 1, 0, 1)}

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_one_law_per_group_from_terms_made_once(self, monkeypatch, name):
        # every group fits its own law from terms made once per interferer and threshold,
        # yet every row equals the per-point evaluation bit for bit
        laws, terms = [], []
        monkeypatch.setattr(itf, "_fitted", recording(laws, itf._fitted))
        monkeypatch.setattr(itf, "_link_terms", recording(terms, itf._link_terms))
        got = ps.run_preset(name)
        monkeypatch.undo()
        _, groups, _, distinct, _ = self.SHAPES[name]
        assert len(laws) == groups
        assert len(terms) == len(set(terms)) == distinct
        preset, scenario = ps.PRESETS[name], ps.preset_scenario(name)
        assert repr(got) == repr(sweep_pointwise(scenario, preset.axes, preset.outputs))

    def test_fig2_rows_equal_evaluate(self):
        scenario = ps.preset_scenario("fig2")
        for row in ps.run_preset("fig2")[1]:
            policy = {"src": row["beta_n"], **{n.id: row["beta_m"] for n in scenario.interferers()}}
            assert row["throughput"] == tp.evaluate(scenario, policy).throughput

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_axes_apply_once_per_group(self, monkeypatch, name):
        # one application of each non-threshold axis per group, one view of the source
        # per call and one prepared grid per source state.  Each node's link is built
        # once: the view, the laws and the stability bound that resolves the beta_n
        # values all read the scenario's links
        applied, views, grids, links = [], [], [], []
        monkeypatch.setattr(ps, "_apply_point", recording(applied, ps._apply_point))
        monkeypatch.setattr(tp, "source_view", recording(views, tp.source_view))
        monkeypatch.setattr(tp, "_prepare_grid", recording(grids, tp._prepare_grid))
        monkeypatch.setattr(ch, "build_link", recording(links, ch.build_link))
        ps.run_preset(name)
        states, groups, axes, _, built = self.SHAPES[name]
        assert len(applied) == groups * axes
        assert all(args[1] != "beta_n" for args in applied)
        assert len(views) == 1
        assert len(grids) == states
        assert len(links) == built == 1 + len(ps.PRESETS[name].interferers)

    @pytest.mark.parametrize("name", sorted(ps.PRESETS))
    def test_matches_golden(self, name):
        # regression gate: default-seed output against the committed CSV
        path = GOLDEN / f"{name}.csv"
        columns, rows = ps.run_preset(name)
        assert path.read_text(encoding="utf-8").split("\n", 1)[0] == ",".join(columns)
        golden = read_results(path)
        assert len(rows) == len(golden)
        for row, want in zip(rows, golden):
            for column in columns:
                assert row[column] == pytest.approx(want[column], rel=1e-8, abs=0.0)


class TestSweepGroups:
    """A sweep's rows are each point evaluated on its own, whatever the axis order."""

    SCENARIO = ps.preset_scenario("fig3")  # Rician and Rayleigh interferers
    UPPER = tp.source_view(SCENARIO).upper

    @settings(max_examples=25, deadline=None)
    @given(
        variables=st.lists(
            st.sampled_from(["beta_n", "beta_m", "gamma_th", "interferer_count", "t_slt"]),
            min_size=1, max_size=3, unique=True,
        ),
        fractions=st.lists(
            st.floats(0.05, 0.99), min_size=1, max_size=3, unique_by=lambda f: round(f, 6)
        ),
        interferer_betas=st.lists(
            st.floats(0.0, 10.0) | st.just(math.inf), min_size=1, max_size=2, unique=True
        ),
        thresholds=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=2, unique=True),
        counts=st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
        # slots no longer than the scenario's, so every beta_n below UPPER stays stable
        slots=st.lists(
            st.floats(0.25, 1.0), min_size=1, max_size=2, unique_by=lambda f: round(f, 6)
        ),
        negative_first=st.booleans(),
    )
    @example(variables=["beta_m", "interferer_count"], fractions=[0.5],
             interferer_betas=[1.0, math.inf], thresholds=[8.0], counts=[0, 3, 8], slots=[1.0],
             negative_first=False)
    @example(variables=["interferer_count", "t_slt", "beta_m"], fractions=[0.5],
             interferer_betas=[0.0, 3.0], thresholds=[8.0], counts=[2, 8], slots=[0.5],
             negative_first=False)
    def test_rows_equal_per_point_evaluate(
        self, variables, fractions, interferer_betas, thresholds, counts, slots, negative_first
    ):
        betas = [f * self.UPPER for f in sorted(fractions)]
        if negative_first:
            betas[0] = -betas[0]
        values = {
            "beta_n": betas,
            "beta_m": sorted(interferer_betas),
            "gamma_th": sorted(thresholds),
            "interferer_count": sorted(counts),
            "t_slt": [f * self.SCENARIO.slot_duration for f in sorted(slots)],
        }
        if negative_first and "beta_n" in variables:
            # the axis rejects the negative threshold where it is built, before any point
            with pytest.raises(DomainError, match="SweepSpec: beta_n must be >= 0"):
                ps.SweepSpec("beta_n", tuple(betas))
            return
        axes = [ps.SweepSpec(v, tuple(values[v])) for v in variables]

        def alone(point):
            scenario, policy, beta_m = self.SCENARIO, {}, None
            for variable, value in zip(variables, point):
                if variable == "beta_n":
                    policy["src"] = value
                elif variable == "beta_m":
                    beta_m = value
                elif variable == "gamma_th":
                    scenario = dataclasses.replace(scenario, sinr_threshold=value)
                elif variable == "t_slt":
                    nodes = []
                    for node in scenario.nodes:
                        queue = dataclasses.replace(node.queue, slot_duration=value)
                        nodes.append(dataclasses.replace(node, queue=queue))
                    scenario = dataclasses.replace(scenario, nodes=tuple(nodes))
                else:
                    kept = (scenario.source(), *scenario.interferers()[:value])
                    scenario = dataclasses.replace(scenario, nodes=kept)
            if beta_m is not None:  # on the interferers present at the point, in either axis order
                policy.update((n.id, beta_m) for n in scenario.interferers())
            return dataclasses.asdict(tp.evaluate(scenario, policy))

        points = list(itertools.product(*(axis.values for axis in axes)))
        _, rows = ps._sweep(self.SCENARIO, axes, ps.BREAKDOWN_COLUMNS)
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            want = alone(point)
            got = {column: row[column] for column in ps.BREAKDOWN_COLUMNS}
            assert repr(got) == repr(want), point

    def test_beta_m_writes_onto_the_interferers_a_later_count_keeps(self):
        scenario = example_scenario()
        written = ps._apply_point(scenario, "beta_m", 2.0)
        assert written.source() == scenario.source() and scenario.source().beta == 5.1
        assert [n.beta for n in written.interferers()] == [2.0] * 4
        kept = ps._apply_point(written, "interferer_count", 2)
        assert kept.source() == scenario.source()
        assert [(n.id, n.beta) for n in kept.interferers()] == [("i0", 2.0), ("i1", 2.0)]


class TestGroupedSweepMatchesPointwise:
    """One grid per group gives the per-point loop's rows, and raises its first error."""

    @pytest.mark.parametrize("placement", range(8))
    @pytest.mark.parametrize("name", sorted(ps.PRESETS))
    def test_presets(self, name, placement):
        preset, scenario = ps.PRESETS[name], ps.preset_scenario(name, placement)
        want = sweep_pointwise(scenario, preset.axes, preset.outputs)
        assert repr(ps.run_preset(name, placement)) == repr(want)

    @pytest.mark.parametrize("variable", ps.SWEEP_VARIABLES)
    def test_example_along_each_variable(self, variable):
        scenario = example_scenario()
        upper = tp.source_view(scenario).upper
        values = {
            "beta_n": tuple(f * upper for f in (0.0, 1e-4, 0.3, 0.7, 0.99, 1.0)),
            "beta_m": (0.0, 1.55, 5.1, math.inf),
            "interferer_count": (0, 1, 2, 3, 4),
            "gamma_th": (1.0, 2.0, 8.0, 32.0),
            "t_slt": (0.001, 0.0015, 0.002, 0.0025),
        }[variable]
        spec = ps.SweepSpec(variable, values)
        want = sweep_pointwise(scenario, (spec,), ps.BREAKDOWN_COLUMNS)
        assert repr(ps.run_sweep(scenario, spec)) == repr(want)

    def test_source_axis_crossed_with_law_axis(self):
        # two source states, each grid priced against three laws
        scenario = example_scenario()
        upper = tp.source_view(scenario).upper
        axes = (
            ps.SweepSpec("gamma_th", (1.0, 8.0)),
            ps.SweepSpec("beta_m", (0.0, 1.55, math.inf)),
            ps.SweepSpec("beta_n", tuple(f * upper for f in (0.0, 0.3, 0.99))),
        )
        want = sweep_pointwise(scenario, axes, ps.BREAKDOWN_COLUMNS)
        assert repr(ps._sweep(scenario, axes, ps.BREAKDOWN_COLUMNS)) == repr(want)

    @staticmethod
    def first_error(axes):
        scenario = example_scenario()
        with pytest.raises(UavLinkError) as grouped:
            ps._sweep(scenario, axes, ps.BREAKDOWN_COLUMNS)
        with pytest.raises(UavLinkError) as pointwise:
            sweep_pointwise(scenario, axes, ps.BREAKDOWN_COLUMNS)
        assert type(grouped.value) is type(pointwise.value)
        assert str(grouped.value) == str(pointwise.value)
        return grouped.value

    def test_a_bad_threshold_fails_at_the_axis(self):
        # before any point is evaluated; without it, the infeasible 50 fails at its own point
        with pytest.raises(DomainError, match="SweepSpec: beta_n must be >= 0, got nan$"):
            ps.SweepSpec("beta_n", (1.0, 50.0, math.nan))
        error = self.first_error((ps.SweepSpec("beta_n", (1.0, 50.0)),))
        assert isinstance(error, StabilityError) and "beta 50 " in str(error)

    def test_a_group_that_cannot_be_built_fails_at_its_first_point(self):
        # (0, 1), (0, 50), then (9, 1): there are only four interferers to keep
        axes = (ps.SweepSpec("interferer_count", (0, 9)), ps.SweepSpec("beta_n", (1.0, 50.0)))
        assert isinstance(self.first_error(axes), StabilityError)
        with pytest.raises(DomainError, match="exceeds the 4 interferers"):
            ps._sweep(example_scenario(), axes[:1], ps.BREAKDOWN_COLUMNS)

    def test_a_threshold_unstable_in_a_later_source_state_fails_at_its_point(self):
        # 0.99 upper is stable at the shorter slot and not at the longer one, where the
        # grid of the source state is shared by both interferer counts
        upper = tp.source_view(example_scenario()).upper
        axes = (ps.SweepSpec("t_slt", (0.001, 0.0025)), ps.SweepSpec("interferer_count", (0, 2)),
                ps.SweepSpec("beta_n", (0.5 * upper, 0.99 * upper)))
        assert isinstance(self.first_error(axes), StabilityError)

    def test_a_failed_tail_fails_at_its_own_point(self, monkeypatch):
        # (1, 0) has no interference, so no tail; (1, 1) fails its tail before
        # (50, 0) is found infeasible, although that group was priced first
        monkeypatch.setattr(itf, "DEFAULT_QUAD", QuadratureSpec(max_subdivisions=2))
        axes = (ps.SweepSpec("beta_n", (1.0, 50.0)), ps.SweepSpec("interferer_count", (0, 1)))
        error = self.first_error(axes)
        assert isinstance(error, AccuracyError) and "[1.0, inf]" in str(error)

    def test_a_tail_that_fails_only_in_its_group_lets_an_earlier_point_fail_first(self,
                                                                                monkeypatch):
        # the 2 ms group fails its tail above 5.2 at (5.0, 2 ms), its first point, and is
        # priced point by point, so (5.0, 8 ms) raises its instability before (5.5, 2 ms)
        # comes up; without that fallback, the group's failed tail is raised at once
        integrate = itf.specfun.integrate

        def failing(f, lo, hi, quad):
            if lo > 5.2:
                raise AccuracyError(f"quadrature did not converge on [{lo}, {hi}]")
            return integrate(f, lo, hi, quad)

        monkeypatch.setattr(itf.specfun, "integrate", failing)
        axes = (ps.SweepSpec("beta_n", (5.0, 5.5)), ps.SweepSpec("t_slt", (0.002, 0.008)))
        error = self.first_error(axes)
        assert isinstance(error, StabilityError) and "beta 5 exceeds" in str(error)
