"""Command-line interface: exit codes, determinism, and output schemas."""

import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_results

from uavlink import cli
from uavlink import presets as ps
from uavlink import simulator as sim
from uavlink import throughput as tp
from uavlink.errors import UavLinkError
from uavlink.scenario_io import load_scenario_file, scenario_from_mapping

BASIC = """
nodes:
  - id: src
    role: source
    position: [5.0, 5.0, 0.0]
    transmit_power: 0.6
    fading: rician
    beta: 4.0
  - id: i0
    role: interferer
    position: [30.0, 30.0, 0.0]
    transmit_power: 0.8
    fading: rician
    beta: 4.0
"""

EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(BASIC)
    return str(path)


class TestEvaluate:
    def test_prints_all_fields_and_succeeds(self, scenario_path, capsys):
        code = cli.main(["evaluate", "--scenario", scenario_path])
        out = capsys.readouterr().out
        assert code == 0
        for field in ("p_delay", "p_overflow", "p_error", "p_loss", "throughput"):
            assert field in out
        rate = float(out.split("throughput =")[1].strip())
        assert 0.0 < rate <= 80.0

    def test_beta_override_changes_output(self, scenario_path, capsys):
        cli.main(["evaluate", "--scenario", scenario_path])
        base = capsys.readouterr().out
        cli.main(["evaluate", "--scenario", scenario_path, "--beta", "i0=8.0"])
        boosted = capsys.readouterr().out
        assert base != boosted

    def test_threshold_at_bound_exits_two(self, scenario_path, capsys):
        scenario = load_scenario_file(scenario_path)
        view = tp.source_view(scenario)
        upper = tp.beta_upper(view.model, view.queue, view.num_channels)
        code = cli.main(["evaluate", "--scenario", scenario_path, "--beta", f"src={upper}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "boundary" in captured.err or "infeasible" in captured.err

    def test_threshold_beyond_bound_exits_two(self, scenario_path, capsys):
        code = cli.main(["evaluate", "--scenario", scenario_path, "--beta", "src=30.0"])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = cli.main(["evaluate", "--scenario", str(tmp_path / "nope.yaml")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_node_in_beta_override_exits_one(self, scenario_path, capsys):
        code = cli.main(["evaluate", "--scenario", scenario_path, "--beta", "ghost=1.0"])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("pair, message", [
        ("src", "error: --beta expects NODE=VALUE, got 'src'"),
        ("src=abc", "error: --beta 'src=abc': value is not a number"),
    ])
    def test_malformed_beta_override_is_a_usage_error(self, pair, message, scenario_path, capsys):
        code = cli.main(["evaluate", "--scenario", scenario_path, "--beta", pair])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_out_writes_the_printed_row(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "evaluate.csv"
        code = cli.main(["evaluate", "--scenario", scenario_path, "--out", str(out)])
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert code == 0
        (row,) = read_results(out)
        assert list(row) == list(ps.BREAKDOWN_COLUMNS)
        for name, value in row.items():
            assert value == pytest.approx(float(printed[f"{name:<10}"]), rel=1e-11)

    def test_silencing_interferer_via_inf(self, scenario_path, capsys):
        code = cli.main(["evaluate", "--scenario", scenario_path, "--beta", "i0=inf"])
        assert code == 0
        out = capsys.readouterr().out
        assert float(out.split("p_error")[1].split("=")[1].split()[0]) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_approx_never_exceeds_exact(self, scenario_path, capsys):
        cli.main(["evaluate", "--scenario", scenario_path, "--exact"])
        exact = float(capsys.readouterr().out.split("throughput =")[1].strip())
        cli.main(["evaluate", "--scenario", scenario_path, "--approx"])
        approx = float(capsys.readouterr().out.split("throughput =")[1].strip())
        assert approx <= exact + 1e-9


class TestSweep:
    def test_single_point_sweep_matches_evaluate(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--var", "beta_m",
            "--values", "4.0", "--out", str(out),
        ])
        assert code == 0
        rows = read_results(out)
        assert len(rows) == 1
        cli.main(["evaluate", "--scenario", scenario_path])
        printed = capsys.readouterr().out
        rate = float(printed.split("throughput =")[1].strip())
        assert rows[0]["throughput"] == pytest.approx(rate, rel=1e-9)

    def test_without_out_writes_csv_to_stdout(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        axis = ["--scenario", scenario_path, "--var", "gamma_th", "--values", "4,8"]
        assert cli.main(["sweep", *axis, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 rows to {out}\n"
        assert cli.main(["sweep", *axis]) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text(encoding="utf-8")
        assert printed.splitlines()[0] == ",".join(("gamma_th", *ps.BREAKDOWN_COLUMNS))

    def test_preset_writes_expected_columns(self, tmp_path):
        out = tmp_path / "fig5.csv"
        code = cli.main(["sweep", "--preset", "fig5", "--out", str(out)])
        assert code == 0
        rows = read_results(out)
        assert rows
        assert set(rows[0]) == {"t_slt", "beta_n", "queue_drop"}

    def test_preset_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sweep", "--preset", "fig5", "--out", str(a)])
        cli.main(["sweep", "--preset", "fig5", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_unknown_variable_is_usage_error(self, scenario_path):
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--var", "altitude", "--values", "1",
        ])
        assert code == 1

    def test_missing_axis_is_usage_error(self, scenario_path, capsys):
        code = cli.main(["sweep", "--scenario", scenario_path])
        assert code == 1
        assert "preset" in capsys.readouterr().err

    @pytest.mark.parametrize("var", ps.SWEEP_VARIABLES)
    def test_every_listed_variable_runs(self, var, scenario_path, tmp_path):
        values = {
            "beta_n": "3.0,4.0",
            "beta_m": "3.0,4.0",
            "interferer_count": "0,1",
            "gamma_th": "4.0,8.0",
            "t_slt": "0.001,0.002",
        }[var]
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--var", var,
            "--values", values, "--out", str(out),
        ])
        assert code == 0
        rows = read_results(out)
        assert [row[var] for row in rows] == [float(v) for v in values.split(",")]

    @pytest.mark.parametrize("values", ["0.5,1.7", "1,2.5", "inf", "nan"])
    def test_fractional_interferer_count_is_usage_error(self, values, scenario_path, capsys):
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--var", "interferer_count", "--values", values,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "interferer_count takes whole numbers" in captured.err
        assert captured.out == ""

    def test_negative_interferer_count_is_usage_error(self, scenario_path, capsys):
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--var", "interferer_count", "--values=-1,0",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: SweepSpec: interferer_count takes whole numbers >= 0, got -1.0"
        ]
        assert captured.out == ""

    def test_overloading_slot_names_the_node(self, capsys):
        code = cli.main([
            "sweep", "--scenario", str(EXAMPLE), "--var", "t_slt", "--values", "0.02",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "node 'src'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "axis,named",
        [
            (["--scenario", str(EXAMPLE)], "--scenario"),
            (["--var", "gamma_th", "--values", "1,2"], "--var, --values"),
            (["--scenario", str(EXAMPLE), "--var", "gamma_th", "--values", "1,2"],
             "--scenario, --var, --values"),
        ],
        ids=["scenario", "axis", "all"],
    )
    def test_preset_with_axis_flags_is_usage_error(self, axis, named, capsys):
        code = cli.main(["sweep", "--preset", "fig3", *axis])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --preset pins the scenario and its axis; drop {named}"
        ]

    def test_seed_without_preset_is_usage_error(self, scenario_path, capsys):
        code = cli.main([
            "sweep", "--seed", "3", "--scenario", scenario_path, "--var", "gamma_th",
            "--values", "1,2",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --seed overrides a preset's placement; it needs --preset"
        ]

    def test_non_numeric_values_are_usage_error(self, scenario_path, capsys):
        code = cli.main([
            "sweep", "--scenario", scenario_path, "--var", "beta_m", "--values", "3.0,high",
        ])
        assert code == 1
        assert "comma-separated list of numbers" in capsys.readouterr().err


class TestSimulate:
    def test_reports_gap_columns(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = cli.main([
            "simulate", "--scenario", scenario_path, "--slots", "4000",
            "--replications", "2", "--seed", "5", "--warmup", "100",
            "--out", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "analytic" in printed and "empirical" in printed
        rows = read_results(out)
        assert {r["metric"] for r in rows} == {"p_delay", "p_overflow", "p_error", "throughput"}
        for row in rows:
            assert row["gap"] == pytest.approx(
                abs(row["analytic"] - row["empirical"]), abs=1e-9
            )

    def test_fixed_seed_reproduces_stdout(self, scenario_path, capsys):
        args = ["simulate", "--scenario", scenario_path, "--slots", "3000",
                "--replications", "2", "--seed", "9", "--warmup", "50"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_threshold_beyond_bound_reports_no_analytic(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = cli.main([
            "simulate", "--scenario", scenario_path, "--beta", "src=30.0",
            "--slots", "2000", "--replications", "2", "--seed", "5", "--warmup", "100",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "n/a" in captured.out
        assert captured.err.startswith("infeasible: ")
        rows = read_results(out)
        assert all(math.isnan(row["analytic"]) for row in rows)

    def test_threshold_at_bound_prints_columns_then_exits_two(self, tmp_path, capsys):
        # on the bound the analytic deadline drop is 1, as evaluate reports it
        upper = tp.source_view(load_scenario_file(EXAMPLE)).upper
        out = tmp_path / "sim.csv"
        code = cli.main([
            "simulate", "--scenario", str(EXAMPLE), "--beta", f"src={upper!r}",
            "--slots", "2000", "--replications", "2", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "boundary" in captured.err and captured.err.startswith("infeasible: ")
        rows = {row["metric"]: row for row in read_results(out)}
        assert rows["p_delay"]["analytic"] == 1.0
        assert rows["p_delay"]["empirical"] < 1.0
        assert "n/a" not in captured.out
        assert cli.main(["evaluate", "--scenario", str(EXAMPLE), "--beta", f"src={upper!r}"]) == 2

    def test_nan_threshold_rejected_before_simulating(self, capsys):
        code = cli.main(["simulate", "--scenario", str(EXAMPLE), "--beta", "src=nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "'src'" in captured.err


# documents whose NaN used to pass validation and evaluate to a plausible result
NAN_DOCUMENTS = {
    "sinr_threshold": "sinr_threshold: .nan\n",
    "uav_altitude": "uav_altitude: .nan\n",
    "transmit_power": "nodes: [{id: src, role: source, transmit_power: .nan}]\n",
}


@st.composite
def example_perturbations(draw):
    """scenarios/example.yaml with its numbers redrawn inside their valid ranges."""
    doc = yaml.safe_load(EXAMPLE.read_text())
    doc["num_channels"] = draw(st.integers(1, 30))
    doc["sinr_threshold"] = draw(st.floats(0.5, 40.0))
    doc["slot_duration"] = draw(st.floats(5e-4, 5e-3))
    doc["uav_altitude"] = draw(st.floats(30.0, 200.0))
    doc["placement_seed"] = draw(st.integers(0, 2**32))
    doc["environment"]["omega"] = draw(st.floats(0.5, 4.0))
    for node in doc["nodes"]:
        node["beta"] = draw(st.floats(0.0, 12.0))
    source = doc["nodes"][0]
    source["position"] = [draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 40.0)), 0.0]
    source["transmit_power"] = draw(st.floats(0.05, 2.0))
    source["queue"] = {
        "arrival_rate": draw(st.floats(10.0, 150.0)),
        "delay_threshold": draw(st.floats(0.005, 0.1)),
        "buffer_capacity_normalized": draw(st.floats(1.0, 500.0)),
    }
    return doc


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize("key", sorted(NAN_DOCUMENTS))
    def test_nan_document_exits_one_naming_the_key(self, key, command, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(NAN_DOCUMENTS[key])
        extra = ["--slots", "2000", "--replications", "1"] if command == "simulate" else []
        code = cli.main([command, "--scenario", str(path), *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert key in captured.err

    @given(doc=example_perturbations())
    @settings(max_examples=30, deadline=None)
    def test_valid_perturbations_evaluate_or_fail_by_name(self, doc, tmp_path_factory):
        try:
            breakdown = tp.evaluate(scenario_from_mapping(doc))
        except UavLinkError:
            pass
        else:
            for name in ("p_delay", "p_overflow", "p_error", "p_loss"):
                assert 0.0 <= getattr(breakdown, name) <= 1.0
            assert 0.0 <= breakdown.throughput <= doc["nodes"][0]["queue"]["arrival_rate"]
        path = tmp_path_factory.getbasetemp() / "perturbed.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert cli.main(["evaluate", "--scenario", str(path)]) in (0, 1, 2)


class TestOptimize:
    def test_single_node_converges_quickly(self, tmp_path, capsys):
        path = tmp_path / "solo.yaml"
        path.write_text(
            "nodes:\n"
            "  - {id: solo, role: source, position: [5.0, 5.0, 0.0],\n"
            "     transmit_power: 0.7, fading: rician, beta: 1.0}\n"
        )
        trace = tmp_path / "trace.csv"
        code = cli.main([
            "optimize", "--scenario", str(path), "--grid", "24",
            "--tol", "1e-6", "--max-iters", "10", "--out", str(trace),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "converged" in printed
        iterations = int(printed.split("iterations =")[1].split()[0])
        assert iterations <= 2
        rows = read_results(trace)
        assert len(rows) == iterations  # one node: rows == iterations
        assert set(rows[0]) == {"iteration", "node", "beta", "throughput"}

    def test_zero_iterations_is_a_usage_error(self, capsys):
        code = cli.main(["optimize", "--scenario", str(EXAMPLE), "--max-iters", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["error: max_iters must be >= 1, got 0"]
        assert "Traceback" not in err

    def test_a_grid_beyond_the_array_limit_is_a_usage_error(self, capsys):
        code = cli.main(["optimize", "--scenario", str(EXAMPLE), "--grid", str(2**62)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["error: grid_size must be <= 1.15292e+18, got a 63-bit integer"]

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tolerance_no_change_can_meet_is_a_usage_error(self, tol, capsys):
        code = cli.main([
            "optimize", "--scenario", str(EXAMPLE), "--tol", tol,
            "--max-iters", "2", "--grid", "8",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [f"error: tol must be > 0, got {float(tol)}"]
        assert "Traceback" not in err

    def test_not_converged_reports_the_last_iterate(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = cli.main([
            "optimize", "--scenario", str(EXAMPLE), "--max-iters", "1", "--grid", "8",
            "--out", str(trace),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "status     = not converged (last iterate returned)" in printed
        rows = read_results(trace)
        last = max(row["iteration"] for row in rows)
        expected = {row["node"]: row["beta"] for row in rows if row["iteration"] == last}
        shown = {
            line.split()[1]: float(line.split("beta =")[1].split()[0])
            for line in printed.splitlines()
            if line.startswith("node ")
        }
        assert shown.keys() == expected.keys()
        for node_id, beta in expected.items():
            assert shown[node_id] == pytest.approx(beta, rel=1e-5)

    def test_a_cycle_is_named_and_exits_zero(self, tmp_path, capsys):
        # the example's 64-point grid: iterate 4 repeats iterate 2
        trace = tmp_path / "trace.csv"
        code = cli.main(["optimize", "--scenario", str(EXAMPLE), "--out", str(trace)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert printed[:2] == ["status     = cycle (period 2: src, i0)", "iterations = 5"]
        assert max(row["iteration"] for row in read_results(trace)) == 4


class TestOutOfMemory:
    # a --grid of 2**40 or a huge Rician num_channels asks numpy for terabytes
    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type "
         "float64", None),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command, module, name", [
        (["optimize", "--grid", "1099511627776"], tp, "jacobi_best_response"),
        (["simulate", "--slots", "2000"], sim, "run"),
    ], ids=["optimize", "simulate"])
    def test_is_a_usage_error(self, command, module, name, message, shown, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(module, name, exhausted)
        code = cli.main([command[0], "--scenario", str(EXAMPLE), *command[1:]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {shown or message}"]


class TestLogLevel:
    def test_unknown_level_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("UAVLINK_LOG", "bogus")
        code = cli.main(["evaluate", "--scenario", str(EXAMPLE)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        message = "error: UAVLINK_LOG must name a log level, got 'bogus'"
        assert captured.err.splitlines() == [message]

    def test_level_names_any_case(self, monkeypatch, capsys):
        monkeypatch.setenv("UAVLINK_LOG", "error")
        assert cli.main(["evaluate", "--scenario", str(EXAMPLE)]) == 0


class TestHelp:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("evaluate", ["--scenario", "--beta", "--exact", "--approx", "--out"]),
            ("sweep", ["--scenario", "--preset", "--seed", "--var", "--values", "--out"]),
            ("simulate", ["--scenario", "--slots", "--replications", "--seed", "--warmup", "--beta"]),
            ("optimize", ["--scenario", "--grid", "--tol", "--max-iters", "--objective"]),
        ],
    )
    def test_help_documents_every_flag(self, command, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text

    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 1

    @pytest.mark.parametrize("command", ["evaluate", "simulate", "optimize"])
    def test_missing_scenario_is_usage_error(self, command, capsys):
        code = cli.main([command])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage: uavlink {command} ")
        assert err.splitlines()[-1] == "error: the following arguments are required: --scenario"
        assert "Traceback" not in err

    def test_usage_error_names_its_reason(self, capsys):
        code = cli.main(["optimize", "--scenario", str(EXAMPLE), "--grid", "abc"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage: uavlink optimize ")
        assert captured.err.splitlines()[-1] == "error: argument --grid: invalid int value: 'abc'"
