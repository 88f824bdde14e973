"""Where values enter the package: every number is checked by the one rule of its
kind (a threshold, a positive quantity or a count), every public function has a
caller outside the tests, and a command loads no scipy solver it does not call."""

import ast
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import presets as ps
from uavlink import simulator as sim
from uavlink import throughput as tp
from uavlink.channel import EnvironmentParams, LinkChannel, Rayleigh, Rician
from uavlink.errors import DomainError, ScenarioError, StabilityError
from uavlink.interference import ZERO_INTERFERENCE, GammaFit, InterfererLink, NoiseModel
from uavlink.queueing import QueueParams
from uavlink.scenario_io import load_scenario_file, scenario_from_mapping
from uavlink.specfun import QuadratureSpec
from uavlink.throughput import PolicyVector

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uavlink"
CALLERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def public_functions() -> set[tuple[str, str]]:
    """``(module, name)`` of every function a package module defines and names in ``__all__``."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                found.update((path.stem, name) for name in ast.literal_eval(node.value)
                             if name in defined)
    return found


def referenced(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` of every package function the file at ``path`` refers to.

    A reference is a bare name in the function's own module, an import of it
    from its module, or an attribute of a name bound to its module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == PACKAGE else None
    modules: dict[str, str] = {}  # local name -> package module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative: inside the package
                module = node.module or ""
            elif node.module == "uavlink" or (node.module or "").startswith("uavlink."):
                module = node.module.removeprefix("uavlink").lstrip(".")
            else:
                continue
            for alias in node.names:
                if module:  # from .channel import fading_cdf
                    found.add((module, alias.name))
                else:  # from uavlink import channel as ch
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("uavlink.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("uavlink.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own is not None:
            found.add((own, node.id))
    return found


def test_every_public_function_has_a_caller_outside_the_tests():
    used = set().union(*map(referenced, CALLERS))
    unused = sorted(f"{module}.{name}" for module, name in public_functions() - used)
    assert not unused, f"called only by tests: {unused}"


@pytest.mark.parametrize("statement", [
    "import uavlink.cli",
    "from uavlink.cli import main; main(['optimize', '--scenario', 'scenarios/example.yaml',"
    " '--max-iters', '4'])",
], ids=["import", "optimize"])
def test_no_scipy_solver_is_loaded_by(statement):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    check = "import sys; assert not {'scipy.integrate', 'scipy.optimize'} & set(sys.modules)"
    proc = subprocess.run([sys.executable, "-c", f"{statement}\n{check}"], capture_output=True,
                          text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


VIEW = tp.source_view(scenario_from_mapping({
    "placement_seed": 3,
    "nodes": [
        {"id": "src", "role": "source", "position": [1.0, 1.0, 0.0], "fading": "rician",
         "beta": 2.0},
        {"id": "i0", "role": "interferer", "position": "sampled", "fading": "rayleigh",
         "beta": 1.0},
    ],
}))
LINK = LinkChannel(Rician(3.0), 1e-3)

# each entry point of a threshold, and the field its error names
ENTRY_POINTS = {
    "PolicyVector": (lambda b: PolicyVector({"src": b}), "PolicyVector: beta for node 'src'"),
    "InterfererLink": (lambda b: InterfererLink(1.0, 1.0, Rayleigh(2.0), b), "InterfererLink.beta"),
    "truncated_power_moment rayleigh": (lambda b: ch.truncated_power_moment(Rayleigh(2.0), b, 2),
                                        "truncated_power_moment: beta"),
    "truncated_power_moment rician": (lambda b: ch.truncated_power_moment(Rician(3.0), b, 4),
                                      "truncated_power_moment: beta"),
    "SweepSpec beta_n first": (lambda b: ps.SweepSpec("beta_n", (b, 2.0)), "SweepSpec: beta_n"),
    "SweepSpec beta_n last": (lambda b: ps.SweepSpec("beta_n", (1.0, b)), "SweepSpec: beta_n"),
    "SweepSpec beta_m": (lambda b: ps.SweepSpec("beta_m", (b,)), "SweepSpec: beta_m"),
    "evaluate_view": (lambda b: tp.evaluate_view(VIEW, b), "node 'src': beta"),
    "evaluate": (lambda b: tp.evaluate(EXAMPLE, {"src": b}), "PolicyVector: beta for node 'src'"),
    "loss_derivative": (lambda b: tp.loss_derivative(VIEW, b), "loss_derivative: beta"),
    "p_error": (lambda b: itf.p_error(LINK, 1.0, b, NoiseModel(), 2.0, fit=ZERO_INTERFERENCE),
                "main_beta"),
    "fading_cdf": (lambda b: ch.fading_cdf(Rician(3.0), b), "fading_cdf: beta"),
    "transmit_prob": (lambda b: ch.transmit_prob(Rayleigh(2.0), b, 15), "fading_cdf: beta"),
}


@pytest.mark.parametrize("bad", [True, False, math.nan, -1.0], ids=str)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_bad_threshold_is_a_named_domain_error_at_every_entry_point(entry, bad):
    call, field = ENTRY_POINTS[entry]
    expected = "a number" if isinstance(bad, bool) else ">= 0"
    with pytest.raises(DomainError, match=f"^{field} must be {expected}, got "):
        call(bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_integer_below_the_float_range_is_a_negative_threshold(entry):
    call, field = ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{field} must be >= 0, got -inf$"):
        call(-10**400)


def test_an_integer_above_the_float_range_is_an_infinite_threshold():
    assert PolicyVector({"src": 10**400}).get("src") == math.inf
    assert InterfererLink(1.0, 1.0, Rayleigh(2.0), 10**400).beta == math.inf
    assert ch.truncated_power_moment(Rician(3.0), 10**400, 4) == 0.0
    assert tp.evaluate(EXAMPLE, {"i1": 10**400}) == tp.evaluate(EXAMPLE, {"i1": math.inf})


# i0 is a Rician interferer of the example and i2 a Rayleigh one
@pytest.mark.parametrize("beta", [1e10, 1e20, 1e80, 1e160, 1e300], ids=str)
@pytest.mark.parametrize("node", ["i0", "i2"])
def test_a_huge_finite_threshold_evaluates_like_an_infinite_one(node, beta):
    assert repr(tp.evaluate(EXAMPLE, {node: beta})) == repr(tp.evaluate(EXAMPLE, {node: math.inf}))


@pytest.mark.parametrize("beta", [1e160, 1e300, math.inf], ids=str)
def test_a_huge_source_threshold_is_unstable_without_a_warning(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StabilityError, match="exceeds the stability bound"):
            tp.evaluate(EXAMPLE, {"src": beta})


@pytest.mark.parametrize("beta", [1e10, 1e300], ids=str)
def test_a_huge_finite_interferer_threshold_sweeps_like_an_infinite_one(beta):
    _, huge = ps.run_sweep(EXAMPLE, ps.SweepSpec("beta_m", (2.0, beta)))
    _, silent = ps.run_sweep(EXAMPLE, ps.SweepSpec("beta_m", (2.0, math.inf)))
    assert [row["beta_m"] for row in huge] == [2.0, beta]
    for row, want in zip(huge, silent, strict=True):
        assert repr({**row, "beta_m": None}) == repr({**want, "beta_m": None})


# the entry points where a threshold is one value; the others take a grid of them
ONE_THRESHOLD = [entry for entry in ENTRY_POINTS
                 if entry not in ("loss_derivative", "p_error", "fading_cdf", "transmit_prob")]


@pytest.mark.parametrize("bad", [[1.0, 2.0], [1.0]], ids=str)
@pytest.mark.parametrize("entry", ONE_THRESHOLD)
def test_an_array_is_no_threshold_where_a_threshold_is_one_value(entry, bad):
    call, field = ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{field} must be a number, got {re.escape(str(bad))}$"):
        call(bad)


@pytest.mark.parametrize("count", [True, 2.5, 0])
@pytest.mark.parametrize(
    "call, field",
    [(lambda n: ch.transmit_prob(Rayleigh(2.0), 1.0, n), "transmit_prob: num_channels"),
     (lambda n: itf.interference_moments([], n), "num_channels"),
     (lambda n: itf.fit_interference([], n), "num_channels")],
    ids=["transmit_prob", "interference_moments", "fit_interference"],
)
def test_num_channels_is_an_integer_of_at_least_one(call, field, count):
    expected = "an integer" if isinstance(count, (bool, float)) else ">= 1"
    with pytest.raises(DomainError, match=f"^{field} must be {expected}, got "):
        call(count)


EXAMPLE = load_scenario_file(ROOT / "scenarios" / "example.yaml")
QUEUE = QueueParams(80.0, 0.002, 0.045, 100.0)


def setting(value, name):
    """A call that makes ``value`` again with its field ``name`` set to the argument."""
    return lambda x: replace(value, **{name: x})


# each entry point of a positive quantity: its call, the field its error names, and the error
POSITIVE = {
    "Rayleigh.omega": (Rayleigh, "Rayleigh.omega", DomainError),
    **{f"EnvironmentParams.{f.name}": (setting(EnvironmentParams(), f.name),
                                       f"EnvironmentParams.{f.name}", DomainError)
       for f in fields(EnvironmentParams)},
    "LinkChannel.path_loss_amplitude": (setting(LINK, "path_loss_amplitude"),
                                        "LinkChannel.path_loss_amplitude", DomainError),
    **{f"InterfererLink.{name}": (setting(InterfererLink(1.0, 1.0, Rayleigh(2.0), 1.0), name),
                                  f"InterfererLink.{name}", DomainError)
       for name in ("transmit_power", "path_loss_amplitude")},
    **{f"GammaFit.{name}": (setting(GammaFit(2.0, 1e-12), name), f"GammaFit.{name}", DomainError)
       for name in ("shape", "scale")},
    **{f"NoiseModel.{f.name}": (setting(NoiseModel(), f.name), f"NoiseModel.{f.name}",
                                DomainError) for f in fields(NoiseModel)},
    **{f"QueueParams.{name}": (setting(QUEUE, name), f"QueueParams.{name}", DomainError)
       for name in ("arrival_rate", "slot_duration", "delay_threshold")},
    **{f"QuadratureSpec.{name}": (setting(QuadratureSpec(), name), f"QuadratureSpec.{name}",
                                  DomainError)
       for name in ("absolute_tolerance", "relative_tolerance")},
    "noise_floor main_power": (lambda x: itf.noise_floor(LINK, x, NoiseModel(), 2.0),
                               "main_power", DomainError),
    "noise_floor gamma_th": (lambda x: itf.noise_floor(LINK, 1.0, NoiseModel(), x),
                             "gamma_th", DomainError),
    "p_error gamma_th": (lambda x: itf.p_error(LINK, 1.0, 2.0, NoiseModel(), x,
                                               fit=ZERO_INTERFERENCE), "gamma_th", DomainError),
    "expected_throughput": (lambda x: tp.expected_throughput(x, 0.1), "arrival_rate",
                            DomainError),
    "jacobi_best_response tol": (lambda x: tp.jacobi_best_response(EXAMPLE, tol=x), "tol",
                                 DomainError),
    **{f"SweepSpec {name}": (lambda x, name=name: ps.SweepSpec(name, (x,)),
                             f"SweepSpec: {name}", DomainError) for name in ("gamma_th", "t_slt")},
    "Node.transmit_power": (lambda x: replace(EXAMPLE.source(), transmit_power=x),
                            "node 'src': transmit_power", ScenarioError),
    "Scenario.sinr_threshold": (setting(EXAMPLE, "sinr_threshold"),
                                "Scenario: sinr_threshold", ScenarioError),
}

# each entry point of a count: its call, the field its error names, the error, the least count
COUNTS = {
    "transmit_prob": (lambda n: ch.transmit_prob(Rayleigh(2.0), 1.0, n),
                      "transmit_prob: num_channels", DomainError, 1),
    "interference_moments": (lambda n: itf.interference_moments([], n), "num_channels",
                             DomainError, 1),
    "fit_interference": (lambda n: itf.fit_interference([], n), "num_channels", DomainError, 1),
    "jacobi_best_response grid_size": (lambda n: tp.jacobi_best_response(EXAMPLE, grid_size=n),
                                       "grid_size", DomainError, 2),
    "jacobi_best_response max_iters": (lambda n: tp.jacobi_best_response(EXAMPLE, max_iters=n),
                                       "max_iters", DomainError, 1),
    **{f"SimConfig.{name}": (lambda n, name=name: sim.SimConfig(**{"num_slots": 10, name: n}),
                             f"SimConfig.{name}", DomainError, least)
       for name, least in (("num_slots", 1), ("warmup_slots", 0), ("replication_count", 1),
                           ("seed", -math.inf))},
    "QuadratureSpec.max_subdivisions": (setting(QuadratureSpec(), "max_subdivisions"),
                                        "QuadratureSpec.max_subdivisions", DomainError, 1),
    "Scenario.num_channels": (setting(EXAMPLE, "num_channels"), "Scenario: num_channels",
                              ScenarioError, 1),
}

# the counts that size a numpy array, which takes at most numpy's array limit of floats
ARRAY_COUNTS = {"jacobi_best_response grid_size": np.iinfo(np.intp).max // 8}


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, 0.0, -1.0], ids=str)
@pytest.mark.parametrize("entry", POSITIVE)
def test_a_bad_positive_quantity_is_named_at_every_entry_point(entry, bad):
    call, field, error = POSITIVE[entry]
    expected = "a number" if isinstance(bad, bool) else "finite" if bad == math.inf else "> 0"
    with pytest.raises(error, match=f"^{re.escape(field)} must be {expected}, got "):
        call(bad)


@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
@pytest.mark.parametrize("entry", POSITIVE)
def test_an_integer_beyond_the_float_range_is_named_as_a_positive_quantity(entry, sign):
    call, field, error = POSITIVE[entry]
    expected = "finite, got inf" if sign > 0 else "> 0, got -inf"
    with pytest.raises(error, match=f"^{re.escape(field)} must be {re.escape(expected)}$"):
        call(sign * 10**400)


@pytest.mark.parametrize("entry", [entry for entry, (*_, least) in COUNTS.items()
                                   if entry != "SimConfig.seed"])
def test_a_count_beyond_the_float_range_is_named(entry):
    # a count may meet a float as its exponent, as num_channels does in F(beta) ** N
    call, field, error, _ = COUNTS[entry]
    most = ARRAY_COUNTS.get(entry, sys.float_info.max)
    expected = f"must be <= {most:.6g}, got a 1329-bit integer"
    with pytest.raises(error, match=f"^{re.escape(field)} {re.escape(expected)}$"):
        call(10**400)


@pytest.mark.parametrize("count, bits", [(2**62, 63), (10**300, 997)], ids=["2**62", "10**300"])
@pytest.mark.parametrize("entry", ARRAY_COUNTS)
def test_a_count_beyond_the_array_limit_is_named_before_anything_is_made(entry, count, bits,
                                                                         monkeypatch):
    # np.linspace once raised a bare ValueError for these; nothing past the check may run
    def never(*args, **kwargs):
        raise AssertionError("reached past the check")

    monkeypatch.setattr(tp, "_resolve_policy", never)
    call, field, error, _ = COUNTS[entry]
    expected = f"must be <= {ARRAY_COUNTS[entry]:.6g}, got a {bits}-bit integer"
    with pytest.raises(error, match=f"^{re.escape(field)} {re.escape(expected)}$"):
        call(count)


WHOLE = "takes whole numbers >= 0"


@pytest.mark.parametrize("bad, expected", [
    pytest.param(10**400, WHOLE, id="10**400"), pytest.param(-10**400, WHOLE, id="-10**400"),
    (math.inf, WHOLE), (math.nan, WHOLE), (2.5, WHOLE), (-1, WHOLE), (True, "must be a number"),
], ids=str)
def test_a_bad_interferer_count_is_named(bad, expected):
    # an integer beyond the float range once raised a bare OverflowError
    with pytest.raises(DomainError, match=f"^SweepSpec: interferer_count {expected}, got "):
        ps.SweepSpec("interferer_count", (bad,))


def test_any_integer_seeds():
    assert sim.SimConfig(10, seed=10**400).seed == 10**400
    assert scenario_from_mapping(document(("placement_seed",), 10**400)).nodes


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (*_, least) in COUNTS.items()
    for bad in (True, 2.5, math.nan, math.inf, 0, -1)
    if not (type(bad) is int and bad >= least)
], ids=str)
def test_a_bad_count_is_named_at_every_entry_point(entry, bad):
    call, field, error, least = COUNTS[entry]
    expected = f">= {least}" if type(bad) is int else "an integer"
    with pytest.raises(error, match=f"^{re.escape(field)} must be {re.escape(expected)}, got "):
        call(bad)


@pytest.mark.parametrize("bad, expected", [
    (True, "a number"), (math.nan, ">= 0"), (-1.0, ">= 0"), (math.inf, "a finite number"),
    ([1.0, 2.0], "a number"), pytest.param(10**400, "a finite number", id="10**400"),
], ids=str)
def test_a_bad_buffer_is_named(bad, expected):
    field = "QueueParams.buffer_capacity_normalized"
    with pytest.raises(DomainError, match=f"^{field} must be {expected}, got "):
        replace(QUEUE, buffer_capacity_normalized=bad)


@pytest.mark.parametrize("bad, expected", [(True, "a number"), (math.nan, ">= 0"),
                                           (-1.0, ">= 0"), ([1.0, 2.0], "a number")], ids=str)
def test_a_bad_node_threshold_is_named(bad, expected):
    with pytest.raises(ScenarioError, match=f"^node 'src': beta must be {expected}, got "):
        replace(EXAMPLE.source(), beta=bad)


def document(path: tuple[str, ...], value) -> dict:
    """A one-source document with ``value`` at ``path`` (``nodes`` meaning the source)."""
    doc = {"nodes": [{"id": "src", "role": "source", "position": [1.0, 1.0, 0.0]}]}
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name][0] if name == "nodes" else target.setdefault(name, {})
    target[key] = [value, 40.0] if key == "area" else value
    return doc


# every key of a document holding a positive quantity, a count, or a threshold or buffer
POSITIVE_KEYS = [
    *(("environment", f.name) for f in fields(EnvironmentParams)),
    *(("noise", f.name) for f in fields(NoiseModel)),
    ("sinr_threshold",), ("slot_duration",), ("uav_altitude",), ("area",),
    ("nodes", "transmit_power"),
    ("nodes", "queue", "arrival_rate"), ("nodes", "queue", "delay_threshold"),
]
COUNT_KEYS = {("num_channels",): 1, ("placement_seed",): 0}
NONNEGATIVE_KEYS = [("nodes", "beta"), ("nodes", "queue", "buffer_capacity_normalized")]


@pytest.mark.parametrize("path, bad", [
    *((path, bad) for path in POSITIVE_KEYS for bad in (True, math.nan, math.inf, 0.0, -1.0)),
    *((path, bad) for path, least in COUNT_KEYS.items()
      for bad in (True, 2.5, math.nan, math.inf, 0, -1) if not (type(bad) is int and bad >= least)),
    *((path, bad) for path in NONNEGATIVE_KEYS for bad in (True, math.nan, -1.0)),
    (("nodes", "queue", "buffer_capacity_normalized"), math.inf),
    pytest.param(("num_channels",), 10**400, id="('num_channels',)-10**400"),
    (("nodes", "beta"), [1.0, 2.0]),
], ids=str)
def test_a_bad_number_in_a_document_is_a_scenario_error_naming_its_key(path, bad):
    with pytest.raises(ScenarioError, match=path[-1]):
        scenario_from_mapping(document(path, bad))


def test_an_infinite_deadline_or_buffer_is_rejected():
    # an infinite deadline once reached the simulator, which cast it to a slot and
    # expired every packet at once; an infinite buffer made the overflow term NaN
    queue = EXAMPLE.source().queue
    with pytest.raises(DomainError, match="^QueueParams.delay_threshold must be finite, got inf$"):
        replace(queue, delay_threshold=math.inf)
    field = "QueueParams.buffer_capacity_normalized"
    with pytest.raises(DomainError, match=f"^{field} must be a finite number, got inf$"):
        replace(queue, buffer_capacity_normalized=math.inf)


@pytest.mark.parametrize("count", [2.5, True], ids=str)
def test_a_channel_count_that_is_no_integer_fails_at_the_scenario(count, monkeypatch):
    # before the simulator opens its pool and before best response runs
    def never(*args, **kwargs):
        raise AssertionError("reached past the scenario")

    monkeypatch.setattr(sim.futures, "ThreadPoolExecutor", never)
    monkeypatch.setattr(tp, "_resolve_policy", never)
    with pytest.raises(ScenarioError, match="^Scenario: num_channels must be an integer, got "):
        sim.run(replace(EXAMPLE, num_channels=count), cfg=sim.SimConfig(100))
    with pytest.raises(ScenarioError, match="^Scenario: num_channels must be an integer, got "):
        tp.jacobi_best_response(replace(EXAMPLE, num_channels=count))
