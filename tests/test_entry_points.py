"""Where values enter the package: every threshold is checked by one rule, and
every public function has a caller outside the tests."""

import ast
import math
from pathlib import Path

import pytest

from uavlink import channel as ch
from uavlink import interference as itf
from uavlink import presets as ps
from uavlink import throughput as tp
from uavlink.channel import LinkChannel, Rayleigh, Rician
from uavlink.errors import DomainError
from uavlink.interference import ZERO_INTERFERENCE, InterfererLink, NoiseModel
from uavlink.scenario_io import scenario_from_mapping
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
