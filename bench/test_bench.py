"""Self-test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

Runs every workload for one second, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit, that no
operation fails on this code, and that the tracer leaves the package's
module attributes as it found them.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_no_failure(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        assert values["simulator.conservation_residual"] == 0
        assert values["trace.overhead_ratio"] > 0 and values["setup.import_s"] > 0
    else:
        assert all(value > 0 for value in values.values())


def test_tracer_restores_module_attributes():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import tracer
    import uavlink
    from uavlink import scenario_io, specfun, throughput

    def snapshot():
        return {
            (module.__name__, attr): value
            for module in tracer.package_namespaces()
            for attr, value in vars(module).items()
            if inspect.isfunction(value)
        }

    tracer.public_functions()  # imports every traced layer before the snapshot
    before = snapshot()
    scenario = scenario_io.load_scenario_file(ROOT / "scenarios" / "example.yaml")
    t = tracer.Tracer()
    with t.installed():
        assert specfun.integrate is not before[("uavlink.specfun", "integrate")]
        assert uavlink.load_scenario_file is not before[("uavlink", "load_scenario_file")]
        throughput.evaluate(scenario)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert t.stats["throughput.evaluate"][0] == 1
    assert t.stats["specfun.integrate"][0] >= 1
    calls, total, self_time = t.stats["throughput.evaluate"]
    assert 0.0 <= self_time <= total


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
