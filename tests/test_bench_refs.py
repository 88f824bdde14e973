"""The benchmark's pooled operations reproduce the references stored in ``bench/refs``.

Operations 0 and 1 of every workload take their inputs from the pinned pool,
so running them for seeds 0-7 checks each stored reference twice: the
simulator's counts bit for bit, the analytic rows and thresholds within the
benchmark's own tolerances.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def refs():
    return {name: workloads.load_refs(name) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pooled_operations_match_the_references(refs, name, seed):
    workload = workloads.WORKLOADS[name](seed)
    for i in (0, 1):
        _, out = workload.run(i)
        assert workload.check(i, out, refs[name]) == {}
