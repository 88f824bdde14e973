"""Benchmark of uavlink: set-up, memory and throughput of three workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # sweep, optimize and simulate

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` a traced run's
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
exit code is 1 when any output failed its correctness check.  The
package is imported from ``src/`` next to this directory; without it the
benchmark exits 2 before measuring anything.

Every workload runs in its own fresh, single-threaded process
(``worker.py``).  Set-up is timed from spawning such a process until it
has imported ``uavlink`` and built its inputs, several times per run.
Timings are divided by the machine slowness of ``calibration.py``; the
report prints the raw figures beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"

WORKLOADS = ("sweep", "optimize", "simulate")
SETUP_SAMPLES = 5  # fresh processes per untraced run: set-up probes plus the measuring worker
IMPORT_SAMPLES = 3  # `python -X importtime` probes per traced run
PROBE_DEADLINE_S = 60
WORKER_GRACE_S = 100  # beyond --seconds: set-up, the last operation and its checks

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
WORK_UNIT = {
    "sweep": "sweep_rows_per_s: preset rows evaluated per second",
    "optimize": "node solves per second: a node's beta_bounds or one best-response update",
    "simulate": "sim_node_slots_per_s: simulated slots x nodes per second",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metrics.  A name without a function (``queueing``) covers every
# public function of that module.  Self time is reported as a share of the
# traced operations' wall time, so a layer that a workload leaves idle reads 0.
LAYER_CALLS = (
    "specfun.integrate", "specfun.regularized_gamma_upper", "specfun.bessel_i0_scaled",
    "specfun.marcum_q1", "channel.fading_pdf", "channel.fading_cdf", "channel.build_link",
    "queueing.p_delay", "queueing.p_overflow", "interference.fit_interference",
    "interference.p_error", "interference.interference_ccdf", "throughput.evaluate_view",
    "throughput.source_view", "throughput.loss_derivative",
)
LAYER_SELF = (
    "specfun", "specfun.integrate", "channel", "channel.truncated_power_moment", "queueing",
    "interference", "interference.p_error", "throughput", "throughput.evaluate_view",
    "throughput.loss_derivative", "throughput.beta_lower", "simulator", "scenario_io",
    "presets", "presets.run_preset",
)
LAYER_UNITS = {
    **{f"{name}.calls": "calls/op" for name in LAYER_CALLS},
    **{f"{name}.self_share": "ratio" for name in LAYER_SELF},
    "specfun.integrate.err_ratio_max": "ratio",
    "channel.moment_cache.hit_ratio": "ratio",
    "throughput.best_response.iterations": "count/op",
    "throughput.best_response.converged": "ratio",
    "simulator.transmissions": "count/op",
    "simulator.conservation_residual": "count",
    "setup.import_s": "s",
    "setup.import.scipy_integrate_share": "ratio",
    "setup.import.scipy_stats_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
    "trace.op_ms": "ms/op",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to measuring a wrong output)."""


def _child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


def _spawn_worker(args: list[str], deadline_s: float) -> tuple[float, dict]:
    """Run ``worker.py``; return seconds until it printed READY, and its final JSON."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(deadline_s, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} failed (exit code {code})")
    return setup_s, json.loads(lines[-1])


def _import_times() -> dict[str, float]:
    """Cumulative import seconds per module of ``import uavlink``, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import uavlink"],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=PROBE_DEADLINE_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import uavlink failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative


def _timing(values: list[float], unit: str = "s") -> str:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(values)
    text = f"median {statistics.median(values):.4g} {unit}"
    tail = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), None)
    if tail is not None:
        value = statistics.quantiles(values, n=1000, method="inclusive")[round(tail * 10) - 1]
        text += f", p{tail:g} {value:.4g} {unit}"
    return text + f", n={n}"


def _groups(records: list[dict]) -> dict:
    groups: dict = {}
    for record in records:
        groups.setdefault(record.get("kind"), []).append(record)
    return groups


def _work_rate(records: list[dict], scaled: bool = True) -> float:
    """Work per second from the median time per unit of work of each kind of operation.

    With one kind this is the median rate over operations; with several
    (simulate's two scenarios) each kind weighs by its work per operation,
    so a different mix of kinds in a run does not move the figure.  Times
    are divided by the machine slowness measured beside each operation
    unless ``scaled`` is false.
    """
    work = time_s = 0.0
    for group in _groups(records).values():
        mean_work = statistics.fmean(r["work"] for r in group)
        work += mean_work
        time_s += mean_work * statistics.median(
            r["seconds"] / r["work"] / (r["slowness"] if scaled else 1.0)
            for r in group
        )
    return work / time_s


def _overhead_ratio(records: list[dict]) -> float:
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    kinds = set(_groups(untraced)) & set(_groups(traced))
    untraced = [r for r in untraced if r.get("kind") in kinds]
    traced = [r for r in traced if r.get("kind") in kinds]
    return _work_rate(untraced) / _work_rate(traced)


def _layer_metrics(result: dict, imports: list[dict]) -> dict:
    """Per-layer numbers of a traced run, normalised per traced operation."""
    records = result["records"]
    traced = [r for r in records if r["traced"]]
    ops = len(traced)
    traced_s = sum(r["seconds"] for r in traced)
    stats = result["trace"]["stats"]
    hits, misses = result["trace"]["cache_hits_misses"]
    uavlink_s = statistics.median(t["uavlink"] for t in imports)
    metrics = {f"{name}.calls": stats.get(name, [0])[0] / ops for name in LAYER_CALLS}
    for layer in LAYER_SELF:
        self_s = sum(s[2] for name, s in stats.items() if name == layer or name.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = self_s / traced_s
    metrics.update({
        "specfun.integrate.err_ratio_max": result["trace"]["err_ratio_max"],
        "channel.moment_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "throughput.best_response.iterations": sum(r.get("iterations", 0) for r in traced) / ops,
        "throughput.best_response.converged": sum(bool(r.get("converged")) for r in traced) / ops,
        "simulator.transmissions": sum(r.get("transmissions", 0) for r in traced) / ops,
        "simulator.conservation_residual": sum(r.get("conservation_residual", 0) for r in records),
        "setup.import_s": uavlink_s,
        "setup.import.scipy_integrate_share":
            statistics.median(t.get("scipy.integrate", 0.0) for t in imports) / uavlink_s,
        "setup.import.scipy_stats_share":
            statistics.median(t.get("scipy.stats", 0.0) for t in imports) / uavlink_s,
        "trace.overhead_ratio": _overhead_ratio(records),
        "trace.ops": ops,
        "trace.op_ms": 1e3 * traced_s / ops,
    })
    return metrics


def _report_e2e(workload: str, records: list[dict], metrics: dict, setups: list[float]) -> None:
    slowness = statistics.median(r["slowness"] for r in records)
    print(f"  slowness     median {slowness:.4g} (1 on the reference machine); scaled "
          f"figures are raw ones divided by it")
    print(f"  setup_s      {metrics['setup_s']:.4f} s scaled ({_timing(setups)} raw, "
          f"fresh processes)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  work_per_s   {metrics['work_per_s']:.6g} 1/s scaled, "
          f"{_work_rate(records, scaled=False):.6g} 1/s raw ({WORK_UNIT[workload]})")
    if workload == "optimize":
        print(f"  br_sweep_s   {_timing([r['br_sweep_s'] for r in records])} per best-response sweep")
        print(f"  bounds_s     {_timing([r['bounds_s'] for r in records])} for every node's beta_bounds")
    for kind, group in _groups(records).items():
        label = f"{kind} op" if kind else "op"
        print(f"  {label:<12} {_timing([r['seconds'] for r in group])}; "
              f"{statistics.fmean(r['work'] for r in group):.6g} work units each")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> bool:
    """Measure one workload, print its report and JSON line, and return whether it was correct."""
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))]
    imports = [_import_times() for _ in range(IMPORT_SAMPLES)] if trace else []
    probes = []
    if not trace:
        probes = [
            _spawn_worker(["--workload", workload, "--seed", str(seed), "--setup-only"],
                          PROBE_DEADLINE_S)
            for _ in range(SETUP_SAMPLES - 1)
        ]
    setup_s, result = _spawn_worker(worker_args, seconds + WORKER_GRACE_S)
    probes.append((setup_s, result))
    setups = [s for s, _ in probes]
    scaled_setups = [s / r["setup_slowness"] for s, r in probes]

    records = result["records"]
    untraced = [r for r in records if not r["traced"]]
    if not untraced or (trace and len(untraced) == len(records)):
        raise BenchError(f"{workload}: too few operations completed: {result['failures']}")
    versions = result["versions"]
    print(f"== {workload}: seed {seed}, {seconds} s, trace {int(trace)} ==")
    print(f"  environment  python {versions['python']}, numpy {versions['numpy']}, "
          f"scipy {versions['scipy']}, nproc {os.cpu_count()}, "
          + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    failed_ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio {failed_ratio:.6g} ({result['failed']} of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"    FAILED {failure}")

    if trace:
        layers = _layer_metrics(result, imports)
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in sorted(layers.items())}
        for name, entry in metrics.items():
            print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    else:
        values = {
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "work_per_s": _work_rate(untraced),
        }
        _report_e2e(workload, untraced, values, setups)
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}

    correct = result["failed"] == 0
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    print(json.dumps(line), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "uavlink" / "__init__.py").is_file():
        print(f"error: no uavlink package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    try:
        for name in names:
            correct = run_workload(name, args.seed, args.seconds, bool(args.trace))
            all_correct = all_correct and correct
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
