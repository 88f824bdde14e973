"""One workload in one fresh, single-threaded process.

Prints ``READY`` as soon as ``uavlink`` is imported and the workload's
inputs are built (``run.py`` times set-up up to that line), then
measures the machine's slowness (``calibration.py``), runs operations
for ``--seconds`` and prints one JSON line with the per-operation
records, the correctness tally, peak memory and, with ``--trace 1``, the
tracer's per-function aggregates.  Each record carries the mean slowness
measured just before and just after its operation.

With ``--trace 1`` even operations run untraced and odd ones traced, so
both halves see the same mix of inputs and their ratio is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import uavlink

    origin = Path(uavlink.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"uavlink was imported from {origin}, not from {SRC}")
    return uavlink


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    uavlink = _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)

    import calibration

    # importing is interpreter work whatever the workload
    setup_slowness = statistics.median(
        calibration.slowness({"interpreter": 1.0}) for _ in range(3)
    )
    if args.setup_only:
        print(json.dumps({"setup_slowness": setup_slowness}), flush=True)
        return 0

    import numpy
    import scipy

    from tracer import Tracer

    refs = workloads.load_refs(args.workload)
    cache_info = getattr(getattr(uavlink.channel, "_rician_truncated_moment", None), "cache_info", None)
    tracer = Tracer() if args.trace else None
    cache_delta = [0, 0]
    records, failures = [], []
    attempted = failed = 0

    def slowness():
        return calibration.slowness(workload.calibration)

    slowness_before = slowness()
    start = time.perf_counter()
    i = 0
    # The pooled (referenced) inputs are operations 0 and 1; a traced run also
    # needs both of simulate's scenarios in each half, which takes four.
    min_ops = 4 if tracer is not None else 2
    while i < min_ops or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        before = cache_info() if traced and cache_info else None
        try:
            if traced:
                with tracer.installed():
                    record, out = workload.run(i)
            else:
                record, out = workload.run(i)
            slowness_after = slowness()
            if before is not None:
                after = cache_info()
                cache_delta[0] += after.hits - before.hits
                cache_delta[1] += after.misses - before.misses
            failed_units = workload.check(i, out, refs)
        except Exception as exc:  # one failed operation; the run goes on and reports it
            attempted += 1
            failed += 1
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        record.update(op=i, traced=traced, slowness=0.5 * (slowness_before + slowness_after))
        slowness_before = slowness_after
        records.append(record)
        attempted += record["units"]
        failed += len(failed_units)
        failures.extend(f"op {i}: {message}" for message in failed_units.values())
        i += 1

    result = {
        "records": records,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_slowness": setup_slowness,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        if cache_info is None:
            print("note: channel._rician_truncated_moment has no cache_info; hit ratio reads 0",
                  file=sys.stderr)
        result["trace"] = {
            "stats": tracer.stats,
            "err_ratio_max": tracer.err_ratio_max,
            "cache_hits_misses": cache_delta,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
