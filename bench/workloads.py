"""The benchmark's workloads: inputs from a seed, one timed operation, its checks.

Each workload drives only the public API of ``uavlink``.  Operation ``i``
of a run with workload seed ``s`` is a pure function of ``(s, i)``.
Operations 0 and 1 take their placement and simulator seeds from the
pinned pool ``POOL``, so that every run, whatever its seed, is compared
against the references in ``refs/``; later operations use seeds derived
from ``(s, i)`` so that each one meets a new placement.

An operation is timed as a whole, and ``calibration`` weighs the loops of
``calibration.py`` that its time is scaled by.  Its checks run after the
clock stops:
invariants that hold on any seed, plus the stored reference when the
operation's inputs come from the pool.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import yaml

from uavlink import presets, scenario_io, simulator, throughput

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"
EXAMPLE = ROOT / "scenarios" / "example.yaml"

POOL = tuple(range(8))

SWEEP_PRESETS = ("fig2", "fig3", "fig4", "fig5")
SWEEP_RTOL = 1e-8  # the analytic-refactor gate of the sweep presets

BR_GRID = 64
BR_MAX_ITERS = 4
BOUNDS_ATOL = 1e-6  # bisection tolerance of throughput.beta_lower

SIM_SLOTS = 10_000
SIM_WARMUP = 1_000
SIM_REPLICATIONS = 3
SIM_KINDS = ("example", "fig2")
ANALYTIC_RTOL = 1e-8


def derived_seed(seed: int, i: int) -> int:
    """Placement or simulator seed of operation ``i``; pool entries for i < 2."""
    if i < 2:
        return POOL[(seed + i) % len(POOL)]
    digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=4).digest()
    return len(POOL) + int.from_bytes(digest, "little")


def pool_index(seed: int, i: int) -> int | None:
    """Index into the references of operation ``i``, or None if it has none."""
    return (seed + i) % len(POOL) if i < 2 else None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _prob(p: float) -> bool:
    return 0.0 <= p <= 1.0


def _example_document() -> dict:
    return yaml.safe_load(EXAMPLE.read_text(encoding="utf-8"))


class Sweep:
    """fig2-fig5 back to back on one placement; rows written as CSV."""

    name = "sweep"
    calibration = {"interpreter": 1.0}

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, i: int):
        placement = derived_seed(self.seed, i)
        start = time.perf_counter()
        out = {}
        for preset in SWEEP_PRESETS:
            columns, rows = presets.run_preset(preset, placement)
            buffer = io.StringIO()
            scenario_io.write_results(rows, buffer, columns)
            out[preset] = (columns, rows, buffer.getvalue())
        seconds = time.perf_counter() - start
        units = sum(len(rows) for _, rows, _ in out.values())
        return {"seconds": seconds, "work": units, "units": units}, out

    @staticmethod
    def reference(out) -> dict:
        return {
            preset: {"columns": cols, "rows": [[row[c] for c in cols] for row in rows]}
            for preset, (cols, rows, _) in out.items()
        }

    def check(self, i: int, out, refs) -> dict:
        failed: dict = {}
        placement = derived_seed(self.seed, i)
        for preset, (columns, rows, text) in out.items():
            rate = presets.preset_scenario(preset, placement).source().queue.arrival_rate
            if text.count("\n") != len(rows) + 1:
                failed.setdefault((preset, "csv"), f"{preset}: CSV has the wrong line count")
            for k, row in enumerate(rows):
                for column, value in row.items():
                    if not math.isfinite(value):
                        failed.setdefault((preset, k), f"{preset} row {k}: {column} = {value}")
                    elif column == "throughput" and not 0.0 <= value <= rate:
                        failed.setdefault((preset, k), f"{preset} row {k}: throughput {value} outside [0, {rate}]")
                    elif column in ("p_error", "queue_drop") and not _prob(value):
                        failed.setdefault((preset, k), f"{preset} row {k}: {column} {value} outside [0, 1]")
        index = pool_index(self.seed, i)
        if index is not None:
            self._compare(out, refs[index], failed)
        return failed

    @staticmethod
    def _compare(out, ref, failed: dict) -> None:
        for preset, (columns, rows, _) in out.items():
            expected = ref[preset]
            if columns != expected["columns"] or len(rows) != len(expected["rows"]):
                failed.setdefault((preset, "shape"), f"{preset}: columns or row count differ from reference")
                continue
            for k, (row, want) in enumerate(zip(rows, expected["rows"])):
                for column, value in zip(columns, want):
                    if not _close(row[column], value, SWEEP_RTOL):
                        failed.setdefault(
                            (preset, k),
                            f"{preset} row {k}: {column} {row[column]!r} != reference {value!r}",
                        )


class Optimize:
    """example.yaml on a seed-picked placement: bounds of every node, then best response."""

    name = "optimize"
    calibration = {"interpreter": 1.0}

    def __init__(self, seed: int):
        self.seed = seed
        self.document = _example_document()

    def run(self, i: int):
        placement = derived_seed(self.seed, i)
        start = time.perf_counter()
        scenario = scenario_io.scenario_from_mapping({**self.document, "placement_seed": placement})
        bounds = {
            node.id: throughput.beta_bounds(throughput.source_view(scenario, node_id=node.id))
            for node in scenario.nodes
        }
        bounds_done = time.perf_counter()
        result = throughput.jacobi_best_response(scenario, grid_size=BR_GRID, max_iters=BR_MAX_ITERS)
        br_done = time.perf_counter()
        rows = [
            {"iteration": entry["iteration"], "node": node_id, "beta": beta,
             "throughput": entry["throughput"][node_id]}
            for entry in result.trace
            for node_id, beta in entry["betas"].items()
        ]
        scenario_io.write_results(rows, io.StringIO(), ["iteration", "node", "beta", "throughput"])
        seconds = time.perf_counter() - start
        nodes = len(scenario.nodes)
        record = {
            "seconds": seconds,
            "work": nodes * (1 + result.iterations),
            "units": nodes * (1 + result.iterations),
            "bounds_s": bounds_done - start,
            "br_sweep_s": (br_done - bounds_done) / result.iterations,
            "iterations": result.iterations,
            "converged": result.converged,
        }
        return record, (scenario, bounds, result)

    @staticmethod
    def reference(out) -> dict:
        _, bounds, result = out
        return {
            "bounds": {node: [b.lower, b.upper] for node, b in bounds.items()},
            "betas": [entry["betas"] for entry in result.trace],
            "converged": result.converged,
        }

    def check(self, i: int, out, refs) -> dict:
        failed: dict = {}
        scenario, bounds, result = out
        for node in scenario.nodes:
            b = bounds[node.id]
            if not (math.isfinite(b.upper) and 0.0 <= b.lower <= b.upper):
                failed.setdefault(("bounds", node.id), f"bounds of {node.id}: {b}")
            grid = np.linspace(0.0, b.upper, BR_GRID)
            rate = node.queue.arrival_rate
            for entry in result.trace:
                unit = ("update", entry["iteration"], node.id)
                beta = entry["betas"][node.id]
                if not np.any(grid == beta):
                    failed.setdefault(unit, f"iteration {entry['iteration']}: {node.id} beta {beta!r} is not a grid point")
                if not 0.0 <= entry["throughput"][node.id] <= rate:
                    failed.setdefault(unit, f"iteration {entry['iteration']}: {node.id} throughput outside [0, {rate}]")
        if not 1 <= result.iterations <= BR_MAX_ITERS or len(result.trace) != result.iterations:
            failed.setdefault(("update", "count"), f"{result.iterations} iterations for cap {BR_MAX_ITERS}")
        index = pool_index(self.seed, i)
        if index is not None:
            self._compare(out, refs[index], failed)
        return failed

    @staticmethod
    def _compare(out, ref, failed: dict) -> None:
        _, bounds, result = out
        for node, (lower, upper) in ref["bounds"].items():
            b = bounds[node]
            if abs(b.lower - lower) > BOUNDS_ATOL or abs(b.upper - upper) > BOUNDS_ATOL:
                failed.setdefault(("bounds", node), f"bounds of {node} ({b.lower!r}, {b.upper!r}) != reference ({lower!r}, {upper!r})")
        got = [entry["betas"] for entry in result.trace]
        if got != ref["betas"] or result.converged != ref["converged"]:
            failed.setdefault(("update", "reference"), f"best-response thresholds {got} != reference {ref['betas']}")


class Simulate:
    """simulator.run beside throughput.evaluate, alternating example.yaml and fig2."""

    name = "simulate"
    calibration = {"interpreter": 0.4, "arrays": 0.6}

    def __init__(self, seed: int):
        self.seed = seed
        self.document = _example_document()

    @staticmethod
    def kind(i: int) -> str:
        # ex, fig2, fig2, ex, ex, fig2, ...: even and odd operations each alternate
        return SIM_KINDS[((i + 1) // 2) % 2]

    def _scenario(self, kind: str, placement: int):
        if kind == "example":
            return scenario_io.scenario_from_mapping({**self.document, "placement_seed": placement})
        return presets.preset_scenario("fig2", placement)

    def run(self, i: int):
        kind = self.kind(i)
        placement = derived_seed(self.seed, i)
        cfg = simulator.SimConfig(
            num_slots=SIM_SLOTS,
            seed=placement,
            warmup_slots=SIM_WARMUP,
            replication_count=SIM_REPLICATIONS,
        )
        start = time.perf_counter()
        scenario = self._scenario(kind, placement)
        result = simulator.run(scenario, cfg=cfg)
        analytic = throughput.evaluate(scenario)
        rows = [
            {"metric": name, "analytic": getattr(analytic, name),
             "empirical": getattr(result, name).value, "halfwidth": getattr(result, name).halfwidth}
            for name in ("p_delay", "p_overflow", "p_error", "throughput")
        ]
        scenario_io.write_results(rows, io.StringIO(), ["metric", "analytic", "empirical", "halfwidth"])
        seconds = time.perf_counter() - start
        record = {
            "seconds": seconds,
            "work": SIM_SLOTS * SIM_REPLICATIONS * len(scenario.nodes),
            "units": SIM_REPLICATIONS,
            "kind": kind,
            "transmissions": sum(c.transmissions for c in result.counts),
            "conservation_residual": sum(abs(_residual(c)) for c in result.counts),
        }
        return record, (scenario, result, analytic)

    @staticmethod
    def reference(out) -> dict:
        _, result, analytic = out
        return {
            "counts": [list(_counts(c)) for c in result.counts],
            "analytic": [analytic.p_delay, analytic.p_overflow, analytic.p_error,
                         analytic.p_loss, analytic.throughput],
        }

    def check(self, i: int, out, refs) -> dict:
        failed: dict = {}
        scenario, result, analytic = out
        for r, counts in enumerate(result.counts):
            if _residual(counts) != 0:
                failed.setdefault(r, f"replication {r}: conservation residual {_residual(counts)}")
            if not all(_prob(p) for p in (counts.p_overflow(), counts.p_delay(), counts.p_error())):
                failed.setdefault(r, f"replication {r}: probability outside [0, 1] in {counts}")
        rate = scenario.source().queue.arrival_rate
        probs = (analytic.p_delay, analytic.p_overflow, analytic.p_error, analytic.p_loss)
        composed = 1.0 - (1.0 - analytic.p_overflow) * (1.0 - analytic.p_delay) * (1.0 - analytic.p_error)
        if not all(_prob(p) for p in probs) or not math.isclose(analytic.p_loss, composed, abs_tol=1e-12):
            self._fail_all(failed, f"analytic probabilities inconsistent: {analytic}")
        if not math.isclose(analytic.throughput, rate * (1.0 - analytic.p_loss), rel_tol=1e-12, abs_tol=1e-12):
            self._fail_all(failed, f"analytic throughput {analytic.throughput} != lambda (1 - p_loss)")
        index = pool_index(self.seed, i)
        if index is not None:
            ref = refs[self.kind(i)][index]
            if len(result.counts) != len(ref["counts"]):
                self._fail_all(failed, f"{len(result.counts)} replications, reference has {len(ref['counts'])}")
            for r, (counts, want) in enumerate(zip(result.counts, ref["counts"])):
                if list(_counts(counts)) != want:
                    failed.setdefault(r, f"replication {r}: counts {counts} != reference {want}")
            got = Simulate.reference(out)["analytic"]
            if not all(_close(a, b, ANALYTIC_RTOL) for a, b in zip(got, ref["analytic"])):
                self._fail_all(failed, f"analytic breakdown {got} != reference {ref['analytic']}")
        return failed

    @staticmethod
    def _fail_all(failed: dict, message: str) -> None:
        for r in range(SIM_REPLICATIONS):
            failed.setdefault(r, message)


def _counts(c) -> tuple:
    return (c.arrivals, c.overflow_drops, c.delay_drops, c.error_drops, c.delivered,
            c.transmissions, c.queued_at_warmup, c.queued_at_end)


def _residual(c) -> int:
    """Conservation identity of ``ReplicationCounts``; 0 when every packet is accounted for."""
    return (c.arrivals + c.queued_at_warmup) - (
        c.delivered + c.delay_drops + c.error_drops + c.overflow_drops + c.queued_at_end
    )


WORKLOADS = {cls.name: cls for cls in (Sweep, Optimize, Simulate)}


def load_refs(name: str):
    return json.loads((REFS_DIR / f"{name}.json").read_text(encoding="utf-8"))
