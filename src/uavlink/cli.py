"""Command-line driver: evaluate, sweep, simulate, optimize.

Exit codes: 0 success, 1 usage, I/O or out-of-memory failure, 2 infeasible policy.
All commands are deterministic given their flags (seeds included).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from . import presets as ps
from . import simulator as sim
from . import throughput as tp
from .errors import ScenarioError, StabilityError, UavLinkError
from .scenario_io import Scenario, load_scenario_file, write_results

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

log = logging.getLogger("uavlink")


class _Parser(argparse.ArgumentParser):
    # exit-code contract reserves 2 for infeasibility; usage problems are 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_beta_overrides(pairs: list[str]) -> dict[str, float]:
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ScenarioError(f"--beta expects NODE=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ScenarioError(f"--beta {pair!r}: value is not a number") from None
    return overrides


def _load(path: str) -> Scenario:
    scenario = load_scenario_file(path)
    log.debug("loaded scenario %s: %d node(s)", path, len(scenario.nodes))
    return scenario


def _on_boundary(breakdown: tp.LossBreakdown) -> str | None:
    """Why a threshold on the stability boundary is infeasible, or None off it.

    There the deadline drop is certain; the bound itself still evaluates.
    """
    if breakdown.p_delay >= 1.0 - 1e-12:
        return "the threshold sits on the stability boundary (deadline drop probability is 1)"
    return None


def cmd_evaluate(args) -> int:
    scenario = _load(args.scenario)
    breakdown = tp.evaluate(scenario, _parse_beta_overrides(args.beta))
    row = {name: getattr(breakdown, name) for name in ps.BREAKDOWN_COLUMNS}
    if args.approx:
        row["throughput"] = tp.expected_throughput(
            scenario.source().queue.arrival_rate,
            breakdown.p_overflow + breakdown.p_delay + breakdown.p_error,
            approximate=True,
        )
    for name, value in row.items():
        print(f"{name:<10} = {value:.12g}")
    if args.out:
        write_results([row], args.out)
    infeasible = _on_boundary(breakdown)
    if infeasible is not None:
        print(f"infeasible: {infeasible}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.preset:
        axis = [f"--{name}" for name in ("scenario", "var", "values") if getattr(args, name)]
        if axis:
            raise ScenarioError(f"--preset pins the scenario and its axis; drop {', '.join(axis)}")
        columns, rows = ps.run_preset(args.preset, args.seed)
    else:
        if args.seed is not None:
            raise ScenarioError("--seed overrides a preset's placement; it needs --preset")
        if not args.scenario or not args.var or not args.values:
            raise ScenarioError("sweep needs either --preset or --scenario/--var/--values")
        scenario = _load(args.scenario)
        try:
            values = tuple(float(v) for v in args.values.split(","))
        except ValueError:
            raise ScenarioError(
                f"--values {args.values!r}: not a comma-separated list of numbers"
            ) from None
        columns, rows = ps.run_sweep(scenario, ps.SweepSpec(args.var, values))
    if args.out:
        write_results(rows, args.out, columns)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        write_results(rows, sys.stdout, columns)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args.scenario)
    policy = _parse_beta_overrides(args.beta)
    cfg = sim.SimConfig(
        num_slots=args.slots,
        seed=args.seed,
        warmup_slots=args.warmup,
        replication_count=args.replications,
    )
    result = sim.run(scenario, policy, cfg)
    analytic = None
    try:
        analytic = tp.evaluate(scenario, policy)
    except StabilityError as exc:  # the empirical columns are still reported
        infeasible = exc
    else:
        infeasible = _on_boundary(analytic)
    print(f"{'metric':<12}{'analytic':>16}{'empirical':>16}{'halfwidth':>14}{'gap':>14}")
    columns, rows = ["metric", "analytic", "empirical", "halfwidth", "gap"], []
    for name in ps.BREAKDOWN_COLUMNS:
        if not hasattr(result, name):
            continue  # the simulation estimates every component but the composed p_loss
        estimate = getattr(result, name)
        if analytic is not None:
            value = getattr(analytic, name)
            gap = abs(value - estimate.value)
            print(
                f"{name:<12}{value:>16.6g}{estimate.value:>16.6g}"
                f"{estimate.halfwidth:>14.3g}{gap:>14.3g}"
            )
        else:
            value = gap = math.nan
            print(f"{name:<12}{'n/a':>16}{estimate.value:>16.6g}{estimate.halfwidth:>14.3g}{'n/a':>14}")
        rows.append(dict(zip(columns, (name, value, estimate.value, estimate.halfwidth, gap))))
    if args.out:
        write_results(rows, args.out, columns)
    if infeasible is not None:
        print(f"infeasible: {infeasible}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_optimize(args) -> int:
    scenario = _load(args.scenario)
    result = tp.jacobi_best_response(
        scenario,
        grid_size=args.grid,
        tol=args.tol,
        max_iters=args.max_iters,
        objective=args.objective,
    )
    if result.cycle is not None:
        period, moving = result.cycle
        status = f"cycle (period {period}: {', '.join(moving)})"
    else:
        status = "converged" if result.converged else "not converged (last iterate returned)"
    print(f"status     = {status}")
    print(f"iterations = {result.iterations}")
    last = result.trace[-1]
    for node_id in sorted(result.policy.betas):
        print(
            f"node {node_id:<8} beta = {result.policy.get(node_id):<10.6g} "
            f"throughput = {last['throughput'][node_id]:.6g}"
        )
    if args.out:
        columns = ["iteration", "node", "beta", "throughput"]
        rows = [dict(zip(columns, (entry["iteration"], node, beta, entry["throughput"][node])))
                for entry in result.trace for node, beta in entry["betas"].items()]
        write_results(rows, args.out, columns)
        print(f"wrote trace ({len(rows)} rows) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uavlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_required=True):
        p.add_argument("--scenario", metavar="PATH", required=scenario_required,
                       help="scenario document (YAML)")
        p.add_argument("--out", metavar="PATH", help="write results to this file")

    p_eval = sub.add_parser("evaluate", help="loss breakdown of a scenario's source node")
    add_common(p_eval)
    p_eval.add_argument(
        "--beta", action="append", default=[], metavar="NODE=VALUE",
        help="override a node's threshold (repeatable)",
    )
    mode = p_eval.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="approx", action="store_false",
                      help="exact composed throughput (default)")
    mode.add_argument("--approx", dest="approx", action="store_true",
                      help="component-sum throughput approximation")
    p_eval.set_defaults(approx=False, func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="evaluate along a parameter axis or a preset")
    add_common(p_sweep, scenario_required=False)
    p_sweep.add_argument("--preset", choices=sorted(ps.PRESETS),
                         help="built-in sweep (pins the scenario)")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="placement seed override for presets")
    p_sweep.add_argument("--var", choices=ps.SWEEP_VARIABLES, help="sweep variable")
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo oracle vs the analytic model")
    add_common(p_sim)
    p_sim.add_argument("--beta", action="append", default=[], metavar="NODE=VALUE",
                       help="override a node's threshold (repeatable)")
    p_sim.add_argument("--slots", type=int, default=100_000, help="slots per replication")
    p_sim.add_argument("--replications", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--warmup", type=int, default=1000, help="slots discarded before counting")
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="Jacobi best-response over per-node thresholds")
    add_common(p_opt)
    p_opt.add_argument("--grid", type=int, default=64, help="candidate thresholds per node")
    p_opt.add_argument("--tol", type=float, default=1e-3, help="convergence tolerance on beta")
    p_opt.add_argument("--max-iters", type=int, default=50,
                       help="iteration cap of the best response, at least 1")
    p_opt.add_argument("--objective", choices=("own", "sum"), default="own",
                       help="best response on own throughput or the network sum")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("UAVLINK_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # a name maps to its number
        print(f"error: UAVLINK_LOG must name a log level, got {level!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "scenario", None) is not None and not Path(args.scenario).exists():
            print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except StabilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (UavLinkError, OSError, MemoryError) as exc:  # numpy's MemoryError names its array
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
