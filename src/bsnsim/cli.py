"""Command-line entry point: run, compare, dump-routes, trace."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bridging import Direct, ViaBridge
from .core import US_PER_S, ticks_from_seconds
from .metrics import RunMetrics, aggregate
from .runner import (compare_protocols, protocol_settings, run_one,
                     run_replications)
from .scenario import Scenario, ScenarioError, load_scenario


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def write_run_csv(metrics: RunMetrics, path: Path) -> None:
    lines = ["metric,class,value"]
    for (metric, qual), value in sorted(metrics.metric_values().items()):
        lines.append(f"{metric},{qual},{_fmt(value)}")
    path.write_text("\n".join(lines) + "\n")


def write_aggregate_csv(aggregates: dict, path: Path) -> None:
    lines = ["protocol,metric,class,mean,std,min,max,n"]
    for protocol in sorted(aggregates):
        agg = aggregates[protocol]
        for (metric, qual), s in sorted(agg.stats.items()):
            lines.append(f"{protocol},{metric},{qual},{_fmt(s.mean)},"
                         f"{_fmt(s.std)},{_fmt(s.min)},{_fmt(s.max)},{s.n}")
    path.write_text("\n".join(lines) + "\n")


def write_report(aggregates: dict, ordering: list[str], path: Path) -> None:
    blocks = []
    for protocol in sorted(aggregates):
        agg = aggregates[protocol]
        lines = [f"protocol: {protocol}", f"  replications: {agg.n_runs}"]
        for (metric, qual), s in sorted(agg.stats.items()):
            lines.append(f"  {metric}[{qual}]:")
            lines.append(f"    mean: {_fmt(s.mean)}")
            lines.append(f"    std: {_fmt(s.std)}")
            lines.append(f"    min: {_fmt(s.min)}")
            lines.append(f"    max: {_fmt(s.max)}")
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks)
    if ordering:
        text += "\n\nordering:\n" + "\n".join(f"  {line}" for line in ordering)
    path.write_text(text + "\n")


def _load(args) -> Scenario:
    """The scenario, with overrides, checked against each protocol named."""
    scenario = load_scenario(args.scenario)
    if getattr(args, "until", None) is not None:
        scenario.horizon = ticks_from_seconds(args.until)
    if getattr(args, "reps", None) is not None:
        scenario.replications = args.reps
    named = args.protocols if "protocols" in args else [args.protocol]
    for protocol in named:
        try:
            protocol_settings(scenario, protocol)
        except ValueError as exc:
            raise ScenarioError(f"{protocol}: {exc}") from exc
    return scenario


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    scenario = _load(args)
    out = _outdir(args)
    seeds = [args.seed] if args.seed is not None else scenario.seeds()
    runs = run_replications(scenario, args.protocol, seeds=seeds,
                            workers=args.workers)
    for metrics in runs:
        write_run_csv(metrics, out / f"run_{args.protocol}_{metrics.seed}.csv")
    agg = aggregate(runs)
    write_aggregate_csv({args.protocol: agg},
                        out / f"aggregate_{args.protocol}.csv")
    pdr = agg.get("pdr", "all")
    if pdr is not None:
        print(f"{args.protocol}: pdr mean={_fmt(pdr.mean)} std={_fmt(pdr.std)} "
              f"n={pdr.n}")
    else:
        print(f"{args.protocol}: no traffic generated")
    print(f"wrote {len(runs)} run CSVs to {out}")
    return 0


def cmd_compare(args) -> int:
    scenario = _load(args)
    out = _outdir(args)
    result = compare_protocols(scenario, args.protocols, workers=args.workers)
    write_aggregate_csv(result["aggregates"], out / "aggregate.csv")
    write_report(result["aggregates"], result["ordering"], out / "report.txt")
    for line in result["ordering"]:
        if line.startswith("pdr[") or line.startswith("emergency_delay"):
            print(line)
    print(f"wrote {out / 'aggregate.csv'} and {out / 'report.txt'}")
    return 0


def cmd_dump_routes(args) -> int:
    scenario = load_scenario(args.scenario)
    print("src,dst,route_kind,ingress,bridge,egress")
    for (src, dst), route in scenario.routes.items():
        if isinstance(route, Direct):
            print(f"{src},{dst},direct,{route.channel},,{route.channel}")
        elif isinstance(route, ViaBridge):
            print(f"{src},{dst},via_bridge,{route.ingress},{route.bridge},"
                  f"{route.egress}")
        else:
            print(f"{src},{dst},no_route,,,")
    return 0


def cmd_trace(args) -> int:
    scenario = _load(args)
    out = _outdir(args)
    metrics = run_one(scenario, args.protocol, args.seed, trace=True)
    trace_path = out / f"trace_{args.protocol}_{args.seed}.txt"
    trace_path.write_text("\n".join(metrics.trace_lines) + "\n")
    write_run_csv(metrics, out / f"run_{args.protocol}_{args.seed}.csv")
    print(f"wrote {trace_path} ({len(metrics.trace_lines)} dispatches)")
    return 0


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 1 / US_PER_S <= value < math.inf:  # at least one tick
        raise argparse.ArgumentTypeError(f"must be at least 1e-06, got {text}")
    return value


def _protocol_list(text: str) -> list[str]:
    protocols = [p.strip() for p in text.split(",") if p.strip()]
    repeated = sorted({p for p in protocols if protocols.count(p) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"listed more than once: {', '.join(repeated)}")
    if len(protocols) < 2:
        raise argparse.ArgumentTypeError(
            f"need >= 2 protocols to compare, got {len(protocols)}")
    return protocols


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsnsim",
        description="Body sensor network MAC simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run replications of one protocol")
    run.add_argument("--scenario", required=True)
    run.add_argument("--protocol", required=True)
    # one run of the seed, or the scenario's first `reps` seeds
    one_or_reps = run.add_mutually_exclusive_group()
    one_or_reps.add_argument("--seed", type=int, default=None)
    one_or_reps.add_argument("--reps", type=_at_least_one, default=None)
    run.add_argument("--until", type=_positive_seconds, default=None,
                     help="horizon override in seconds")
    run.add_argument("--out", default=None)
    run.add_argument("--workers", type=_at_least_one, default=1)
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="paired-seed protocol comparison")
    cmp_.add_argument("--scenario", required=True)
    cmp_.add_argument("--protocols", type=_protocol_list, required=True,
                      help="comma-separated protocol list")
    cmp_.add_argument("--reps", type=_at_least_one, default=None)
    cmp_.add_argument("--until", type=_positive_seconds, default=None)
    cmp_.add_argument("--out", default=None)
    cmp_.add_argument("--workers", type=_at_least_one, default=1)
    cmp_.set_defaults(fn=cmd_compare)

    routes = sub.add_parser("dump-routes", help="print resolved routes as CSV")
    routes.add_argument("--scenario", required=True)
    routes.set_defaults(fn=cmd_dump_routes)

    trace = sub.add_parser("trace", help="event-trace dump for determinism diffs")
    trace.add_argument("--scenario", required=True)
    trace.add_argument("--protocol", default="csma802154")
    trace.add_argument("--seed", type=int, required=True)
    trace.add_argument("--until", type=_positive_seconds, default=None)
    trace.add_argument("--out", default=None)
    trace.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
