"""SLO benchmark for the sharded service plane.

Examples::

    python -m repro.tools.serve --shards 4
    python -m repro.tools.serve --scenario hotkey --json slo.json
    python -m repro.tools.serve --scenario migration --shards 4 \
        --trace-out service.json --stats
    python -m repro.tools.serve --scenario diurnal --csv slo.csv
    python -m repro.tools.serve --monitor --expect-clean
    python -m repro.tools.serve --fault-rate 0.02 --monitor-out monitor.json

Runs one of the pinned scenarios (see ``--scenario`` and
docs/SERVICE.md): N p2KVS shards behind a partition router, an open-loop
client population, bounded admission with load shedding.  Prints per-class
p50/p99/p999 latency at the offered load plus the goodput-versus-shed
ledger, and optionally writes the full report as deterministic JSON
(``--json``) and the per-shard ledger as CSV (``--csv``).

The report is a pure function of the arguments: rerunning with the same
flags — or any ``--schedule-seed`` — produces byte-identical files, which
``make smoke`` checks on every CI run.  The shared observability flags
(``--trace-out``, ``--stats``, ``--critpath``, ``--monitor``) and fault
injection (``--fault-rate``) all work unchanged: shards are ordinary p2KVS
deployments on one simulated machine.

With the health monitor on (``--monitor``, ``--monitor-out`` or
``--expect-clean``; docs/MONITOR.md) the run prints the incident narrative
and checks expectations: ``--expect-clean`` fails the run if any
page-severity alert fired, and a ``--fault-rate`` run fails if the injected
fault went undetected.
"""

import argparse
import sys
from typing import List, Optional

from repro.faults import FaultPolicy, install_faults
from repro.harness.report import format_table
from repro.monitor import render_narrative
from repro.service import (
    ServicePlane,
    build_scenario,
    build_slo_report,
    preload_plane,
    render_slo_csv,
    run_service_load,
    scenario_names,
)
from repro.service.scenarios import SCENARIOS
from repro.tools.common import (
    ObservedRun,
    add_machine_args,
    finish_profile,
    observability_parent,
    print_artifacts,
    start_profile,
    write_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description="SLO benchmark for the sharded p2KVS service plane",
        parents=[observability_parent(monitor=True)],
        epilog="scenarios: "
        + "; ".join("%s — %s" % (n, SCENARIOS[n]) for n in scenario_names()),
    )
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="uniform",
        help="pinned scenario to run (default: uniform)",
    )
    parser.add_argument("--shards", type=int, default=4, help="p2kvs instances")
    parser.add_argument(
        "--partitions",
        type=int,
        default=32,
        help="partition count (several per shard keeps moves cheap)",
    )
    parser.add_argument("--ops", type=int, default=1500, help="offered requests")
    parser.add_argument(
        "--rate",
        type=float,
        default=1000000.0,
        help="nominal offered rate, ops/second of simulated time",
    )
    parser.add_argument("--key-space", type=int, default=800, help="distinct keys")
    parser.add_argument("--value-size", type=int, default=100)
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=48,
        help="admission queue bound per shard; arrivals beyond it are shed",
    )
    parser.add_argument(
        "--dispatchers", type=int, default=4, help="dispatcher threads per shard"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="p2kvs workers per shard"
    )
    add_machine_args(parser)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-IO transient fault probability injected during the "
        "measured window (see docs/FAULTS.md); failed ops surface as "
        "per-shard error counts",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="fault injection RNG seed"
    )
    parser.add_argument(
        "--expect-clean",
        action="store_true",
        help="attach the monitor and exit non-zero if any page-severity "
        "alert fired (the clean pinned scenarios must raise none)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the SLO report as JSON")
    parser.add_argument(
        "--csv", metavar="PATH", help="write the per-shard ledger as CSV"
    )
    return parser


def run_scenario(args) -> dict:
    run = ObservedRun.from_args(args)
    env = run.env
    spec = build_scenario(
        args.scenario,
        n_ops=args.ops,
        rate=args.rate,
        key_space=args.key_space,
        value_size=args.value_size,
        seed=args.seed,
    )
    plane = ServicePlane(
        env,
        n_shards=args.shards,
        n_partitions=args.partitions,
        queue_cap=args.queue_cap,
        n_dispatchers=args.dispatchers,
        key_space=args.key_space,
        system_opts=dict(workers=args.workers),
    )
    preload_plane(env, plane, spec["preload"])
    if args.fault_rate > 0.0:
        # Faults arm only after the (clean) preload: the scenario injects
        # into the measured window, not into dataset loading.
        install_faults(
            env,
            policy=FaultPolicy(args.fault_seed, error_rate=args.fault_rate),
            seed=args.fault_seed,
        )
    if args.monitor or args.monitor_out or args.expect_clean:
        run.attach_monitor(args.monitor_window_ms, plane)
    t0 = env.sim.now
    run_facts = run_service_load(
        env,
        plane,
        spec["ops"],
        spec["arrivals"],
        rebalance_at=spec["rebalance_at"],
        rebalance_moves=spec["rebalance_moves"],
        monitor=run.monitor,
    )
    run.close_window(t0, run_facts["makespan"])
    report = build_slo_report(plane, run_facts, spec)
    report["shards_opened"] = plane.shard_names()
    if run.monitor is not None:
        report.update(run.score_monitor(args.scenario))
    report["_artifacts"] = run.export({})
    return report


def _print_report(report: dict) -> None:
    print(
        "scenario=%s shards=%d partitions=%d ops=%d rate=%s"
        % (
            report["scenario"],
            report["directory"]["n_shards"],
            report["directory"]["n_partitions"],
            report["params"]["n_ops"],
            report["arrivals"].get("rate", report["arrivals"].get("peak_rate")),
        )
    )
    print(
        "offered=%d admitted=%d shed=%d (%.2f%%) completed=%d errors=%d "
        "goodput=%.0f ops/s makespan=%.3f ms"
        % (
            report["offered"],
            report["admitted"],
            report["shed"],
            100.0 * report["shed_rate"],
            report["completed"],
            report["errors"],
            report["goodput_ops_per_s"],
            1e3 * report["makespan_s"],
        )
    )
    rows = []
    for cls in ("read", "write", "rmw"):
        summary = report["latency"][cls]
        if not summary["count"]:
            continue
        rows.append(
            [
                cls,
                "%d" % summary["count"],
                "%.1f" % summary["mean_us"],
                "%.1f" % summary["p50_us"],
                "%.1f" % summary["p99_us"],
                "%.1f" % summary["p999_us"],
                "%.1f" % summary["max_us"],
            ]
        )
    print()
    print(
        format_table(
            ["class", "count", "mean us", "p50 us", "p99 us", "p999 us", "max us"],
            rows,
        )
    )
    print()
    shard_rows = [
        [
            "%d" % row["shard"],
            row["instance"],
            "%d" % row["admitted"],
            "%d" % row["shed"],
            "%d" % row["rebalance_shed"],
            "%d" % row["completed"],
            "%d" % row["errors"],
            "%d" % row["queue_max_depth"],
            "%d" % len(row["partitions"]),
        ]
        for row in report["per_shard"]
    ]
    print(
        format_table(
            [
                "shard",
                "instance",
                "admitted",
                "shed",
                "rb-shed",
                "completed",
                "errors",
                "max depth",
                "partitions",
            ],
            shard_rows,
        )
    )
    for move in report["moves"]:
        print(
            "moved partition %d: shard %d -> shard %d"
            % (move["partition"], move["from_shard"], move["to_shard"])
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        print("need at least one shard", file=sys.stderr)
        return 2
    profiler = start_profile(args)
    report = run_scenario(args)
    finish_profile(args, profiler)
    artifacts = report.pop("_artifacts")
    _print_report(report)
    if "health" in report:
        print()
        print(render_narrative(report["health"], report.get("detection")))
    print_artifacts(artifacts)
    if args.json:
        write_report(report, args.json)
        print("wrote %s" % args.json)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render_slo_csv(report))
        print("wrote %s" % args.csv)
    status = 0
    if "health" in report:
        pages = report["health"]["alerts"]["page"]
        if args.expect_clean and pages > 0:
            print("FAIL: expected a clean run, %d page(s) fired" % pages, file=sys.stderr)
            status = 1
        detection = report["detection"]
        if detection["ground_truth"] is not None and not detection["detected"]:
            print("FAIL: injected fault was not detected", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
