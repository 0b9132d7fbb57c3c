"""YCSB CLI over the simulated systems.

Examples::

    python -m repro.tools.ycsb --workload A --system p2kvs --workers 8 \
        --threads 32 --records 16000 --ops 10000

    python -m repro.tools.ycsb --workload LOAD,A,B,C --system rocksdb \
        --json ycsb.json

Runs the paper's Table 1 mixes (LOAD, A-F) against any supported system and
prints per-workload throughput and latency percentiles.
"""

import argparse
from typing import List, Optional

from repro.harness import preload
from repro.harness.report import format_qps
from repro.systems import format_system_options
from repro.tools.common import (
    ObservedRun,
    add_machine_args,
    add_system_args,
    observability_parent,
    open_system_from_args,
    run_cases,
)
from repro.workloads import WORKLOADS, YCSBWorkload, split_stream

WORKLOAD_NAMES = tuple(WORKLOADS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.ycsb",
        description="YCSB workloads (paper Table 1) on the simulated machine",
        parents=[observability_parent()],
        epilog=format_system_options(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload",
        default="A",
        help="comma-separated list from: %s" % ", ".join(WORKLOAD_NAMES),
    )
    parser.add_argument("--records", type=int, default=16000)
    parser.add_argument("--ops", type=int, default=10000)
    parser.add_argument("--value-size", type=int, default=112)
    add_system_args(parser, threads=16)
    add_machine_args(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH")
    return parser


def run_workload(name: str, args, multiple: bool = False) -> dict:
    run = ObservedRun.from_args(args, name, multiple)
    system = open_system_from_args(run.env, args)
    workload = YCSBWorkload(
        name, args.records, value_size=args.value_size, seed=args.seed
    )
    if name == "LOAD":
        ops = list(workload.load_ops())[: args.ops]
    else:
        preload(run.env, system, workload.load_ops(), n_threads=8)
        ops = workload.ops(args.ops)
    metrics = run.closed_loop(system, split_stream(ops, args.threads))
    return run.export(
        {
            "workload": name,
            "system": system.name,
            "threads": args.threads,
            "ops": metrics.n_ops,
            "qps": metrics.qps,
            "avg_latency_us": metrics.avg_latency * 1e6,
            "p99_latency_us": metrics.p99_latency * 1e6,
            "simulated_seconds": metrics.elapsed,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cases(
        args,
        [w.strip().upper() for w in args.workload.split(",") if w.strip()],
        WORKLOAD_NAMES,
        "workload",
        run_workload,
        "system=%s threads=%d records=%d ops=%d"
        % (args.system, args.threads, args.records, args.ops),
        [
            ("workload", lambda r: r["workload"]),
            ("throughput", lambda r: format_qps(r["qps"])),
            ("avg us", lambda r: "%.1f" % r["avg_latency_us"]),
            ("p99 us", lambda r: "%.1f" % r["p99_latency_us"]),
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
