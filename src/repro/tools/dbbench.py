"""db_bench-style CLI over the simulated systems.

Examples::

    python -m repro.tools.dbbench --benchmarks fillrandom,readrandom \
        --system p2kvs --workers 8 --threads 16 --num 20000

    python -m repro.tools.dbbench --system rocksdb --device hdd \
        --benchmarks fillseq,readseq --num 5000 --json results.json

Mirrors the db_bench modes the paper uses (Section 5.1): fillseq,
fillrandom, overwrite, readseq, readrandom, scan.  Prints one row per
benchmark with QPS, latency percentiles, write amplification and device
utilization; optionally dumps machine-readable JSON.
"""

import argparse
from typing import List, Optional

from repro.harness import preload
from repro.harness.report import format_qps
from repro.perf import zones as _perf_zones
from repro.systems import format_system_options
from repro.tools.common import (
    ObservedRun,
    add_machine_args,
    add_system_args,
    observability_parent,
    open_system_from_args,
    run_cases,
)
from repro.workloads import (
    fillrandom,
    fillseq,
    overwrite,
    readrandom,
    readseq,
    scans,
    split_stream,
)

BENCHMARKS = ("fillseq", "fillrandom", "overwrite", "readseq", "readrandom", "scan")

#: entries per scan of the ``scan`` benchmark.
SCAN_SIZE = 100

#: benchmarks that need a preloaded dataset before the measured phase.
NEEDS_PRELOAD = {"overwrite", "readseq", "readrandom", "scan"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.dbbench",
        description="db_bench-style benchmarks on the simulated machine",
        parents=[observability_parent()],
        epilog=format_system_options(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--benchmarks",
        default="fillrandom,readrandom",
        help="comma-separated list from: %s" % ", ".join(BENCHMARKS),
    )
    parser.add_argument("--num", type=int, default=10000, help="ops per benchmark")
    parser.add_argument("--value-size", type=int, default=112)
    add_system_args(parser)
    add_machine_args(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    return parser


def _ops_for(name: str, args):
    n, size, seed = args.num, args.value_size, args.seed
    if name == "fillseq":
        return fillseq(n, size)
    if name == "fillrandom":
        return fillrandom(n, size, seed)
    if name == "overwrite":
        return overwrite(n, key_space=n, value_size=size, seed=seed)
    if name == "readseq":
        return readseq(n)
    if name == "readrandom":
        return readrandom(n, key_space=n, seed=seed)
    if name == "scan":
        return scans(max(1, n // SCAN_SIZE), n, SCAN_SIZE, seed)
    raise SystemExit("unknown benchmark %r (choose from %s)" % (name, BENCHMARKS))


def run_benchmark(name: str, args, multiple: bool = False) -> dict:
    run = ObservedRun.from_args(args, name, multiple)
    system = open_system_from_args(run.env, args)
    if name in NEEDS_PRELOAD:
        preload(run.env, system, fillrandom(args.num, args.value_size, args.seed), 8)
    _p = _perf_zones.PROFILER
    if _p is not None:
        _p.enter("harness.workload")
    streams = split_stream(_ops_for(name, args), args.threads)
    if _p is not None:
        _p.leave()
    metrics = run.closed_loop(system, streams)
    result = {
        "benchmark": name,
        "system": system.name,
        "threads": args.threads,
        "ops": metrics.n_ops,
        "qps": metrics.qps,
        "avg_latency_us": metrics.avg_latency * 1e6,
        "p99_latency_us": metrics.p99_latency * 1e6,
        "write_amplification": metrics.write_amplification,
        "bandwidth_utilization": metrics.bandwidth_utilization,
        "cpu_cores_busy": metrics.cpu_utilization,
        "simulated_seconds": metrics.elapsed,
    }
    # Present only when a fault policy produced typed per-op failures, so
    # fault-free results stay byte-identical.
    if "errors" in metrics.extra:
        result["errors"] = metrics.extra["errors"]
    return run.export(result)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cases(
        args,
        [b.strip() for b in args.benchmarks.split(",") if b.strip()],
        BENCHMARKS,
        "benchmark",
        run_benchmark,
        "system=%s threads=%d num=%d value=%dB device=%s cores=%d"
        % (args.system, args.threads, args.num, args.value_size, args.device,
           args.cores),
        [
            ("benchmark", lambda r: r["benchmark"]),
            ("throughput", lambda r: format_qps(r["qps"])),
            ("avg us", lambda r: "%.1f" % r["avg_latency_us"]),
            ("p99 us", lambda r: "%.1f" % r["p99_latency_us"]),
            ("write amp", lambda r: "%.2f" % r["write_amplification"]),
            ("bw util", lambda r: "%.1f%%" % (100 * r["bandwidth_utilization"])),
            ("busy cores", lambda r: "%.1f" % r["cpu_cores_busy"]),
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
