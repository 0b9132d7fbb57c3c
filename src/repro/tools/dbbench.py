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
import json
import sys
from typing import List, Optional

from repro.harness import preload, run_closed_loop
from repro.systems import describe_options, format_system_options
from repro.systems import open_system as open_named_system
from repro.systems import system_names
from repro.critpath import install_edgelog
from repro.harness.report import format_attribution, format_blame_table, format_qps, format_table
from repro.perf import zones as _perf_zones
from repro.tools.common import (
    DEVICES,
    add_critpath_args,
    add_profile_args,
    add_stats_args,
    check_sanitizer,
    critpath_trace_extras,
    export_critpath,
    export_stats,
    finish_profile,
    install_stats_if_requested,
    make_env_from_args,
    observability_parent,
    start_profile,
    trace_path,
)
from repro.trace import install_tracer, write_chrome_trace
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
SYSTEMS = tuple(system_names())

#: benchmarks that need a preloaded dataset before the measured phase.
NEEDS_PRELOAD = {"overwrite", "readseq", "readrandom", "scan"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.dbbench",
        description="db_bench-style benchmarks on the simulated machine",
        # The shared observability/determinism flag group (--trace-out,
        # --stats*, --critpath*, --sanitize, --profile*, --schedule-seed)
        # comes from the one argparse parent in repro.tools.common.
        parents=[observability_parent()],
        epilog=format_system_options(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--benchmarks",
        default="fillrandom,readrandom",
        help="comma-separated list from: %s" % ", ".join(BENCHMARKS),
    )
    parser.add_argument("--system", choices=SYSTEMS, default="rocksdb")
    parser.add_argument("--num", type=int, default=10000, help="ops per benchmark")
    parser.add_argument("--threads", type=int, default=8, help="user threads")
    parser.add_argument("--workers", type=int, default=8, help="p2kvs/kvell/multi workers")
    parser.add_argument("--value-size", type=int, default=112)
    parser.add_argument("--scan-size", type=int, default=100)
    parser.add_argument("--cores", type=int, default=44, help="simulated CPU cores")
    parser.add_argument("--device", choices=sorted(DEVICES), default="nvme")
    parser.add_argument(
        "--page-cache-mb",
        type=float,
        default=None,
        help="OS page cache size in MB (default: effectively unlimited)",
    )
    parser.add_argument("--no-obm", action="store_true", help="disable OBM (p2kvs)")
    parser.add_argument(
        "--async-window",
        type=int,
        default=0,
        help="p2kvs asynchronous write window (0 = synchronous)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    return parser


def _build_system(env, args):
    # The CLI exposes one flag surface for all systems; open_system is
    # strict, so forward only the options this system declares (passing
    # workers to single-instance RocksDB would now raise).
    requested = {
        "workers": args.workers,
        "obm": not args.no_obm,
        "async_window": args.async_window,
    }
    supported = describe_options(args.system)
    return open_named_system(
        args.system,
        env,
        **{k: v for k, v in requested.items() if k in supported}
    )


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
        return scans(max(1, n // args.scan_size), n, args.scan_size, seed)
    raise SystemExit("unknown benchmark %r (choose from %s)" % (name, BENCHMARKS))


def run_benchmark(
    name: str,
    args,
    trace_path: Optional[str] = None,
    stats_base: Optional[str] = None,
    critpath_base: Optional[str] = None,
) -> dict:
    env = make_env_from_args(args)
    # Path extraction needs the request spans, so --critpath implies a live
    # tracer even when no trace file was requested.
    tracer = install_tracer(env) if (trace_path or critpath_base) else None
    edgelog = install_edgelog(env) if critpath_base else None
    sampler = install_stats_if_requested(env, args)
    system = _build_system(env, args)
    if name in NEEDS_PRELOAD:
        preload(env, system, fillrandom(args.num, args.value_size, args.seed), 8)
    t0 = env.sim.now
    _p = _perf_zones.PROFILER
    if _p is not None:
        _p.enter("harness.workload")
    streams = split_stream(_ops_for(name, args), args.threads)
    if _p is not None:
        _p.leave()
    metrics = run_closed_loop(env, system, streams)
    window = (t0, t0 + metrics.elapsed)
    check_sanitizer(env)
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
    if tracer is not None:
        if trace_path:
            extras, flows = (
                critpath_trace_extras(edgelog, tracer, window)
                if edgelog is not None
                else ((), ())
            )
            result["trace_file"] = write_chrome_trace(
                tracer, trace_path, extra_spans=extras, flows=flows
            )
        attribution = metrics.extra.get("latency_attribution")
        if attribution is not None:
            result["latency_attribution"] = attribution
    if edgelog is not None:
        export_critpath(edgelog, tracer, window, critpath_base, result)
    if sampler is not None:
        export_stats(env, sampler, stats_base or "stats", result)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    for name in names:
        if name not in BENCHMARKS:
            print("unknown benchmark %r" % name, file=sys.stderr)
            return 2
    profiler = start_profile(args)
    results = [
        run_benchmark(
            name,
            args,
            trace_path(args.trace_out, name, len(names) > 1)
            if args.trace_out
            else None,
            trace_path(args.stats_out, name, len(names) > 1)
            if args.stats
            else None,
            trace_path(args.critpath_out, name, len(names) > 1)
            if args.critpath
            else None,
        )
        for name in names
    ]
    finish_profile(args, profiler)
    rows = [
        [
            r["benchmark"],
            format_qps(r["qps"]),
            "%.1f" % r["avg_latency_us"],
            "%.1f" % r["p99_latency_us"],
            "%.2f" % r["write_amplification"],
            "%.1f%%" % (100 * r["bandwidth_utilization"]),
            "%.1f" % r["cpu_cores_busy"],
        ]
        for r in results
    ]
    print(
        "system=%s threads=%d num=%d value=%dB device=%s cores=%d"
        % (
            args.system,
            args.threads,
            args.num,
            args.value_size,
            args.device,
            args.cores,
        )
    )
    print(
        format_table(
            [
                "benchmark",
                "throughput",
                "avg us",
                "p99 us",
                "write amp",
                "bw util",
                "busy cores",
            ],
            rows,
        )
    )
    for r in results:
        if "latency_attribution" in r:
            print()
            print("%s latency attribution (paper Figure 6):" % r["benchmark"])
            print(format_attribution(r["latency_attribution"]))
        if "critpath" in r:
            print()
            print(
                "%s critical-path blame (%d request paths):"
                % (r["benchmark"], r["critpath"]["n_requests"])
            )
            print(format_blame_table(r["critpath"]["blame"]))
            print("wrote critpath %s" % r["critpath_file"])
        if "trace_file" in r:
            print("wrote trace %s" % r["trace_file"])
        if "stall_timeline" in r:
            print()
            print("%s stall/utilization timeline:" % r["benchmark"])
            print(r["stall_timeline"])
        for path in sorted(r.get("stats_files", {}).values()):
            print("wrote stats %s" % path)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=2)
        print("wrote %s" % args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
