"""Host wall-clock profiling CLI (docs/PROFILING.md).

Three modes over the pinned workload (dbbench fillrandom, p2kvs, 8 workers,
8 threads, SATA, 4 KiB values — the same shape the bench baseline's
wall-clock column times):

* default — attach the zone profiler, run once, print the per-subsystem
  wall-time tree; ``--check-coverage PCT`` exits non-zero when the
  attributed share falls below PCT (the CI smoke pins 90).
* ``--flame-out`` / ``--collapsed-out`` — additionally attach the stack
  sampler and write a speedscope JSON flamegraph / collapsed-stack text.
* ``--tax`` — instrument-tax accounting: run the workload once per
  observability layer (off, trace, metrics, sanitize, critpath, monitor)
  and report each layer's wall overhead over the bare run, and its Python
  calls per op from one counted ``COUNTED_OPS`` pass.

All host-clock reads happen inside ``repro.perf``; this module pins the
workload (``PINNED``, ``run_workload``) and orchestrates.  Profiling never
changes simulated results (tested byte-for-byte in tests/test_perf.py).

Examples::

    python -m repro.tools.profile
    python -m repro.tools.profile --check-coverage 90 --json profile.json
    python -m repro.tools.profile --flame-out flame.speedscope.json
    python -m repro.tools.profile --tax
"""

import argparse
import json
import sys
from typing import List, Optional

from repro.perf import StackSampler, format_zone_tree, zones as _zones
from repro.perf.tax import COUNTED_OPS, LAYERS, format_tax, measure_tax
from repro.tools.common import (
    ObservedRun,
    make_env_from_args,
    observability_parent,
    open_system_from_args,
)
from repro.workloads import fillrandom, split_stream

__all__ = ["PINNED", "build_parser", "main", "run_workload"]

#: the pinned workload every mode runs (dbbench fillrandom on SATA), spelled
#: as the flags the shared driver reads.
PINNED = dict(
    system="p2kvs",
    workers=8,
    no_obm=False,
    async_window=0,
    threads=8,
    cores=44,
    device="sata",
    value_size=4096,
    num=2000,
    seed=0,
)


def run_workload(
    layer: str = "off",
    num: Optional[int] = None,
    schedule_seed: Optional[int] = None,
) -> ObservedRun:
    """Run the pinned workload once with the observability ``layer`` attached;
    returns the finished run (its env and planes still alive).

    Each call builds a fresh env/system so no layer sees another's state.
    ``schedule_seed`` perturbs same-time event delivery (the tool's shared
    determinism flag): the workload must behave identically for every N.
    """
    if layer not in LAYERS:
        raise ValueError("unknown layer %r (choose from %s)" % (layer, LAYERS))
    args = argparse.Namespace(
        **PINNED, schedule_seed=schedule_seed, sanitize=layer == "sanitize"
    )
    run = ObservedRun(
        make_env_from_args(args),
        tracer=layer == "trace",
        edgelog=layer == "critpath",
        stats_interval_ms=10.0 if layer == "metrics" else None,
    )
    if layer == "monitor":
        run.attach_monitor(window_ms=5.0)
    ops = fillrandom(PINNED["num"] if num is None else num, args.value_size, args.seed)
    run.closed_loop(
        open_system_from_args(run.env, args), split_stream(ops, args.threads)
    )
    return run


def build_parser() -> argparse.ArgumentParser:
    # Of the shared observability group only --schedule-seed applies: this
    # tool IS the profiler (its own flags subsume --profile), and the
    # trace/stats/critpath artifacts belong to the benchmark CLIs.
    parser = argparse.ArgumentParser(
        prog="repro.tools.profile",
        description="host wall-clock profiling of the simulator itself",
        parents=[
            observability_parent(
                trace=False,
                stats=False,
                critpath=False,
                profile=False,
                sanitize=False,
            )
        ],
    )
    parser.add_argument(
        "--num",
        type=int,
        default=None,
        help="ops for the pinned workload (default %d)" % PINNED["num"],
    )
    parser.add_argument(
        "--check-coverage",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when zone coverage of the run's wall time is "
        "below PCT percent",
    )
    parser.add_argument(
        "--min-share",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="hide zone-tree rows below this share of wall time",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the zone report as JSON"
    )
    parser.add_argument(
        "--flame-out",
        metavar="PATH",
        help="attach the stack sampler and write a speedscope JSON profile "
        "(open at https://www.speedscope.app)",
    )
    parser.add_argument(
        "--collapsed-out",
        metavar="PATH",
        help="attach the stack sampler and write collapsed stacks "
        "(flamegraph.pl input)",
    )
    parser.add_argument(
        "--tax",
        action="store_true",
        help="measure the instrument tax instead: wall overhead of each "
        "observability layer (%s) over the bare run" % ", ".join(LAYERS),
    )
    parser.add_argument(
        "--tax-json", metavar="PATH", help="with --tax, write the report JSON"
    )
    return parser


def _run_tax(args) -> int:
    report = measure_tax(
        lambda layer: run_workload(layer, args.num, args.schedule_seed),
        ops=PINNED["num"] if args.num is None else args.num,
        counted=lambda layer: run_workload(layer, COUNTED_OPS, args.schedule_seed),
    )
    print(format_tax(report))
    if args.tax_json:
        with open(args.tax_json, "w") as f:
            json.dump(report, f, indent=2)
        print("wrote %s" % args.tax_json)
    return 0


def _run_zones(args) -> int:
    sampler = (
        StackSampler()
        if (args.flame_out or args.collapsed_out)
        else None
    )
    profiler = _zones.install()
    if sampler is not None:
        sampler.start()
    try:
        run_workload("off", num=args.num, schedule_seed=args.schedule_seed)
    finally:
        if sampler is not None:
            sampler.stop()
        _zones.uninstall()
    snapshot = profiler.snapshot()
    print(format_zone_tree(snapshot, min_share=args.min_share))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(snapshot, f, indent=2)
        print("wrote %s" % args.json)
    if args.flame_out:
        with open(args.flame_out, "w") as f:
            json.dump(sampler.speedscope(name="repro pinned workload"), f)
        print("wrote %s (%d samples)" % (args.flame_out, sampler.n_samples))
    if args.collapsed_out:
        with open(args.collapsed_out, "w") as f:
            f.write(sampler.collapsed())
        print("wrote %s" % args.collapsed_out)
    if args.check_coverage is not None:
        pct = 100.0 * snapshot["coverage"]
        if pct < args.check_coverage:
            print(
                "coverage %.1f%% below required %.1f%%"
                % (pct, args.check_coverage),
                file=sys.stderr,
            )
            return 1
        print("coverage %.1f%% (>= %.1f%%)" % (pct, args.check_coverage))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.tax:
        return _run_tax(args)
    return _run_zones(args)


if __name__ == "__main__":
    raise SystemExit(main())
