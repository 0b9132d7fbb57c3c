"""Causal what-if profiler: predicted vs. measured virtual speedups.

For a pinned workload, extract the critical path once, predict the
throughput effect of speeding up one resource (Coz-style virtual speedup),
then *actually* re-run the identical workload with that resource's service
time scaled and compare::

    python -m repro.tools.whatif --system p2kvs --workers 4 --threads 4 \
        --num 4000 --experiments wal-write-0.8x,channels+1 --check

Each experiment row shows the blame the makespan path assigns to the
affected resource, the predicted relative QPS delta, the measured delta
from the re-run, and whether the prediction lands within tolerance
(``--check`` exits non-zero when any misses — the CI smoke gate).

See docs/CRITPATH.md for how the prediction is derived and when first-order
predictions are expected to diverge.
"""

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.critpath import (
    EXPERIMENTS,
    check_prediction,
    predicted_delta,
    predicted_saving,
)
from repro.harness.report import format_blame_table, format_qps, format_table
from repro.tools.common import (
    DEVICES,
    ObservedRun,
    add_machine_args,
    add_system_args,
    make_env_from_args,
    observability_parent,
    open_system_from_args,
)
from repro.workloads import fillrandom, split_stream


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.whatif",
        description="critical-path what-if profiler (predicted vs. measured "
        "virtual speedups on a pinned fillrandom workload)",
        # The tool installs its own tracer + edgelog and owns its report, so
        # of the shared group only the determinism flags apply.
        parents=[
            observability_parent(
                trace=False, stats=False, critpath=False, profile=False
            )
        ],
    )
    parser.add_argument("--num", type=int, default=4000, help="write ops")
    parser.add_argument("--value-size", type=int, default=112)
    add_system_args(parser, system="p2kvs", threads=4, workers=4)
    add_machine_args(parser, cores=8, page_cache=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--experiments",
        default="wal-cpu-0.8x,memtable-0.9x,channels+1",
        help="comma-separated list from: %s" % ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the blame table is empty or any prediction "
        "misses the measured delta by more than the tolerance (25%% "
        "relative, 2pp absolute floor for near-zero deltas)",
    )
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument("--out", metavar="PATH", help="also write the text report")
    return parser


def _run(args, experiment=None, with_critpath: bool = False):
    """One pinned fillrandom run; returns (metrics, critpath report or None)."""
    spec = DEVICES[args.device]
    if experiment is not None and experiment.kind == "channels":
        spec = replace(spec, channels=spec.channels + experiment.delta)
    env = make_env_from_args(args, spec)
    if experiment is not None:
        if experiment.kind == "cpu":
            env.cpu.category_scale = {experiment.category: experiment.factor}
        elif experiment.kind == "device":
            env.device.category_scale = {experiment.category: experiment.factor}
    run = ObservedRun(env, tracer=with_critpath, edgelog=with_critpath)
    metrics = run.closed_loop(
        open_system_from_args(env, args),
        split_stream(fillrandom(args.num, args.value_size, args.seed), args.threads),
    )
    return metrics, run.critpath_report() if with_critpath else None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = [e.strip() for e in args.experiments.split(",") if e.strip()]
    for name in names:
        if name not in EXPERIMENTS:
            print("unknown experiment %r (choose from %s)"
                  % (name, ", ".join(EXPERIMENTS)), file=sys.stderr)
            return 2
    base_metrics, report = _run(args, with_critpath=True)
    channels = DEVICES[args.device].channels
    results = []
    for name in names:
        experiment = EXPERIMENTS[name]
        saving = predicted_saving(report, experiment, channels)
        predicted = predicted_delta(report, experiment, base_metrics.elapsed, channels)
        mod_metrics, _ = _run(args, experiment=experiment)
        measured = mod_metrics.qps / base_metrics.qps - 1.0
        results.append(
            {
                "experiment": name,
                "description": experiment.description,
                "path_blame_seconds": saving,
                "predicted_delta": predicted,
                "measured_delta": measured,
                "within_tolerance": check_prediction(predicted, measured),
            }
        )

    lines = [
        "whatif: system=%s workers=%d threads=%d num=%d value=%dB device=%s cores=%d"
        % (args.system, args.workers, args.threads, args.num,
           args.value_size, args.device, args.cores),
        "baseline: %s over %.3f simulated ms (%d request paths)"
        % (format_qps(base_metrics.qps), base_metrics.elapsed * 1e3,
           report["n_requests"]),
        "",
        "makespan critical path:",
        format_blame_table(report["makespan"]["blame"])
        if "makespan" in report
        else "(no makespan path)",
        "",
        format_table(
            ["experiment", "path saving", "predicted", "measured", "verdict"],
            [
                [
                    r["experiment"],
                    "%.3f ms" % (r["path_blame_seconds"] * 1e3),
                    "%+.1f%%" % (100 * r["predicted_delta"]),
                    "%+.1f%%" % (100 * r["measured_delta"]),
                    "OK" if r["within_tolerance"] else "MISS",
                ]
                for r in results
            ],
        ),
    ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print("wrote %s" % args.out)
    if args.json:
        payload = {
            "baseline_qps": base_metrics.qps,
            "elapsed": base_metrics.elapsed,
            "critpath": report,
            "experiments": results,
        }
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
        print("wrote %s" % args.json)
    if args.check:
        if not report["blame"]["rows"]:
            print("CHECK FAILED: empty blame table", file=sys.stderr)
            return 1
        misses = [r["experiment"] for r in results if not r["within_tolerance"]]
        if misses:
            print("CHECK FAILED: prediction outside tolerance for %s"
                  % ", ".join(misses), file=sys.stderr)
            return 1
        print("check ok: %d/%d predictions within tolerance"
              % (len(results), len(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
