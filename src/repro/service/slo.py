"""SLO accounting: turn a service run's registry stats into one report.

The report is the deliverable of ``repro.tools.serve``: per-class tail
latency at the *offered* load, and the goodput-versus-shed ledger that
explains it.  Everything is read back from the env's
:class:`~repro.metrics.registry.StatsRegistry` — the per-class
``service.latency.*`` histograms and the per-shard ``service.shard-*``
counter groups the lanes maintain — plus the partition directory's
snapshot, so the report is a pure function of the run.

Accounting identities (pinned by ``tests/test_service.py``):

* ``offered == admitted + shed`` — every arrival is either let in or
  turned away, never both, never dropped silently;
* ``completed == admitted`` at end of run — the driver waits for the
  lanes to go quiet, so nothing is left in flight;
* ``shed >= rebalance_shed`` — migration sheds are a sub-category of
  sheds, not an extra bucket.

Latency quantiles are exact nearest-rank order statistics over every
latency the lanes recorded, reported in microseconds rounded to 1 ns.  All
floats are rounded before serialisation so the JSON is byte-stable.
"""

import json
from typing import Dict, List

__all__ = ["build_slo_report", "render_slo_csv", "write_report"]

#: latency classes in report order.
CLASSES = ("read", "write", "rmw")

_US = 1e6  # sim seconds → microseconds


def _latency_summary(hist) -> Dict[str, float]:
    if hist.count == 0:
        return {"count": 0}
    return {
        "count": hist.count,
        "mean_us": round(hist.mean * _US, 3),
        "p50_us": round(hist.percentile(50) * _US, 3),
        "p99_us": round(hist.percentile(99) * _US, 3),
        "p999_us": round(hist.percentile(99.9) * _US, 3),
        "max_us": round(hist.max * _US, 3),
    }


def build_slo_report(plane, run: dict, scenario: dict) -> dict:
    """Assemble the SLO report for a finished :func:`run_service_load`."""
    offered = int(plane.counters.get("offered"))
    per_shard: List[dict] = []
    admitted = shed = completed = errors = rebalance_shed = 0
    for lane in plane.lanes:
        c = lane.counters
        row = {
            "shard": lane.shard_id,
            "instance": plane.shards[lane.shard_id].name,
            "admitted": int(c.get("admitted")),
            "shed": int(c.get("shed")),
            "rebalance_shed": int(c.get("rebalance_shed")),
            "completed": int(c.get("completed")),
            "errors": int(c.get("errors")),
            "queue_max_depth": lane.max_depth,
            "partitions": plane.directory.partitions_on(lane.shard_id),
        }
        per_shard.append(row)
        admitted += row["admitted"]
        shed += row["shed"]
        completed += row["completed"]
        errors += row["errors"]
        rebalance_shed += row["rebalance_shed"]
    makespan = run.get("makespan", 0.0)
    return {
        "scenario": scenario["name"],
        "params": scenario["params"],
        "arrivals": scenario["arrivals"].describe(),
        "offered": offered,
        "admitted": admitted,
        "shed": shed,
        "rebalance_shed": rebalance_shed,
        "completed": completed,
        "errors": errors,
        "shed_rate": round(shed / offered, 6) if offered else 0.0,
        "makespan_s": round(makespan, 9),
        "goodput_ops_per_s": round(completed / makespan, 3) if makespan else 0.0,
        "offered_by_class": {
            cls: int(plane.counters.get("offered.%s" % cls))
            for cls in CLASSES
            if plane.counters.get("offered.%s" % cls)
        },
        "latency": {
            cls: _latency_summary(plane.latency_histogram(cls)) for cls in CLASSES
        },
        "per_shard": per_shard,
        "directory": plane.directory.snapshot(),
        "moves": run.get("moves", []),
    }


def render_slo_csv(report: dict) -> str:
    """Per-shard ledger as CSV (one row per shard plus a totals row)."""
    header = "shard,instance,admitted,shed,rebalance_shed,completed,errors,queue_max_depth"
    lines = [header]
    for row in report["per_shard"]:
        lines.append(
            "%d,%s,%d,%d,%d,%d,%d,%d"
            % (
                row["shard"],
                row["instance"],
                row["admitted"],
                row["shed"],
                row["rebalance_shed"],
                row["completed"],
                row["errors"],
                row["queue_max_depth"],
            )
        )
    lines.append(
        "total,,%d,%d,%d,%d,%d,"
        % (
            report["admitted"],
            report["shed"],
            report["rebalance_shed"],
            report["completed"],
            report["errors"],
        )
    )
    return "\n".join(lines) + "\n"


def write_report(report: dict, path: str) -> None:
    """Serialise deterministically (sorted keys, stable rounding)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2))
        fh.write("\n")
