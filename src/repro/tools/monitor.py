"""Health-monitor runner and replay: monitored scenarios from the CLI.

Two modes::

    # run one pinned serve scenario under the monitor and narrate it
    python -m repro.tools.monitor --scenario uniform --expect-clean
    python -m repro.tools.monitor --scenario hotkey --fault-rate 0.02 \
        --json monitor.json --detection-out detection.json

    # re-render a previously written monitor document
    python -m repro.tools.monitor --replay monitor.json

The run mode is ``repro.tools.serve``'s scenario with the monitor always
attached: it prints the incident narrative and checks expectations —
``--expect-clean`` fails the run if any page-severity alert fired, and a
``--fault-rate`` run fails if the injected fault went undetected.
Everything printed or written is deterministic: reruns and
``--schedule-seed`` perturbations produce byte-identical documents, which
``make smoke`` asserts on every CI run.  See docs/MONITOR.md.
"""

import argparse
import json
import sys
from typing import List, Optional

from repro.monitor import render_narrative, write_detection_report
from repro.service import scenario_names
from repro.tools import serve as serve_tool
from repro.tools.common import finish_profile, observability_parent, start_profile

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    # The stats/trace/critpath families stay serve-only: their artifacts
    # belong to the full SLO run, not the monitor narrative.
    parser = argparse.ArgumentParser(
        prog="repro.tools.monitor",
        description="run a monitored service scenario, or replay a monitor "
        "document (docs/MONITOR.md)",
        parents=[
            observability_parent(
                trace=False, stats=False, critpath=False, monitor="window"
            )
        ],
    )
    parser.add_argument(
        "--replay",
        metavar="PATH",
        help="re-render the narrative from a monitor JSON document instead "
        "of running a scenario",
    )
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="uniform",
        help="pinned serve scenario to run (default: uniform)",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--ops", type=int, default=1500)
    parser.add_argument("--rate", type=float, default=1000000.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-IO transient fault probability; turns the run into a "
        "scored detection exercise",
    )
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument(
        "--expect-clean",
        action="store_true",
        help="exit non-zero if any page-severity alert fired (the clean "
        "pinned scenarios must raise none)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the monitor document (timeline + detection) as JSON",
    )
    parser.add_argument(
        "--detection-out",
        metavar="PATH",
        help="write just the detection scorecard as JSON",
    )
    return parser


def _replay(path: str) -> int:
    with open(path) as fh:
        document = json.load(fh)
    print(render_narrative(document["health"], document.get("detection")))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay:
        return _replay(args.replay)

    # serve's scenario runner end to end: its defaults for every flag this
    # tool does not expose, the monitor on, and the monitor document (serve's
    # --monitor-out) written to this tool's --json.
    serve_args = serve_tool.build_parser().parse_args([])
    vars(serve_args).update(vars(args), monitor=True, monitor_out=args.json)
    profiler = start_profile(args)
    report = serve_tool.run_scenario(serve_args)
    finish_profile(args, profiler)
    health = report["health"]
    detection = report["detection"]

    print(
        "scenario=%s shards=%d ops=%d offered=%d completed=%d shed=%d "
        "errors=%d"
        % (
            report["scenario"],
            report["directory"]["n_shards"],
            report["params"]["n_ops"],
            report["offered"],
            report["completed"],
            report["shed"],
            report["errors"],
        )
    )
    print()
    print(render_narrative(health, detection))

    if args.json:
        print("wrote %s" % args.json)
    if args.detection_out:
        write_detection_report(detection, args.detection_out)
        print("wrote %s" % args.detection_out)

    status = 0
    if args.expect_clean and health["alerts"]["page"] > 0:
        print(
            "FAIL: expected a clean run, %d page(s) fired"
            % health["alerts"]["page"],
            file=sys.stderr,
        )
        status = 1
    if detection["ground_truth"] is not None and not detection["detected"]:
        print("FAIL: injected fault was not detected", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
