"""Unified static-analysis CLI: determinism lint + whole-program flow.

Usage::

    python -m repro.tools.check [paths...]          # default: src
    python -m repro.tools.check --lint-only src     # what `make lint` runs
    python -m repro.tools.check --list-rules
    python -m repro.tools.check --json - --sarif results/check-report.sarif
    python -m repro.tools.check --baseline analysis-baseline.json
    python -m repro.tools.check --update-baseline   # regrandfather findings

One pipeline, one exit-code convention for every static check in the repo:
exit 0 when every finding is fixed, suppressed inline, or baselined; 1 on any
new finding; 2 on bad usage.  Output order is deterministic — byte-identical
across reruns.
See docs/ANALYSIS.md for the rule catalogue and the baseline workflow.
"""

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.callgraph import load_project
from repro.analysis.flow import analyze_project, flow_rules
from repro.analysis.lint import RULES, lint_paths
from repro.analysis.report import (
    apply_baseline,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
    write_baseline,
)

DEFAULT_BASELINE = "analysis-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.check",
        description="static analysis: determinism lint + interprocedural flow checkers",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--lint-only", action="store_true", help="run only the per-module lint rules"
    )
    parser.add_argument(
        "--flow-only", action="store_true", help="run only the flow checkers"
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="report only the named rule(s)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", help="write the report as SARIF 2.1.0"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="suppress findings recorded in this baseline file (default: "
        "%s when it exists)" % DEFAULT_BASELINE,
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--graph-stats",
        action="store_true",
        help="print call-graph construction stats",
    )
    return parser


def _list_rules() -> None:
    catalogue = [
        (rule.name, rule.description, "lint") for rule in RULES
    ] + [(name, desc, "flow") for name, desc in flow_rules()]
    width = max(len(name) for name, _d, _k in catalogue)
    for name, desc, kind in sorted(catalogue):
        print("%-*s  [%s] %s" % (width, name, kind, desc))


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.lint_only and args.flow_only:
        print("check: --lint-only and --flow-only are exclusive", file=sys.stderr)
        return 2
    if args.list_rules:
        _list_rules()
        return 0

    diagnostics = []
    graph_stats = None
    if not args.flow_only:
        diagnostics.extend(lint_paths(args.paths))
    if not args.lint_only:
        project = load_project(args.paths)
        graph_stats = project.stats()
        diagnostics.extend(analyze_project(project))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule, d.message))
    if args.rule:
        wanted = set(args.rule)
        diagnostics = [d for d in diagnostics if d.rule in wanted]

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        write_baseline(target, diagnostics)
        print(
            "check: wrote %d baseline entr%s to %s"
            % (len(diagnostics), "y" if len(diagnostics) == 1 else "ies", target)
        )
        return 0

    matched, stale = 0, []
    new = diagnostics
    if baseline_path is not None and os.path.exists(baseline_path):
        new, matched, stale = apply_baseline(
            diagnostics, load_baseline(baseline_path)
        )

    if args.json:
        rendered = render_json(
            new,
            graph_stats=graph_stats,
            baseline_matched=matched,
            baseline_stale=stale,
        )
        if args.json == "-":
            sys.stdout.write(rendered)
        else:
            _ensure_parent(args.json)
            with open(args.json, "w") as f:
                f.write(rendered)
    if args.sarif:
        rules = [(rule.name, rule.description) for rule in RULES] + flow_rules()
        _ensure_parent(args.sarif)
        with open(args.sarif, "w") as f:
            f.write(render_sarif(new, rules))

    if args.json != "-":
        text = render_text(new)
        if text:
            print(text)
    if args.graph_stats and graph_stats is not None:
        for key in sorted(graph_stats):
            value = graph_stats[key]
            print(
                "graph %s = %s"
                % (key, "%.3f" % value if isinstance(value, float) else value)
            )
    if stale:
        print(
            "check: %d stale baseline entr%s (finding already fixed — run "
            "--update-baseline to prune): %s"
            % (
                len(stale),
                "y" if len(stale) == 1 else "ies",
                ", ".join(e.get("fingerprint", "?") for e in stale),
            ),
            file=sys.stderr,
        )
    if new:
        n_rules = len(RULES) + len(flow_rules())
        print(
            "%d new finding(s) from %d rules; fix, suppress with "
            "'# lint: disable=<rule>  (reason)', or baseline with "
            "--update-baseline" % (len(new), n_rules),
            file=sys.stderr,
        )
        return 1
    if stale:
        return 1  # a rotting baseline fails the run just like a finding
    suffix = " (%d baselined)" % matched if matched else ""
    parts = []
    if not args.flow_only:
        parts.append("%d lint rules" % len(RULES))
    if not args.lint_only:
        parts.append("%d flow rules" % len(flow_rules()))
    scope = (
        "lint" if args.lint_only else "flow" if args.flow_only else "lint+flow"
    )
    print("check: clean (%s, %s)%s" % (scope, ", ".join(parts), suffix))
    return 0


if __name__ == "__main__":
    sys.exit(main())
