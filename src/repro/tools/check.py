"""Static-analysis CLI: the determinism lint over a source tree.

Usage::

    python -m repro.tools.check [paths...]          # default: src (`make check`)
    python -m repro.tools.check --list-rules

Prints one ``path:line:col: [rule] message`` line per finding, sorted, and
exits 1 on any finding not fixed or suppressed inline
(``# lint: disable=<rule>  (reason)``).  See docs/ANALYSIS.md for the rule
catalogue.
"""

import argparse
import sys
from typing import List, Optional

from repro.analysis.lint import RULES, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.check",
        description="static analysis: the determinism lint rules",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        width = max(len(rule.name) for rule in RULES)
        for rule in sorted(RULES, key=lambda r: r.name):
            print("%-*s  %s" % (width, rule.name, rule.description))
        return 0

    diagnostics = lint_paths(args.paths)
    for diagnostic in diagnostics:
        print(diagnostic)
    if diagnostics:
        print(
            "%d finding(s) from %d rules; fix, or suppress with "
            "'# lint: disable=<rule>  (reason)'" % (len(diagnostics), len(RULES)),
            file=sys.stderr,
        )
        return 1
    print("check: clean (%d rules)" % len(RULES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
