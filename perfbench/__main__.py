"""Command line of the benchmark: ``python3 -m perfbench``.

* ``--workload W --seed N --seconds S --trace 0|1`` — one measured run; the
  last line of standard output is the result object ``BENCHMARK.json``
  describes.
* no ``--workload`` — the whole suite: every workload, untraced then traced,
  one fresh subprocess each, never two at once; writes ``out/results.json``.
* ``--compare A.json B.json`` — verdict per workload x end-to-end metric.
* ``--selftest`` — a fast end-to-end check of the benchmark itself.
"""

import argparse
import json
import os
import sys
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer "
                        "metrics from traced passes")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every op count by this factor")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results.json files")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="suite mode: where to write the results "
                        "(default perfbench/out/results.json)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from perfbench import runner

    if args.compare:
        from perfbench.compare import compare_files

        return compare_files(args.compare[0], args.compare[1], runner.load_contract())
    if not os.path.isdir(os.path.join(runner.SRC, "repro")):
        print("perfbench: no program to measure: %s/repro is missing" % runner.SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, runner.SRC)
    contract = runner.load_contract()
    if args.selftest:
        from perfbench.selftest import selftest

        return selftest(contract)
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        from perfbench.suite import run_suite

        return run_suite(contract, args.seed, seconds, args.scale, args.out)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    detail = runner.measure(args.workload, args.seed, seconds, args.scale,
                            bool(args.trace))
    result = runner.emit(detail, contract)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
