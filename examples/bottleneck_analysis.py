#!/usr/bin/env python
"""Reproduce the paper's Section 3 bottleneck analysis interactively.

Shows, on one simulated machine, why RocksDB-style engines stop scaling:
runs 1..32 writer threads against a single instance and prints the latency
breakdown (WAL / MemTable / WAL lock / MemTable lock / Others) plus the QPS
curve — the paper's Figures 5a and 6 in one table.

Run:  python examples/bottleneck_analysis.py
"""

from repro.engine import make_env
from repro.harness import run_closed_loop
from repro.harness.report import format_qps, format_table
from repro.systems import open_system
from repro.workloads import fillrandom, split_stream

TOTAL_OPS = 12000
THREADS = [1, 2, 4, 8, 16, 32]


def run_threads(n_threads):
    env = make_env(n_cores=44)
    system = open_system("rocksdb", env)
    streams = split_stream(fillrandom(TOTAL_OPS), n_threads)
    start = env.sim.now
    metrics = run_closed_loop(env, system, streams)
    # QPS over the drained run, trailing flushes and compactions included.
    return TOTAL_OPS / (env.sim.now - start), metrics.attribution["shares"]


def main():
    rows = []
    for n in THREADS:
        qps, shares = run_threads(n)
        rows.append(
            [
                n,
                format_qps(qps),
                "%.1f%%" % (100 * shares["WAL"]),
                "%.1f%%" % (100 * shares["MemTable"]),
                "%.1f%%" % (100 * shares["WAL lock"]),
                "%.1f%%" % (100 * shares["MemTable lock"]),
                "%.1f%%" % (100 * shares["Others"]),
            ]
        )
    print("Why RocksDB-style engines stop scaling (paper Section 3):")
    print(
        format_table(
            ["threads", "QPS", "WAL", "MemTable", "WAL lock", "MemTable lock", "Others"],
            rows,
        )
    )
    print()
    print("Note how useful work (WAL + MemTable) collapses while lock")
    print("overhead explodes — the paper's Figure 6, and the reason p2KVS")
    print("replaces shared-structure concurrency with sharded workers.")


if __name__ == "__main__":
    main()
