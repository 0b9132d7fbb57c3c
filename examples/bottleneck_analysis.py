#!/usr/bin/env python
"""Reproduce the paper's Section 3 bottleneck analysis interactively.

Shows, on one simulated machine, why RocksDB-style engines stop scaling:
runs 1..32 writer threads against a single instance and prints the latency
breakdown (WAL / MemTable / WAL lock / MemTable lock / Others) plus the QPS
curve — the paper's Figures 5a and 6 in one table.

Run:  python examples/bottleneck_analysis.py
"""

from repro.engine import LSMEngine, make_env, rocksdb_options
from repro.harness.report import format_qps, format_table
from repro.systems import BENCH_SHAPE
from repro.workloads import fillrandom, split_stream

TOTAL_OPS = 12000
THREADS = [1, 2, 4, 8, 16, 32]


def run_threads(n_threads):
    env = make_env(n_cores=44)
    box = []

    def opener():
        engine = yield from LSMEngine.open(env, "db", rocksdb_options(**BENCH_SHAPE))
        box.append(engine)

    env.sim.spawn(opener())
    env.sim.run()
    engine = box[0]

    streams = split_stream(fillrandom(TOTAL_OPS), n_threads)
    contexts = []

    def writer(ctx, stream):
        for _verb, key, value in stream:
            yield from engine.put(ctx, key, value)

    start = env.sim.now
    for i, stream in enumerate(streams):
        ctx = env.cpu.new_thread("writer-%d" % i)
        contexts.append(ctx)
        env.sim.spawn(writer(ctx, stream))
    env.sim.run()
    elapsed = env.sim.now - start

    totals = {"WAL": 0.0, "MemTable": 0.0, "WAL lock": 0.0, "MemTable lock": 0.0, "Others": 0.0}
    for ctx in contexts:
        busy, wait = ctx.busy_by_category, ctx.wait_by_category
        totals["WAL"] += busy.get("wal", 0) + wait.get("wal", 0)
        totals["MemTable"] += busy.get("memtable", 0)
        totals["WAL lock"] += busy.get("wal_lock", 0) + wait.get("wal_lock", 0)
        totals["MemTable lock"] += wait.get("memtable_lock", 0)
        totals["Others"] += (
            busy.get("other", 0) + wait.get("cpu_queue", 0) + wait.get("stall", 0)
        )
    total = sum(totals.values()) or 1.0
    return TOTAL_OPS / elapsed, {k: v / total for k, v in totals.items()}


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
