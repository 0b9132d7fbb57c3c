"""Figure 6: RocksDB write latency breakdown vs number of user threads.

The paper divides each write into WAL, MemTable, WAL lock, MemTable lock and
Others, and shows lock overhead growing from ~0 at 1 thread to 81.4% at 32
threads while useful WAL+MemTable work shrinks from 90% to 16.3%.

Each row is one ``run_case`` window's ``Metrics.attribution``: the collector's
delta of the writer threads' busy/wait accounting, folded onto those buckets.
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_table
from repro.trace.attribution import CATEGORIES
from repro.workloads import fillrandom

THREADS = [1, 4, 8, 16, 32]
OPS_PER_THREAD = 1500


def breakdown_for(n_threads: int):
    n_ops = OPS_PER_THREAD * n_threads
    metrics, _env = run_case("rocksdb", fillrandom(n_ops), n_threads)
    totals = metrics.attribution["categories"]
    avg_wal_us = totals["WAL"] / n_ops * 1e6
    avg_mem_us = totals["MemTable"] / n_ops * 1e6
    return metrics.attribution["shares"], avg_wal_us, avg_mem_us


def run_fig06():
    return {n: breakdown_for(n) for n in THREADS}


def test_fig06_latency_breakdown(benchmark):
    out = once(benchmark, run_fig06)
    rows = []
    for n in THREADS:
        shares, wal_us, mem_us = out[n]
        rows.append(
            [n]
            + ["%.1f%%" % (100 * shares[c]) for c in CATEGORIES]
            + ["%.2f" % wal_us, "%.2f" % mem_us]
        )
    report(
        "fig06",
        "Figure 6: write latency breakdown by thread count\n"
        + format_table(
            ["threads"] + CATEGORIES + ["avg WAL us/op", "avg MemTable us/op"],
            rows,
        ),
    )
    shares1 = out[1][0]
    shares32 = out[32][0]
    useful1 = shares1["WAL"] + shares1["MemTable"]
    useful32 = shares32["WAL"] + shares32["MemTable"]
    locks32 = shares32["WAL lock"] + shares32["MemTable lock"]
    locks1 = shares1["WAL lock"] + shares1["MemTable lock"]
    wal_us_1 = out[1][1]
    wal_us_32 = out[32][1]
    assert_shapes(
        "fig06",
        [
            ShapeCheck("1 thread: WAL+MemTable dominate", "90%", useful1, 0.6, 1.0),
            ShapeCheck("1 thread: ~no lock overhead", "~0%", locks1, 0.0, 0.1),
            ShapeCheck("32 threads: locks dominate", "81.4%", locks32, 0.5, 1.0),
            ShapeCheck(
                "32 threads: useful work share collapses", "16.3%", useful32, 0.0, 0.4
            ),
            ShapeCheck(
                "group logging amortizes per-op WAL time",
                "2.1us -> 0.8us",
                wal_us_1 / max(wal_us_32, 1e-9),
                1.5,
            ),
        ],
    )
