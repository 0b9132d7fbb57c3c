"""Figure 8: throughput of the WAL stage and the MemTable stage in isolation,
single-instance vs multi-instance, as user threads grow.

Paper findings: the logging stage benefits from group batching in the
single-instance case but multi-instance logging peaks at a low thread count
(the SSD's limited IO parallelism); the indexing stage scales far better
multi-instance than single-instance, because the shared concurrent skiplist
synchronization saturates.
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom

THREADS = [1, 4, 8, 16, 32]
TOTAL_OPS = 16000


#: the engine switches that isolate each stage
STAGES = {
    "wal": dict(enable_memtable=False),
    "memtable": dict(enable_wal=False, disable_flush=True),
}


def run_stage(stage: str, mode: str, n_threads: int) -> float:
    """mode: 'single' (one RocksDB) | 'multi' (one instance per thread)."""
    kind, opts = ("rocksdb", {}) if mode == "single" else ("multi", {"workers": n_threads})
    return run_case(
        kind, fillrandom(TOTAL_OPS), n_threads, engine=STAGES[stage], **opts
    )[0].qps


def run_fig08():
    out = {}
    for stage in STAGES:
        for mode in ("single", "multi"):
            for n in THREADS:
                out[(stage, mode, n)] = run_stage(stage, mode, n)
    return out


def test_fig08_wal_and_memtable_scaling(benchmark):
    out = once(benchmark, run_fig08)
    rows = []
    for n in THREADS:
        rows.append(
            [
                n,
                format_qps(out[("wal", "single", n)]),
                format_qps(out[("wal", "multi", n)]),
                format_qps(out[("memtable", "single", n)]),
                format_qps(out[("memtable", "multi", n)]),
            ]
        )
    report(
        "fig08",
        "Figure 8: isolated WAL and MemTable stage throughput\n"
        + format_table(
            [
                "threads",
                "WAL single",
                "WAL multi",
                "MemTable single",
                "MemTable multi",
            ],
            rows,
        ),
    )
    wal_single_gain = out[("wal", "single", 32)] / out[("wal", "single", 1)]
    wal_multi_peak = max(out[("wal", "multi", n)] for n in THREADS)
    wal_multi_gain = wal_multi_peak / out[("wal", "single", 1)]
    mem_single_gain = out[("memtable", "single", 32)] / out[("memtable", "single", 1)]
    mem_multi_gain = out[("memtable", "multi", 32)] / out[("memtable", "multi", 1)]
    assert_shapes(
        "fig08",
        [
            ShapeCheck("fig08.wal_single", wal_single_gain, 1.3, 6.0),
            ShapeCheck("fig08.wal_multi", wal_multi_gain, 1.8),
            ShapeCheck("fig08.memtable_multi", mem_multi_gain, 6.0),
            ShapeCheck("fig08.memtable_single", mem_single_gain, 1.5, 7.0),
            ShapeCheck(
                "fig08.memtable_multi_vs_single",
                mem_multi_gain / mem_single_gain,
                1.5,
            ),
        ],
    )
