"""Ablation: the engine's own concurrency optimizations (paper Section 2.2).

Measures what RocksDB's pipelined write and concurrent memtable are worth
under concurrent writers — the optimizations the paper's analysis says stop
mattering once lock overhead dominates (Amdahl's-law argument of Section 3.3).
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom

N_OPS = 16000

VARIANTS = {
    "baseline (exclusive, unpipelined)": dict(
        concurrent_memtable=False, pipelined_write=False
    ),
    "+concurrent memtable": dict(concurrent_memtable=True, pipelined_write=False),
    "+pipelined write": dict(concurrent_memtable=False, pipelined_write=True),
    "full rocksdb (both)": dict(concurrent_memtable=True, pipelined_write=True),
    "no group commit": dict(
        concurrent_memtable=False, pipelined_write=False, group_commit=False
    ),
    "sync WAL (fsync/group)": dict(
        concurrent_memtable=True, pipelined_write=True, sync_wal=True
    ),
}


def run_variant(overrides: dict, n_threads: int) -> float:
    return run_case("rocksdb", fillrandom(N_OPS), n_threads, engine=overrides)[0].qps


def run_ablation():
    out = {}
    for name, overrides in VARIANTS.items():
        for n_threads in (1, 16):
            out[(name, n_threads)] = run_variant(overrides, n_threads)
    return out


def test_ablation_engine_optimizations(benchmark):
    out = once(benchmark, run_ablation)
    rows = [
        [
            name,
            format_qps(out[(name, 1)]),
            format_qps(out[(name, 16)]),
            "%.2fx" % (out[(name, 16)] / out[(name, 1)]),
        ]
        for name in VARIANTS
    ]
    report(
        "ablation_engine_opts",
        "Ablation: engine concurrency options (random writes)\n"
        + format_table(
            ["variant", "1 thread", "16 threads", "scaling"], rows
        ),
    )
    full = out[("full rocksdb (both)", 16)]
    baseline = out[("baseline (exclusive, unpipelined)", 16)]
    nogroup = out[("no group commit", 16)]
    sync_wal = out[("sync WAL (fsync/group)", 16)]
    assert_shapes(
        "ablation_engine_opts",
        [
            ShapeCheck("ablation_engine_opts.both", full / baseline, 1.05),
            ShapeCheck("ablation_engine_opts.group_commit", baseline / nogroup, 1.05),
            ShapeCheck(
                "ablation_engine_opts.single_thread",
                out[("full rocksdb (both)", 1)]
                / out[("baseline (exclusive, unpipelined)", 1)],
                0.8,
                1.3,
            ),
            ShapeCheck("ablation_engine_opts.sync_wal", full / sync_wal, 1.05),
        ],
    )
