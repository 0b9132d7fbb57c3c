"""Table 2: memory and CPU usage under the Figure 12 random-write run.

Paper (normalized to one core): RocksDB burns the most CPU with tiny memory
(its 16 user threads each burn a core on lock churn); PebblesDB the least
(threads mostly waiting); p2KVS's CPU grows with its workers (workers +
per-instance background threads), with modest, stable memory (scaled here).
"""

from benchmarks.bench_fig12_write import SYSTEMS
from benchmarks.common import MEDIUM, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import fillrandom

N_THREADS = 16
N_OPS = MEDIUM


def run_table2():
    return {
        label: run_case(kind, fillrandom(N_OPS), N_THREADS, **opts)[0]
        for label, (kind, opts) in SYSTEMS.items()
    }


def test_table2_memory_and_cpu(benchmark):
    out = once(benchmark, run_table2)
    rows = [
        [
            kind,
            "%.2f MB" % (m.memory_bytes / 1e6),
            "%.0f%%" % (100 * m.cpu_utilization),
        ]
        for kind, m in out.items()
    ]
    report(
        "table2",
        "Table 2: memory and CPU under 16-thread random writes\n"
        "(CPU normalized to one core, as in the paper)\n"
        + format_table(["system", "peak memory (scaled)", "avg CPU"], rows),
    )
    assert_shapes(
        "table2",
        [
            ShapeCheck(
                "table2.cpu",
                out["p2kvs-8"].cpu_utilization
                / max(out["p2kvs-4"].cpu_utilization, 1e-9),
                1.1,
            ),
            ShapeCheck(
                "table2.pebbles_cpu",
                float(
                    out["pebblesdb"].cpu_utilization
                    < min(
                        out["rocksdb"].cpu_utilization,
                        out["p2kvs-8"].cpu_utilization,
                    )
                ),
                1.0,
                1.0,
            ),
            ShapeCheck(
                "table2.memory",
                out["p2kvs-8"].memory_bytes / max(out["p2kvs-4"].memory_bytes, 1),
                1.0,
                4.0,
            ),
        ],
    )
