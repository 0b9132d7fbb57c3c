"""Figure 21: hardware utilization — p2KVS-8 vs KVell-8 under random writes.

Paper: KVell moves little bandwidth (small random page IOs) while p2KVS's
LSM aggregation drives far more; KVell uses more memory even net of its page
cache (all indexes in RAM); p2KVS burns more *total* CPU (workers +
background threads) but loads each core less, whereas each KVell worker core
runs hot — p2KVS spreads load across the multicore machine instead of
leaning on single-core speed.
"""

from benchmarks.common import LARGE, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import fillrandom

N_THREADS = 64
N_OPS = LARGE


#: p2KVS uses its async write interface, as in Figure 12.
SYSTEMS = {"kvell": {}, "p2kvs": dict(async_window=512)}


def run_writes(kind: str):
    metrics, _ = run_case(kind, fillrandom(N_OPS), N_THREADS, **SYSTEMS[kind])
    ordered = sorted(metrics.per_core_util, reverse=True)
    busiest = ordered[:8]
    # CPU burned OUTSIDE the 8 worker cores: the per-instance background
    # flush/compaction threads that let p2KVS spread across the machine.
    spread = sum(ordered[8:])
    return metrics, sum(busiest) / len(busiest), spread


def run_fig21():
    return {kind: run_writes(kind) for kind in SYSTEMS}


def test_fig21_hardware_utilization(benchmark):
    out = once(benchmark, run_fig21)
    rows = []
    for kind, (m, busiest8, spread) in out.items():
        rows.append(
            [
                kind,
                "%.1f MQPS" % (m.qps / 1e6),
                "%.0f MB/s"
                % ((m.device_read_bytes + m.device_write_bytes) / m.elapsed / 1e6),
                "%.2f MB" % (m.memory_bytes / 1e6),
                "%.0f%%" % (100 * m.cpu_utilization),
                "%.0f%%" % (100 * busiest8),
                "%.0f%%" % (100 * spread),
            ]
        )
    report(
        "fig21",
        "Figure 21: p2KVS-8 vs KVell-8 under 16-thread random writes\n"
        + format_table(
            [
                "system",
                "throughput",
                "IO bandwidth",
                "memory (scaled)",
                "total CPU (1 core = 100%)",
                "avg of 8 busiest cores",
                "CPU beyond 8 busiest cores",
            ],
            rows,
        ),
    )
    kvell_m, kvell_core, kvell_spread = out["kvell"]
    p2_m, p2_core, p2_spread = out["p2kvs"]
    kvell_bw = (kvell_m.device_read_bytes + kvell_m.device_write_bytes) / kvell_m.elapsed
    p2_bw = (p2_m.device_read_bytes + p2_m.device_write_bytes) / p2_m.elapsed
    assert_shapes(
        "fig21",
        [
            ShapeCheck("fig21.bandwidth", p2_bw / max(kvell_bw, 1.0), 1.5),
            ShapeCheck(
                "fig21.memory",
                kvell_m.memory_bytes / max(p2_m.memory_bytes, 1),
                1.3,
            ),
            ShapeCheck(
                "fig21.cpu",
                p2_m.cpu_utilization / max(kvell_m.cpu_utilization, 1e-9),
                1.1,
            ),
            ShapeCheck("fig21.spread", p2_spread / max(kvell_spread, 1e-9), 1.5),
            ShapeCheck("fig21.kvell_hot", kvell_core, 0.4),
            ShapeCheck("fig21.throughput", p2_m.qps / kvell_m.qps, 0.8, 4.0),
        ],
    )
