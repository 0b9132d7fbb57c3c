"""Figure 12: random-write throughput, IO amplification and bandwidth
utilization — RocksDB vs PebblesDB vs p2KVS-4 vs p2KVS-8.

Paper: p2KVS-4 and p2KVS-8 beat RocksDB several times over; p2KVS-8 has the
lowest IO amplification (wider, shallower tree across instances); p2KVS
drives the SSD far harder than RocksDB/PebblesDB.
The micro-benchmark uses 16 user threads with p2KVS's async interface.
"""

from benchmarks.common import LARGE, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom

N_THREADS = 16
N_OPS = LARGE


#: figure label -> (registry name, options); p2KVS uses its async interface.
SYSTEMS = {
    "rocksdb": ("rocksdb", {}),
    "pebblesdb": ("pebblesdb", {}),
    "p2kvs-4": ("p2kvs", dict(workers=4, async_window=512)),
    "p2kvs-8": ("p2kvs", dict(workers=8, async_window=512)),
}


def run_fig12():
    out, envs = {}, {}
    for label, (kind, opts) in SYSTEMS.items():
        out[label], envs[label] = run_case(kind, fillrandom(N_OPS), N_THREADS, **opts)
    return out, envs


def test_fig12_random_write(benchmark):
    out, envs = once(benchmark, run_fig12)
    rows = [
        [
            kind,
            format_qps(m.qps),
            "%.2f" % m.io_amplification,
            "%.1f%%" % (100 * m.bandwidth_utilization),
        ]
        for kind, m in out.items()
    ]
    report(
        "fig12",
        "Figure 12: 16-thread random writes (128-byte KVs)\n"
        + format_table(
            ["system", "throughput", "IO amplification", "SSD bandwidth utilization"],
            rows,
        ),
    )
    rocks = out["rocksdb"]
    assert_shapes(
        "fig12",
        [
            ShapeCheck(
                "fig12.p2kvs4_speedup",
                out["p2kvs-4"].qps / rocks.qps,
                1.8,
                5.0,
            ),
            ShapeCheck(
                "fig12.p2kvs8_speedup",
                out["p2kvs-8"].qps / rocks.qps,
                3.0,
                9.0,
            ),
            ShapeCheck(
                "fig12.p2kvs8_lowest_io_amp",
                float(
                    out["p2kvs-8"].io_amplification
                    < min(
                        rocks.io_amplification,
                        out["pebblesdb"].io_amplification,
                        out["p2kvs-4"].io_amplification,
                    )
                ),
                1.0,
                1.0,
            ),
            ShapeCheck(
                "fig12.pebbles_io_amp",
                rocks.io_amplification / out["pebblesdb"].io_amplification,
                1.0,
            ),
            ShapeCheck(
                "fig12.p2kvs8_bandwidth",
                out["p2kvs-8"].bandwidth_utilization
                / max(rocks.bandwidth_utilization, 1e-9),
                1.2,
            ),
            ShapeCheck("fig12.pebbles_qps", out["pebblesdb"].qps / rocks.qps, 0.1, 1.2),
        ],
        # Surface the p2KVS-8 run's stall/backlog events next to the verdicts.
        env=envs["p2kvs-8"],
    )
