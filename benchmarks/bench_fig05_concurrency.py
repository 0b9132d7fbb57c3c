"""Figure 5: concurrent random writes — single- vs multi-instance scaling,
plus the single-instance IO-bandwidth/CPU split and the core-pinning gain.

Paper claims (C1): the single-instance write QPS gains only meagerly up to
32 threads (synchronization-bound); the multi-instance configuration scales
better; pinning threads to cores helps a little.
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom

THREADS = [1, 4, 8, 16, 24, 32]
TOTAL_OPS = 24000  # constant across thread counts, like the paper's 10M


def run_single(n_threads: int, pin: bool = False):
    return run_case("rocksdb", fillrandom(TOTAL_OPS), n_threads, pin_users=pin)[0]


def run_multi(n_threads: int):
    return run_case("multi", fillrandom(TOTAL_OPS), n_threads, workers=n_threads)[0]


def run_fig05():
    single = {n: run_single(n) for n in THREADS}
    multi = {n: run_multi(n) for n in THREADS}
    pinned16 = run_single(16, pin=True)
    return single, multi, pinned16


def test_fig05_concurrent_write_scaling(benchmark):
    single, multi, pinned16 = once(benchmark, run_fig05)
    rows = []
    for n in THREADS:
        rows.append(
            [
                n,
                format_qps(single[n].qps),
                format_qps(multi[n].qps),
                "%.0f MB/s" % ((single[n].device_read_bytes + single[n].device_write_bytes) / single[n].elapsed / 1e6),
                "%.0f%%" % (100 * single[n].device_bytes.get("compaction", 0) / max(1, single[n].device_read_bytes + single[n].device_write_bytes)),
                "%.1f" % single[n].cpu_utilization,
            ]
        )
    report(
        "fig05",
        "Figure 5: concurrent random writes (single vs multi instance)\n"
        + format_table(
            [
                "threads",
                "single-instance QPS",
                "multi-instance QPS",
                "single IO BW",
                "compaction share",
                "single busy cores",
            ],
            rows,
        )
        + "\npinned 16-thread single-instance: %s (unpinned %s)"
        % (format_qps(pinned16.qps), format_qps(single[16].qps)),
    )
    single_peak = max(m.qps for m in single.values())
    multi_peak = max(m.qps for m in multi.values())
    speedup32 = single[32].qps / single[1].qps
    pin_gain = pinned16.qps / single[16].qps
    bw_util16 = single[16].bandwidth_utilization
    assert_shapes(
        "fig05",
        [
            ShapeCheck("fig05.single_speedup_32", speedup32, 1.3, 5.0),
            ShapeCheck("fig05.multi_vs_single_peak", multi_peak / single_peak, 1.3),
            ShapeCheck(
                "fig05.multi_sublinear_32",
                multi[32].qps / single[1].qps,
                2.0,
                28.0,
            ),
            ShapeCheck("fig05.single_bandwidth_16", bw_util16, 0.0, 0.5),
            ShapeCheck("fig05.pinning", pin_gain, 0.9, 1.4),
        ],
    )
