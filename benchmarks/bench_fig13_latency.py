"""Figure 13: write latency vs offered load (open-loop Poisson arrivals).

Paper: average latencies of RocksDB and p2KVS are close under light load,
but RocksDB's tail explodes past ~100 KQPS while p2KVS holds p99 < 1 ms up
to ~400 KQPS — i.e. p2KVS sustains several times higher intensity at the
same latency.  (Rates here are against the scaled simulator's capacities:
RocksDB saturates around 400 KQPS, p2KVS-8 far above.)
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import fillrandom

RATES = [50e3, 100e3, 200e3, 400e3, 800e3]
N_OPS = 4000


def run_point(kind: str, rate: float):
    metrics, _ = run_case(kind, fillrandom(N_OPS), None, rate=rate)
    hist = metrics.latency_of("write")
    return hist.mean, hist.p99


def run_fig13():
    out = {}
    for label, kind in (("rocksdb", "rocksdb"), ("p2kvs-8", "p2kvs")):
        for rate in RATES:
            out[(label, rate)] = run_point(kind, rate)
    return out


def test_fig13_latency_vs_intensity(benchmark):
    out = once(benchmark, run_fig13)
    rows = []
    for rate in RATES:
        r_avg, r_p99 = out[("rocksdb", rate)]
        p_avg, p_p99 = out[("p2kvs-8", rate)]
        rows.append(
            [
                "%.0f KQPS" % (rate / 1e3),
                "%.1f us" % (r_avg * 1e6),
                "%.1f us" % (r_p99 * 1e6),
                "%.1f us" % (p_avg * 1e6),
                "%.1f us" % (p_p99 * 1e6),
            ]
        )
    report(
        "fig13",
        "Figure 13: write latency vs offered intensity (open loop)\n"
        + format_table(
            [
                "intensity",
                "RocksDB avg",
                "RocksDB p99",
                "p2KVS-8 avg",
                "p2KVS-8 p99",
            ],
            rows,
        ),
    )
    light = RATES[0]
    close_at_light = out[("p2kvs-8", light)][0] / out[("rocksdb", light)][0]
    rocks_spike = out[("rocksdb", RATES[-1])][1] / out[("rocksdb", light)][1]
    p2_p99_at_high = out[("p2kvs-8", RATES[-1])][1]
    assert_shapes(
        "fig13",
        [
            ShapeCheck(
                "similar average latency under light load",
                "~1x",
                close_at_light,
                0.3,
                3.0,
            ),
            ShapeCheck(
                "RocksDB p99 spikes when overloaded",
                "drastic spikes",
                rocks_spike,
                10.0,
            ),
            ShapeCheck(
                "p2KVS-8 p99 stays below 1 ms at the highest rate",
                "<1 ms to 400 KQPS",
                float(p2_p99_at_high < 1e-3),
                1.0,
                1.0,
            ),
        ],
    )
