"""Ablation: the OBM batch-size cap (paper Section 4.3, default 32).

The cap exists to bound tail latency ("to prevent the tail-latency problems
due to extremely large batched-requests").  This ablation sweeps the cap and
measures throughput and p99: throughput grows then saturates with the cap,
while very large caps buy little throughput for worse tails.
"""

from benchmarks.common import assert_shapes, open_case, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom

CAPS = [1, 4, 16, 32, 128]
N_THREADS = 32
N_OPS = 16000


def run_cap(cap: int):
    # Opened first: the average batch size is read off the framework itself.
    system, env = open_case("p2kvs", workers=4, obm_cap=cap)
    metrics, _ = run_case(system, fillrandom(N_OPS), N_THREADS, env=env)
    avg_batch = system.kvs.obm_stats()["avg_batch"]
    return metrics.qps, metrics.latency_of("write").p99, avg_batch


def run_ablation():
    return {cap: run_cap(cap) for cap in CAPS}


def test_ablation_obm_cap(benchmark):
    out = once(benchmark, run_ablation)
    rows = [
        [
            cap,
            format_qps(out[cap][0]),
            "%.1f us" % (out[cap][1] * 1e6),
            "%.1f" % out[cap][2],
        ]
        for cap in CAPS
    ]
    report(
        "ablation_obm_cap",
        "Ablation: OBM batch cap (p2KVS-4, 32 writer threads)\n"
        + format_table(
            ["cap", "throughput", "write p99", "avg batch size"], rows
        ),
    )
    assert_shapes(
        "ablation_obm_cap",
        [
            ShapeCheck(
                "batching (cap 32) beats no batching (cap 1)",
                "OBM works",
                out[32][0] / out[1][0],
                1.2,
            ),
            ShapeCheck(
                "gains saturate: cap 128 is within 25% of cap 32",
                "diminishing returns",
                out[128][0] / out[32][0],
                0.75,
                1.35,
            ),
            ShapeCheck(
                "cap actually bounds the batches",
                "avg <= cap",
                float(all(out[cap][2] <= cap + 1e-9 for cap in CAPS)),
                1.0,
                1.0,
            ),
        ],
    )
