"""Extension bench: the Facebook/ZippyDB-style mixed-size workload.

The paper justifies its 128-byte focus with Cao et al.'s characterization
(90% of values < 1 KB, small mean).  This bench runs that *actual mixed
distribution* — not a single fixed size — through RocksDB and p2KVS-8 to
confirm the headline conclusion carries over from the fixed-size
micro-benchmarks to a realistic size mix.
"""

from benchmarks.common import READ_KEYS, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import facebook_mixed_workload, fillrandom

N_THREADS = 32
N_OPS = 10000


def run_mix(kind: str, get_ratio: float, put_ratio: float) -> float:
    ops = facebook_mixed_workload(
        N_OPS, READ_KEYS, get_ratio=get_ratio, put_ratio=put_ratio, seed=9
    )
    return run_case(kind, ops, N_THREADS, preload=fillrandom(READ_KEYS))[0].qps


MIXES = {
    "ZippyDB-like (78/19/3)": (0.78, 0.19),
    "write-heavy (20/77/3)": (0.20, 0.77),
}


def run_bench():
    out = {}
    for label, (get_ratio, put_ratio) in MIXES.items():
        out[("rocksdb", label)] = run_mix("rocksdb", get_ratio, put_ratio)
        out[("p2kvs", label)] = run_mix("p2kvs", get_ratio, put_ratio)
    return out


def test_facebook_mixed_sizes(benchmark):
    out = once(benchmark, run_bench)
    rows = [
        [
            label,
            format_qps(out[("rocksdb", label)]),
            format_qps(out[("p2kvs", label)]),
            "%.2fx" % (out[("p2kvs", label)] / out[("rocksdb", label)]),
        ]
        for label in MIXES
    ]
    report(
        "facebook_mixed",
        "Extension: Facebook-style mixed KV sizes (Cao et al. FAST'20 mix)\n"
        + format_table(["mix", "RocksDB", "p2KVS-8", "speedup"], rows),
    )
    write_heavy_gain = (
        out[("p2kvs", "write-heavy (20/77/3)")]
        / out[("rocksdb", "write-heavy (20/77/3)")]
    )
    zippy_gain = (
        out[("p2kvs", "ZippyDB-like (78/19/3)")]
        / out[("rocksdb", "ZippyDB-like (78/19/3)")]
    )
    assert_shapes(
        "facebook_mixed",
        [
            ShapeCheck(
                "p2KVS wins the write-heavy mixed-size mix",
                "small-write bottleneck holds for realistic sizes",
                write_heavy_gain,
                1.2,
            ),
            # Read-dominated + warm cache: the same D3 divergence as YCSB A
            # (EXPERIMENTS.md) — direct RocksDB threads beat 8 workers here.
            ShapeCheck(
                "read-dominated mix (D3 divergence regime)",
                "paper would expect >=1x",
                zippy_gain,
                0.25,
                2.0,
            ),
        ],
    )
