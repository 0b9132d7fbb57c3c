"""Ablation: OS page-cache residency and the read-path regime.

The paper's testbed holds the whole dataset in 64 GB of DRAM, making reads
CPU-bound; its workload-E dataset (86 GB) spills, making scans IO-bound.
This ablation sweeps page-cache capacity to show both regimes — it is the
experimental backing for divergences D3/D4 in EXPERIMENTS.md: warm-cache
reads favor many direct threads (vanilla RocksDB), cold-cache reads favor
p2KVS's overlapped worker IO.
"""

from benchmarks.common import READ_KEYS, assert_shapes, once, report, run_case
from repro.engine import make_env
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom, readrandom

N_THREADS = 32
N_READS = 10000

CACHE_SIZES = {
    "cold (256 KB)": 256 * 1024,
    "half (2 MB)": 2 * 1024 * 1024,
    "warm (all)": 1 << 40,
}


def run_cell(kind: str, page_cache_bytes: int, n_threads: int = N_THREADS) -> float:
    return run_case(
        kind,
        readrandom(N_READS, READ_KEYS),
        n_threads,
        env=make_env(n_cores=44, page_cache_bytes=page_cache_bytes),
        preload=fillrandom(READ_KEYS),
    )[0].qps


def run_ablation():
    out = {}
    for label, nbytes in CACHE_SIZES.items():
        out[("rocksdb", label)] = run_cell("rocksdb", nbytes)
        out[("p2kvs", label)] = run_cell("p2kvs", nbytes)
    # Single-threaded (latency-bound) probes isolate the residency effect
    # from the 32-thread read-lock bound.
    out[("rocksdb-1thr", "cold (256 KB)")] = run_cell(
        "rocksdb", CACHE_SIZES["cold (256 KB)"], n_threads=1
    )
    out[("rocksdb-1thr", "warm (all)")] = run_cell(
        "rocksdb", CACHE_SIZES["warm (all)"], n_threads=1
    )
    return out


def test_ablation_page_cache(benchmark):
    out = once(benchmark, run_ablation)
    rows = [
        [
            label,
            format_qps(out[("rocksdb", label)]),
            format_qps(out[("p2kvs", label)]),
            "%.2fx" % (out[("p2kvs", label)] / out[("rocksdb", label)]),
        ]
        for label in CACHE_SIZES
    ]
    report(
        "ablation_page_cache",
        "Ablation: OS page-cache residency (random GET, 32 threads)\n"
        + format_table(
            ["page cache", "RocksDB", "p2KVS-8 (OBM)", "p2KVS/RocksDB"], rows
        ),
    )
    cold_edge = out[("p2kvs", "cold (256 KB)")] / out[("rocksdb", "cold (256 KB)")]
    warm_edge = out[("p2kvs", "warm (all)")] / out[("rocksdb", "warm (all)")]
    rocks_warm_gain = out[("rocksdb-1thr", "warm (all)")] / out[
        ("rocksdb-1thr", "cold (256 KB)")
    ]
    assert_shapes(
        "ablation_page_cache",
        [
            ShapeCheck(
                "p2KVS keeps an edge in both regimes",
                ">1x cold and warm",
                min(cold_edge, warm_edge),
                1.0,
            ),
            ShapeCheck(
                "warm cache speeds up single-threaded reads",
                "RAM >> flash",
                rocks_warm_gain,
                1.2,
            ),
            ShapeCheck(
                "regimes measurably differ",
                "cache residency matters",
                abs(cold_edge - warm_edge) + 1.0,
                1.0,
            ),
        ],
    )
