"""Figure 23: p2KVS on WiredTiger (B+-tree, WAL, no batch write).

Paper: p2KVS scales WiredTiger's writes to 8.4x and reads to 15x of its
single-thread throughput, beats vanilla WiredTiger at equal thread counts,
and write gains degrade past ~12 workers (per-instance overheads).
OBM-write is disabled (no batch-write support); OBM-read still submits
batched gets concurrently.
"""

from benchmarks.common import READ_KEYS, assert_shapes, open_case, once, report, run_case
from repro.baselines import wiredtiger_adapter_factory
from repro.engine import make_env
from repro.harness import P2KVSSystem, open_system
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom, readrandom

THREADS = [1, 2, 4, 8, 16]
WRITE_OPS = 12000
READ_OPS = 12000


def open_vanilla(env, cache_bytes: int, n_threads: int):
    system, _ = open_case("wiredtiger", env=env)
    system.store.page_cache.capacity_bytes = cache_bytes
    return system


def open_p2kvs_over_wiredtiger(env, cache_bytes: int, n_threads: int):
    # Built by hand: p2KVS over WiredTiger instances is not a registered
    # configuration (the registry's p2kvs flavors are the LSM presets).
    return open_system(
        env,
        P2KVSSystem.open(
            env,
            n_workers=n_threads,
            adapter_open=wiredtiger_adapter_factory(cache_bytes=cache_bytes),
        ),
    )


OPENERS = {"wiredtiger": open_vanilla, "p2kvs": open_p2kvs_over_wiredtiger}


def run_mode(kind: str, mode: str, n_threads: int) -> float:
    # The paper's WiredTiger read test is device-bound (its 15x read gain
    # comes from overlapping the per-instance page IO); use cold caches.
    cold = mode == "read"
    env = make_env(
        n_cores=44, page_cache_bytes=(512 * 1024 if cold else 1 << 40)
    )
    system = OPENERS[kind](env, 256 * 1024 if cold else 8 * 1024 * 1024, n_threads)
    if mode == "write":
        ops, preload = fillrandom(WRITE_OPS), None
    else:
        ops, preload = readrandom(READ_OPS, READ_KEYS), fillrandom(READ_KEYS)
    return run_case(system, ops, n_threads, env=env, preload=preload)[0].qps


def run_fig23():
    out = {}
    for mode in ("write", "read"):
        for n in THREADS:
            for kind in OPENERS:
                out[(kind, mode, n)] = run_mode(kind, mode, n)
    return out


def test_fig23_p2kvs_on_wiredtiger(benchmark):
    out = once(benchmark, run_fig23)
    rows = [
        [
            n,
            format_qps(out[("wiredtiger", "write", n)]),
            format_qps(out[("p2kvs", "write", n)]),
            format_qps(out[("wiredtiger", "read", n)]),
            format_qps(out[("p2kvs", "read", n)]),
        ]
        for n in THREADS
    ]
    report(
        "fig23",
        "Figure 23: p2KVS on WiredTiger (#instances == #threads)\n"
        + format_table(
            [
                "threads",
                "WiredTiger write",
                "p2KVS write",
                "WiredTiger read",
                "p2KVS read",
            ],
            rows,
        ),
    )
    base_write = out[("wiredtiger", "write", 1)]
    base_read = out[("wiredtiger", "read", 1)]
    write_gain = max(out[("p2kvs", "write", n)] for n in THREADS) / base_write
    read_gain = max(out[("p2kvs", "read", n)] for n in THREADS) / base_read
    assert_shapes(
        "fig23",
        [
            ShapeCheck(
                "p2KVS write scaling over 1-thread WiredTiger",
                "up to 8.4x",
                write_gain,
                3.0,
            ),
            ShapeCheck(
                "p2KVS read scaling over 1-thread WiredTiger",
                "up to 15x",
                read_gain,
                4.0,
            ),
            ShapeCheck(
                "vanilla WiredTiger writes barely scale (exclusive writer)",
                "poor scaling",
                out[("wiredtiger", "write", 16)] / base_write,
                0.3,
                3.0,
            ),
            ShapeCheck(
                "p2KVS beats WiredTiger at the same thread count (writes, 8)",
                ">1x",
                out[("p2kvs", "write", 8)] / out[("wiredtiger", "write", 8)],
                1.2,
            ),
        ],
    )
