"""Ablation: hash vs range partitioning under skew (paper Section 4.2).

The paper argues the modular hash keeps even highly-skewed (zipfian)
workloads balanced across partitions because scrambling decorrelates rank
and placement.  Range partitioning preserves key adjacency (good for scans)
but concentrates a skewed or sequential workload on few workers.
"""

from benchmarks.common import FIGURE_ENGINE, assert_shapes, once, report, run_case
from repro.core import RangeRouter, adapter_factory
from repro.engine import make_env
from repro.harness import P2KVSSystem, open_system
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.systems import BENCH_SHAPE
from repro.workloads import ScrambledZipfianGenerator, make_key, make_value

N_THREADS = 16
N_OPS = 12000
KEY_SPACE = 100000
N_WORKERS = 4


def zipfian_ops(n_ops: int):
    gen = ScrambledZipfianGenerator(KEY_SPACE, seed=17)
    for _ in range(n_ops):
        i = gen.next_id()
        yield "update", make_key(i), make_value(i, 112)


def sequential_ops(n_ops: int):
    for i in range(n_ops):
        yield "insert", make_key(i), make_value(i, 112)


def run_cell(router_kind: str, workload: str):
    env = make_env(n_cores=44)
    router = None
    if router_kind == "range":
        boundaries = [
            make_key(KEY_SPACE * (i + 1) // N_WORKERS) for i in range(N_WORKERS - 1)
        ]
        router = RangeRouter(boundaries)
    # Built by hand: the subject is the router, which no registered
    # configuration exposes (the registry's p2kvs always hashes).
    system = open_system(
        env,
        P2KVSSystem.open(
            env,
            n_workers=N_WORKERS,
            adapter_open=adapter_factory("rocksdb", **BENCH_SHAPE, **FIGURE_ENGINE),
            router=router,
        ),
    )
    ops = zipfian_ops(N_OPS) if workload == "zipfian" else sequential_ops(N_OPS)
    metrics, _ = run_case(system, ops, N_THREADS, env=env)
    loads = [w.counters.get("requests") for w in system.kvs.workers]
    imbalance = max(loads) / max(1.0, sum(loads) / len(loads))
    return metrics.qps, imbalance


def run_ablation():
    out = {}
    for router_kind in ("hash", "range"):
        for workload in ("zipfian", "sequential"):
            out[(router_kind, workload)] = run_cell(router_kind, workload)
    return out


def test_ablation_partitioning(benchmark):
    out = once(benchmark, run_ablation)
    rows = [
        [
            router_kind,
            workload,
            format_qps(qps),
            "%.2f" % imbalance,
        ]
        for (router_kind, workload), (qps, imbalance) in out.items()
    ]
    report(
        "ablation_partitioning",
        "Ablation: hash vs range partitioning (p2KVS-4, 16 threads)\n"
        "(imbalance = busiest worker / average worker; 1.0 is perfect)\n"
        + format_table(["router", "workload", "throughput", "imbalance"], rows),
    )
    assert_shapes(
        "ablation_partitioning",
        [
            ShapeCheck(
                "ablation_partitioning.hash_zipfian",
                out[("hash", "zipfian")][1],
                1.0,
                1.5,
            ),
            ShapeCheck(
                "ablation_partitioning.range_sequential",
                out[("range", "sequential")][1],
                2.0,
            ),
            ShapeCheck(
                "ablation_partitioning.hash_vs_range",
                out[("hash", "sequential")][0] / out[("range", "sequential")][0],
                1.3,
            ),
        ],
    )
