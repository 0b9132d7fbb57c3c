"""Figure 15: RANGE and SCAN throughput at different scan sizes.

Paper: p2KVS beats RocksDB on RANGE (sub-ranges fork to all instances in
parallel) and on small SCANs (parallel seek), converging
to parity at large scan sizes where p2KVS's over-read saturates the SSD.
Both SCAN strategies of Section 4.4 are exercised.
"""

import random

from benchmarks.common import READ_KEYS, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom, make_key

SCAN_SIZES = [10, 100, 1000]
N_QUERIES = {10: 1200, 100: 400, 1000: 60}


def build_ops(op_kind: str, size: int):
    """RANGE ops use explicit [begin, end] bounds covering ~size keys."""
    rng = random.Random(7)
    ops = []
    for _ in range(N_QUERIES[size]):
        begin_id = rng.randrange(READ_KEYS - size)
        if op_kind == "range":
            ops.append(("range", make_key(begin_id), make_key(begin_id + size - 1)))
        else:
            ops.append(("scan", make_key(begin_id), size))
    return ops


def run_query(kind: str, op_kind: str, size: int, **opts):
    return run_case(
        kind, build_ops(op_kind, size), 1, preload=fillrandom(READ_KEYS), **opts
    )[0].qps


def run_fig15():
    out = {}
    for size in SCAN_SIZES:
        for kind in ("rocksdb", "p2kvs"):
            for op_kind in ("range", "scan"):
                out[(kind, op_kind, size)] = run_query(kind, op_kind, size)
        out[("p2kvs-serial", "scan", size)] = run_query(
            "p2kvs", "scan", size, scan_strategy="serial"
        )
    return out


def test_fig15_range_and_scan(benchmark):
    out = once(benchmark, run_fig15)
    rows = []
    for size in SCAN_SIZES:
        rows.append(
            [
                size,
                format_qps(out[("rocksdb", "range", size)]),
                format_qps(out[("p2kvs", "range", size)]),
                format_qps(out[("rocksdb", "scan", size)]),
                format_qps(out[("p2kvs", "scan", size)]),
                format_qps(out[("p2kvs-serial", "scan", size)]),
            ]
        )
    report(
        "fig15",
        "Figure 15: RANGE / SCAN throughput (single user thread)\n"
        + format_table(
            [
                "scan size",
                "RocksDB RANGE",
                "p2KVS RANGE",
                "RocksDB SCAN",
                "p2KVS SCAN (parallel)",
                "p2KVS SCAN (serial)",
            ],
            rows,
        ),
    )
    range_gain_small = out[("p2kvs", "range", 100)] / out[("rocksdb", "range", 100)]
    scan_gain_small = out[("p2kvs", "scan", 10)] / out[("rocksdb", "scan", 10)]
    scan_ratio_large = out[("p2kvs", "scan", 1000)] / out[("rocksdb", "scan", 1000)]
    assert_shapes(
        "fig15",
        [
            ShapeCheck("fig15.range", range_gain_small, 1.3),
            ShapeCheck("fig15.small_scan", scan_gain_small, 1.05, 4.0),
            ShapeCheck("fig15.large_scan", scan_ratio_large, 0.4, 2.5),
            ShapeCheck(
                "fig15.serial",
                out[("p2kvs", "scan", 10)]
                / max(out[("p2kvs-serial", "scan", 10)], 1e-9),
                0.8,
            ),
        ],
    )
