"""Figure 14: point-query throughput and the impact of OBM.

Paper: without OBM, p2KVS performs about like RocksDB (Fig 14a); enabling
OBM lets the workers batch GETs into multiget and p2KVS scales almost
linearly with offered threads, up to 7.5x over the OBM-disabled case and
5.4x over RocksDB (Fig 14b).
"""

from benchmarks.common import READ_KEYS, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom, readrandom

THREADS = [8, 16, 32, 64]
N_READS = 16000


SYSTEMS = {
    "rocksdb": ("rocksdb", {}),
    "p2kvs-noobm": ("p2kvs", dict(obm=False)),
    "p2kvs-obm": ("p2kvs", dict(obm=True)),
}


def run_fig14():
    out = {}
    for label, (kind, opts) in SYSTEMS.items():
        for n in THREADS:
            out[(label, n)] = run_case(
                kind,
                readrandom(N_READS, READ_KEYS),
                n,
                preload=fillrandom(READ_KEYS),
                **opts
            )[0].qps
    return out


def test_fig14_point_query(benchmark):
    out = once(benchmark, run_fig14)
    rows = [
        [
            n,
            format_qps(out[("rocksdb", n)]),
            format_qps(out[("p2kvs-noobm", n)]),
            format_qps(out[("p2kvs-obm", n)]),
        ]
        for n in THREADS
    ]
    report(
        "fig14",
        "Figure 14: random GET throughput (10M-scaled reads over loaded data)\n"
        + format_table(
            ["threads", "RocksDB", "p2KVS-8 (no OBM)", "p2KVS-8 (OBM)"], rows
        ),
    )
    top = THREADS[-1]
    obm_gain = out[("p2kvs-obm", top)] / out[("p2kvs-noobm", top)]
    vs_rocks = out[("p2kvs-obm", top)] / out[("rocksdb", top)]
    noobm_vs_rocks = out[("p2kvs-noobm", 8)] / out[("rocksdb", 8)]
    rocks_scaling = out[("rocksdb", top)] / out[("rocksdb", 8)]
    assert_shapes(
        "fig14",
        [
            ShapeCheck(
                "without OBM p2KVS is in RocksDB's ballpark",
                "~1x",
                noobm_vs_rocks,
                0.4,
                3.0,
            ),
            ShapeCheck(
                "OBM beats the disabled case at high threads",
                "up to 7.5x",
                obm_gain,
                1.3,
            ),
            ShapeCheck(
                "p2KVS-8 with OBM beats RocksDB at high threads",
                "up to 5.4x",
                vs_rocks,
                1.8,
            ),
            ShapeCheck(
                "RocksDB GET throughput flattens with threads",
                "flat",
                rocks_scaling,
                0.5,
                2.5,
            ),
        ],
    )
