"""Figures 18 + 19: sensitivity to key-value size.

Paper: small KVs benefit most from OBM (merging many small log IOs); at
1 KB the write-side OBM benefit shrinks (large IOs already efficient) while
read-side OBM stays effective, and p2KVS's overall speedup over RocksDB at
1 KB is lower than at 128 B.
"""

from benchmarks.bench_fig14_point_query import SYSTEMS
from benchmarks.common import assert_shapes, once, report, run_ycsb
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import YCSBWorkload

VALUE_SIZES = {"128B": 112, "1KB": 1008, "4KB": 4080}
WORKLOADS = ["LOAD", "A", "C"]
N_THREADS = 32
RECORDS = {"128B": 16000, "1KB": 6000, "4KB": 2000}
OPS = {"128B": 8000, "1KB": 4000, "4KB": 1500}


def run_fig18():
    out = {}
    for size_label, value_size in VALUE_SIZES.items():
        for workload_name in WORKLOADS:
            for label, (kind, opts) in SYSTEMS.items():
                workload = YCSBWorkload(
                    workload_name, RECORDS[size_label], value_size=value_size, seed=11
                )
                out[(label, workload_name, size_label)] = run_ycsb(
                    kind, workload, OPS[size_label], N_THREADS, **opts
                )[0].qps
    return out


def test_fig18_fig19_kv_size(benchmark):
    out = once(benchmark, run_fig18)
    rows = []
    for size_label in VALUE_SIZES:
        for workload_name in WORKLOADS:
            rocks = out[("rocksdb", workload_name, size_label)]
            noobm = out[("p2kvs-noobm", workload_name, size_label)]
            obm = out[("p2kvs-obm", workload_name, size_label)]
            rows.append(
                [
                    size_label,
                    workload_name,
                    "%.0f KQPS" % (rocks / 1e3),
                    "%.2fx" % (noobm / rocks),
                    "%.2fx" % (obm / rocks),
                    "%.2fx" % (obm / noobm),
                ]
            )
    report(
        "fig18_19",
        "Figures 18+19: KV-size sensitivity (speedups vs RocksDB)\n"
        + format_table(
            [
                "KV size",
                "workload",
                "RocksDB",
                "p2KVS-8 no-OBM",
                "p2KVS-8 OBM",
                "OBM gain",
            ],
            rows,
        ),
    )

    def obm_gain(workload, size_label):
        return (
            out[("p2kvs-obm", workload, size_label)]
            / out[("p2kvs-noobm", workload, size_label)]
        )

    def speedup(workload, size_label):
        return (
            out[("p2kvs-obm", workload, size_label)]
            / out[("rocksdb", workload, size_label)]
        )

    assert_shapes(
        "fig18_19",
        [
            ShapeCheck(
                "fig18_19.load_obm",
                obm_gain("LOAD", "128B") / obm_gain("LOAD", "1KB"),
                1.0,
            ),
            ShapeCheck("fig18_19.read_obm", obm_gain("C", "1KB"), 1.05),
            ShapeCheck(
                "fig18_19.load_speedup",
                speedup("LOAD", "128B") / speedup("LOAD", "1KB"),
                1.0,
            ),
            ShapeCheck("fig18_19.load_1kb", speedup("LOAD", "1KB"), 1.0),
        ],
    )
