"""Figure 22: p2KVS on LevelDB.

Paper: with #instances == #threads, p2KVS lifts LevelDB's random writes and
random reads several times over single-threaded LevelDB — even
though LevelDB has no pipelined write or multiget (OBM reads fall back to
concurrently-submitted gets).
"""

from benchmarks.common import READ_KEYS, assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.workloads import fillrandom, readrandom

THREADS = [1, 2, 4, 8, 16]
WRITE_OPS = 16000
READ_OPS = 12000


def run_mode(kind: str, mode: str, n_threads: int, **opts) -> float:
    if mode == "write":
        ops, preload = fillrandom(WRITE_OPS), None
    else:
        ops, preload = readrandom(READ_OPS, READ_KEYS), fillrandom(READ_KEYS)
    return run_case(kind, ops, n_threads, preload=preload, **opts)[0].qps


def run_fig22():
    out = {}
    for mode in ("write", "read"):
        for n in THREADS:
            out[("leveldb", mode, n)] = run_mode("leveldb", mode, n)
            out[("p2kvs", mode, n)] = run_mode(
                "p2kvs", mode, n, workers=n, flavor="leveldb"
            )
    return out


def test_fig22_p2kvs_on_leveldb(benchmark):
    out = once(benchmark, run_fig22)
    rows = [
        [
            n,
            format_qps(out[("leveldb", "write", n)]),
            format_qps(out[("p2kvs", "write", n)]),
            format_qps(out[("leveldb", "read", n)]),
            format_qps(out[("p2kvs", "read", n)]),
        ]
        for n in THREADS
    ]
    report(
        "fig22",
        "Figure 22: p2KVS on LevelDB (#instances == #threads)\n"
        + format_table(
            [
                "threads",
                "LevelDB write",
                "p2KVS write",
                "LevelDB read",
                "p2KVS read",
            ],
            rows,
        ),
    )
    base_write = out[("leveldb", "write", 1)]
    base_read = out[("leveldb", "read", 1)]
    write_gain = max(out[("p2kvs", "write", n)] for n in THREADS) / base_write
    read_gain = max(out[("p2kvs", "read", n)] for n in THREADS) / base_read
    at_same_threads = out[("p2kvs", "write", 8)] / out[("leveldb", "write", 8)]
    assert_shapes(
        "fig22",
        [
            ShapeCheck("fig22.write", write_gain, 2.0),
            ShapeCheck("fig22.read", read_gain, 2.5),
            ShapeCheck("fig22.same_threads", at_same_threads, 1.1),
            ShapeCheck("fig22.no_multiget", out[("p2kvs", "read", 1)] / base_read, 0.6),
        ],
    )
