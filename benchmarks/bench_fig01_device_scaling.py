"""Figure 1: RocksDB throughput on HDD vs SATA SSD vs NVMe SSD.

The paper's motivating observation: replacing an HDD with an SSD boosts
*read* QPS by up to two orders of magnitude, but small-KV *write* QPS barely
moves (CPU-bound), at 1 and 8 user threads.
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.engine import make_env
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.sim.device import HDD_WD100EFAX, OPTANE_905P, SATA_860PRO
from repro.workloads import fillrandom, fillseq, overwrite, readrandom, readseq

DEVICES = [
    ("HDD", HDD_WD100EFAX),
    ("SATA SSD", SATA_860PRO),
    ("NVMe SSD", OPTANE_905P),
]

N_WRITE = 4000
N_READ = 1500
PRELOAD = 8000
# Figure 1 reads are cold (the paper's read gap means reads hit the device):
# a small page cache forces that.
COLD_CACHE = 256 * 1024


#: mode -> (measured ops, whether they run over the preloaded dataset)
MODES = {
    "fillseq": (lambda: fillseq(N_WRITE), False),
    "fillrandom": (lambda: fillrandom(N_WRITE), False),
    "overwrite": (lambda: overwrite(N_WRITE, PRELOAD), True),
    "readseq": (lambda: readseq(N_READ), True),
    "readrandom": (lambda: readrandom(N_READ, PRELOAD), True),
}


def run_mode(spec, mode: str, n_threads: int) -> float:
    make_ops, preloaded = MODES[mode]
    return run_case(
        "rocksdb",
        make_ops(),
        n_threads,
        env=make_env(n_cores=44, device_spec=spec, page_cache_bytes=COLD_CACHE),
        preload=fillrandom(PRELOAD) if preloaded else None,
        preload_threads=4,
    )[0].qps


def run_fig01():
    out = {}
    for n_threads in (1, 8):
        for device_name, spec in DEVICES:
            for mode in MODES:
                out[(n_threads, device_name, mode)] = run_mode(spec, mode, n_threads)
    return out


def test_fig01_device_scaling(benchmark):
    out = once(benchmark, run_fig01)
    rows = []
    for n_threads in (1, 8):
        for device_name, _ in DEVICES:
            rows.append(
                [
                    "%d thread(s)" % n_threads,
                    device_name,
                ]
                + [format_qps(out[(n_threads, device_name, mode)]) for mode in MODES]
            )
    report(
        "fig01",
        "Figure 1: RocksDB throughput by device (128-byte KVs)\n"
        + format_table(
            ["threads", "device"] + list(MODES),
            rows,
        ),
    )

    t1 = {k: v for k, v in out.items() if k[0] == 1}
    read_gap = t1[(1, "NVMe SSD", "readrandom")] / t1[(1, "HDD", "readrandom")]
    write_gap = t1[(1, "NVMe SSD", "fillrandom")] / t1[(1, "HDD", "fillrandom")]
    t8_gain = out[(8, "NVMe SSD", "fillrandom")] / t1[(1, "NVMe SSD", "fillrandom")]
    assert_shapes(
        "fig01",
        [
            ShapeCheck(
                "random-read NVMe/HDD gap", "~200x", read_gap, 20.0
            ),
            ShapeCheck(
                "random-write NVMe/HDD gap (small)", "~1x", write_gap, 0.5, 4.0
            ),
            ShapeCheck(
                "8-thread random-write speedup (sublinear)",
                "~2.5x",
                t8_gain,
                1.2,
                6.0,
            ),
        ],
    )
