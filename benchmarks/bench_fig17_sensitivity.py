"""Figure 17: sensitivity to the number of workers and to OBM.

Paper (all normalized to RocksDB = single worker, OBM off, 32 user threads):
inter-instance parallelism alone gives ~3x/5x at 4/8 workers on LOAD and up
to 3.3x/5.8x on C; OBM multiplies writes by up to 2x and reads by up to 5x
at one instance; gains shrink for read workloads at 8 workers (SSD nearly
exhausted).  8 workers is the sweet spot.
"""

from benchmarks.common import assert_shapes, once, report, run_ycsb
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import YCSBWorkload

WORKERS = [1, 2, 4, 8]
WORKLOADS = ["LOAD", "A", "B", "C"]
N_THREADS = 32
RECORDS = 16000
OPS = 10000


def run_cell(workload_name: str, n_workers: int, obm: bool) -> float:
    workload = YCSBWorkload(workload_name, RECORDS, seed=5)
    return run_ycsb(
        "p2kvs", workload, OPS, N_THREADS, workers=n_workers, obm=obm
    )[0].qps


def run_fig17():
    out = {}
    for workload_name in WORKLOADS:
        for n_workers in WORKERS:
            for obm in (False, True):
                out[(workload_name, n_workers, obm)] = run_cell(
                    workload_name, n_workers, obm
                )
    return out


def test_fig17_workers_and_obm(benchmark):
    out = once(benchmark, run_fig17)
    rows = []
    for workload_name in WORKLOADS:
        base = out[(workload_name, 1, False)]  # == RocksDB per the paper
        rows.append(
            [workload_name]
            + [
                "%.2fx / %.2fx"
                % (
                    out[(workload_name, n, False)] / base,
                    out[(workload_name, n, True)] / base,
                )
                for n in WORKERS
            ]
        )
    report(
        "fig17",
        "Figure 17: normalized QPS (OBM off / OBM on), 32 user threads\n"
        + format_table(
            ["workload"] + ["%d worker(s)" % n for n in WORKERS], rows
        ),
    )

    def norm(workload, workers, obm):
        return out[(workload, workers, obm)] / out[(workload, 1, False)]

    assert_shapes(
        "fig17",
        [
            ShapeCheck(
                "LOAD: 8 instances alone",
                "~5x",
                norm("LOAD", 8, False),
                2.0,
                10.0,
            ),
            ShapeCheck(
                "LOAD: OBM adds on top of 8 workers",
                "up to 2x",
                out[("LOAD", 8, True)] / out[("LOAD", 8, False)],
                1.1,
            ),
            ShapeCheck(
                "C: inter-instance parallelism helps reads",
                "3.3x/5.8x at 4/8",
                norm("C", 8, False),
                1.5,
                10.0,
            ),
            ShapeCheck(
                "C: OBM helps even a single instance",
                "up to 5x",
                out[("C", 1, True)] / out[("C", 1, False)],
                1.1,
            ),
            ShapeCheck(
                "B gains less from OBM than C (mixed ops split batches)",
                "2.2-4.2x vs 5x",
                (out[("C", 8, True)] / out[("C", 8, False)])
                / max(out[("B", 8, True)] / out[("B", 8, False)], 1e-9),
                0.9,
            ),
            ShapeCheck(
                "more workers monotonically help LOAD (OBM on)",
                "monotone",
                float(
                    all(
                        out[("LOAD", WORKERS[i], True)]
                        <= out[("LOAD", WORKERS[i + 1], True)] * 1.1
                        for i in range(len(WORKERS) - 1)
                    )
                ),
                1.0,
                1.0,
            ),
        ],
    )
