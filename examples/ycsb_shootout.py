#!/usr/bin/env python
"""YCSB shoot-out: RocksDB vs PebblesDB vs KVell vs p2KVS-8.

Loads a dataset and runs YCSB A, B and C (Table 1 mixes) through all four
systems on identical simulated hardware — the paper's Figures 16 and 20 in
miniature.

Run:  python examples/ycsb_shootout.py
"""

from repro.engine import make_env
from repro.harness import preload, run_closed_loop
from repro.harness.report import format_qps, format_table
from repro.systems import open_system
from repro.workloads import YCSBWorkload

RECORDS = 8000
OPS = 5000
N_THREADS = 16

#: label -> registry name (repro.systems); KVell and p2KVS default to 8 workers.
SYSTEMS = {
    "RocksDB": "rocksdb",
    "PebblesDB": "pebblesdb",
    "KVell-8": "kvell",
    "p2KVS-8": "p2kvs",
}


def run(kind, workload_name):
    env = make_env(n_cores=44)
    system = open_system(SYSTEMS[kind], env)
    workload = YCSBWorkload(workload_name, RECORDS, seed=21)
    preload(env, system, workload.load_ops(), n_threads=8)
    return run_closed_loop(env, system, workload.split(OPS, N_THREADS)).qps


def main():
    workloads = ["A", "B", "C"]
    rows = []
    for kind in SYSTEMS:
        rows.append(
            [kind] + [format_qps(run(kind, w)) for w in workloads]
        )
    print("YCSB on identical simulated hardware (%d threads):" % N_THREADS)
    print(format_table(["system"] + ["YCSB-%s" % w for w in workloads], rows))


if __name__ == "__main__":
    main()
