"""The paper's artifact-appendix claims (A.4.1), as integration tests.

* **C1** — RocksDB's throughput grows only moderately with user threads
  because thread-synchronization overhead becomes the bottleneck
  (Sections 3.2/3.3, Figures 5a and 6).
* **C2** — p2KVS with 8 workers improves RocksDB's write throughput by a
  large factor (Section 5.2, Figure 12a).

These run scaled-down versions of the appendix's E1/E2 experiments so that
``pytest tests/`` alone demonstrates the headline results; the full-size
versions live in ``benchmarks/``.  The paper's numbers come from the claims
table (``repro.harness.paper``); the accept bands are this file's own.
"""

import pytest

from repro import systems
from repro.engine import make_env
from repro.harness import P2KVSSystem, open_system, run_closed_loop
from repro.harness.paper import CLAIMS
from repro.workloads import fillrandom, split_stream

TOTAL_OPS = 12000


def run_rocksdb(n_threads: int):
    env = make_env(n_cores=44)
    system = systems.open_system("rocksdb", env)
    return run_closed_loop(
        env, system, split_stream(fillrandom(TOTAL_OPS), n_threads)
    )


class TestClaimC1:
    """E1: thread scaling + latency breakdown."""

    def test_throughput_gain_is_moderate(self):
        qps_1 = run_rocksdb(1).qps
        qps_32 = run_rocksdb(32).qps
        speedup = qps_32 / qps_1
        # Far from linear scaling in the thread count.
        paper = CLAIMS["fig05.single_speedup_32"]
        assert 1.3 < speedup < 6.0, "speedup %.2fx, paper %.1fx at %d threads" % (
            speedup, paper.value, paper.threads,
        )

    def test_synchronization_is_the_bottleneck_at_32_threads(self):
        buckets = run_rocksdb(32).attribution["categories"]
        lock_time = buckets["WAL lock"] + buckets["MemTable lock"]
        useful_time = buckets["WAL"] + buckets["MemTable"]
        locks, useful = CLAIMS["fig06.locks_32"], CLAIMS["fig06.useful_32"]
        assert lock_time > 2 * useful_time, "paper Fig 6: locks %s vs useful %s" % (
            locks.paper, useful.paper,
        )


class TestClaimC2:
    """E2: p2KVS-8 write speedup over RocksDB."""

    def test_p2kvs8_write_speedup(self):
        rocks = run_rocksdb(16).qps

        env = make_env(n_cores=44)
        system = open_system(
            env, P2KVSSystem.open(env, n_workers=8, async_window=256)
        )
        p2 = run_closed_loop(
            env, system, split_stream(fillrandom(TOTAL_OPS * 2), 16)
        ).qps
        speedup = p2 / rocks
        # We accept anything clearly multiple-x.
        assert speedup > 3.0, "p2KVS-8 speedup only %.2fx, paper %.1fx" % (
            speedup, CLAIMS["fig12.p2kvs8_speedup"].value,
        )
