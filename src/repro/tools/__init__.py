"""Command-line tools, one module per ``python -m repro.tools.<name>``.

Every runner fronts the one run path in :mod:`repro.tools.common` (flags,
machine, observers, artifacts):

* ``dbbench`` — db_bench-style micro-benchmark runner over any system
  (rocksdb / leveldb / pebblesdb / multi / p2kvs / kvell / wiredtiger) on a
  configurable simulated machine.
* ``ycsb`` — YCSB workload runner (Table 1 mixes).
* ``serve`` — SLO benchmark for the sharded service plane; with
  ``--monitor`` also the health-monitored scenarios.
* ``whatif`` — critical-path what-if profiler: predicted vs. measured
  virtual speedups.
* ``profile`` — host wall-clock zone profile, flame graph and the
  per-observer instrument tax.
* ``faultbench`` — fault-injection and crash-recovery campaign.
* ``check`` — static analysis: the determinism lint rules.
"""
