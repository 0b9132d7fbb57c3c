"""perfbench — the repository's benchmark.

Seven workloads drive the simulator from outside, through public ``repro``
API only, and report two kinds of number:

* *host* numbers (how fast the simulator runs: ``host_ops_per_s``,
  ``setup_s``, ``peak_rss_mb``) — noisy even in reference seconds
  (``perfbench/hostclock.py``), gated by the bounds in ``BENCHMARK.json``;
* *simulated* numbers (qps, p99, write amplification, Fig-6 blame shares) —
  deterministic, recorded per layer, and required to repeat bit-for-bit.

``python3 -m perfbench --workload W --seed N --seconds S --trace 0|1`` is one
measured run (the contract ``BENCHMARK.json`` describes); without
``--workload`` the whole suite runs, one subprocess per workload and trace
mode.  See ``perfbench/README.md``.
"""
