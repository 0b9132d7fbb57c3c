"""Host-side profiling plane: where the *simulator's* wall-clock time goes.

Every other observability layer (trace, metrics, critpath, monitor) measures
*simulated* time.  This package measures the *host*: the DES kernel and the
Python engine are the hardware this repo runs on, and speed work on them
(ROADMAP item 4) needs attribution before optimisation.  Three instruments:

* :mod:`repro.perf.zones` — a low-overhead zone API (`enter`/`leave` around
  synchronous code sections) instrumented at ~14 choke points across the
  kernel event loop, skiplist/memtable, WAL encode, bloom probes, SST
  builds, compaction and the observability probe sites.  Rolls up into a
  per-subsystem wall-time tree (:mod:`repro.perf.report`).
* :mod:`repro.perf.sampling` — an optional ``sys.setprofile`` stack sampler
  emitting collapsed stacks and speedscope JSON flamegraphs.
* :mod:`repro.perf.tax` — the instrument-tax harness: times a
  caller-supplied workload once per observability layer and reports
  per-layer wall-clock overhead.

**Determinism contract.**  This is the only package in ``src/`` allowed to
read host clocks (the ``wall-clock`` lint rule exempts exactly
``repro.perf``), and nothing it returns may flow into a simulation
decision (timeout/exec/submit/sort key): profiler-attached runs are
byte-identical to unprofiled runs — asserted in ``tests/test_perf.py``
across reruns and ``--schedule-seed``.
"""

from repro.perf.report import format_zone_tree, zone_tree
from repro.perf.sampling import StackSampler
from repro.perf.zones import (
    PROFILER,
    ZoneProfiler,
    attach,
    install,
    uninstall,
)

__all__ = [
    "PROFILER",
    "StackSampler",
    "ZoneProfiler",
    "attach",
    "format_zone_tree",
    "install",
    "uninstall",
    "zone_tree",
]
