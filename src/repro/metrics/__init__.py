"""Live metrics & telemetry: stats registry, sim-time sampler, per-request
perf contexts, and exporters (JSON / Prometheus text / CSV time series).

See docs/METRICS.md for the metric catalogue and usage; the one-line tour:

* every :class:`~repro.engine.env.Env` owns a :class:`StatsRegistry` at
  ``env.metrics``; components register counters/gauges/histograms at open;
* ``install_stats(env)`` opts a run into per-request
  :class:`PerfContext` drill-down and installs a :class:`Sampler` that
  ``run_closed_loop`` starts/stops around the measured window;
* exporters serialize the registry and sampled series after the run.
"""

from repro.metrics.export import (
    prometheus_text,
    snapshot_json,
    timeseries_csv,
    write_stats_files,
)
from repro.metrics.perf_context import PERF_FIELDS, PerfContext
from repro.metrics.registry import (
    CounterGroup,
    EventLog,
    GaugeStat,
    Histogram,
    StatsRegistry,
)
from repro.metrics.sampler import DEFAULT_INTERVAL, Sampler, install_stats

__all__ = [
    "CounterGroup",
    "DEFAULT_INTERVAL",
    "EventLog",
    "GaugeStat",
    "Histogram",
    "PERF_FIELDS",
    "PerfContext",
    "Sampler",
    "StatsRegistry",
    "install_stats",
    "prometheus_text",
    "snapshot_json",
    "timeseries_csv",
    "write_stats_files",
]
