"""Live metrics & telemetry: stats registry, sim-time sampler, and exporters
(JSON / Prometheus text / CSV time series).

See docs/METRICS.md for the metric catalogue and usage; the one-line tour:

* every :class:`~repro.engine.env.Env` owns a :class:`StatsRegistry` at
  ``env.metrics``; components register counters/gauges/histograms at open;
* ``install_stats(env)`` installs a :class:`Sampler` that the load driver
  (``run_closed_loop`` or ``run_service_load``) starts and stops around the
  measured window;
* exporters serialize the registry and sampled series after the run.
"""

from repro.metrics.export import (
    prometheus_text,
    snapshot_json,
    timeseries_csv,
    write_stats_files,
)
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
    "Sampler",
    "StatsRegistry",
    "install_stats",
    "prometheus_text",
    "snapshot_json",
    "timeseries_csv",
    "write_stats_files",
]
