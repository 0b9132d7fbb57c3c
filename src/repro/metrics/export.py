"""Exporters: JSON snapshot, Prometheus text format, CSV time series.

All three read only the registry/sampler state, never the simulator, so they
can run after ``sim.run()`` returns.  Output is fully sorted — exports of
deterministic runs are byte-identical, which the determinism suite checks.
"""

import json
import re
from typing import Optional

from repro.metrics.registry import StatsRegistry
from repro.metrics.sampler import Sampler

__all__ = [
    "BUCKET_BOUNDS",
    "prometheus_text",
    "snapshot_json",
    "timeseries_csv",
    "write_stats_files",
]

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")

#: Prometheus ``le`` bucket bounds: 64 doubling steps from 1 ns (~18 s of
#: latency, or 1 to ~1.8e10 of any other unit scaled by 1e-9).
BUCKET_BOUNDS = tuple(1e-9 * 2.0 ** i for i in range(64))

#: per-shard service metrics (``service.shard-3.completed``) become one
#: Prometheus family with a ``shard`` label instead of N distinct names.
_SHARD_NAME = re.compile(r"^service\.shard-(\d+)\.(.+)$")


def _prom_name(name: str) -> str:
    """Metric names like ``engine.p2kvs/db-0.flushes`` -> Prometheus-legal
    ``p2kvs_engine_p2kvs_db_0_flushes``."""
    return "p2kvs_" + _PROM_BAD.sub("_", name)


def _split_shard_series(values):
    """Partition name->value rows into plain entries and per-shard families.

    Returns ``(plain, families)`` where ``plain`` keeps the input's sorted
    order and ``families`` maps the label-free raw name (``service.completed``)
    to its ``[(shard_number, value), ...]`` series.
    """
    plain = []
    families = {}
    for name, value in values.items():
        m = _SHARD_NAME.match(name)
        if m is None:
            plain.append((name, value))
            continue
        families.setdefault("service." + m.group(2), []).append(
            (int(m.group(1)), value)
        )
    return plain, families


def _emit_prom_section(lines, values, mtype):
    """One exposition section (counters or gauges), shard families last."""
    plain, families = _split_shard_series(values)
    for name, value in plain:
        prom = _prom_name(name)
        lines.append("# HELP %s %s %s" % (prom, mtype, name))
        lines.append("# TYPE %s %s" % (prom, mtype))
        lines.append("%s %.17g" % (prom, value))
    for raw in sorted(families):
        prom = _prom_name(raw)
        lines.append("# HELP %s %s %s (per shard)" % (prom, mtype, raw))
        lines.append("# TYPE %s %s" % (prom, mtype))
        for shard, value in sorted(families[raw]):
            lines.append('%s{shard="%d"} %.17g' % (prom, shard, value))


def snapshot_json(registry: StatsRegistry) -> str:
    """The full registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True)


def prometheus_text(registry: StatsRegistry) -> str:
    """Prometheus text exposition format (0.0.4).

    Counters and gauges map directly, except the service plane's per-shard
    metrics (``service.shard-3.completed``), which collapse into one family
    per metric carrying a ``shard`` label — the idiomatic Prometheus shape,
    so a dashboard can ``sum by (shard)`` instead of regex-matching names.
    Every histogram is emitted as a native ``histogram`` — the cumulative
    ``_bucket{le="..."}`` series counted from the exact samples at export
    time over the log-spaced :data:`BUCKET_BOUNDS`, plus the mandatory
    ``+Inf`` bucket (always equal to ``_count``).  Sections and series are
    sorted by name (labelled families after the plain names, series by
    shard number), so the output of a deterministic run is byte-identical
    across reruns.
    """
    lines = []
    _emit_prom_section(lines, registry.counter_values(), "counter")
    _emit_prom_section(lines, registry.gauge_values(), "gauge")
    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        prom = _prom_name(name)
        lines.append("# HELP %s histogram %s" % (prom, name))
        lines.append("# TYPE %s histogram" % prom)
        for bound, n in zip(BUCKET_BOUNDS, hist.cumulative(BUCKET_BOUNDS)):
            lines.append('%s_bucket{le="%.17g"} %d' % (prom, bound, n))
        lines.append('%s_bucket{le="+Inf"} %d' % (prom, hist.count))
        lines.append("%s_sum %.17g" % (prom, hist.sum))
        lines.append("%s_count %d" % (prom, hist.count))
    return "\n".join(lines) + "\n"


def timeseries_csv(sampler: Sampler) -> str:
    """The sampled gauge time series as CSV: ``time`` plus one column per
    gauge name (union across rows, sorted; gauges registered after the first
    tick appear as empty cells in earlier rows).  When the sampler's
    retention cap evicted rows, a leading comment records how many — the
    series silently starting late would misread as a quiet warm-up."""
    columns = sampler.column_names()
    lines = []
    if sampler.dropped:
        lines.append("# dropped_samples=%d" % sampler.dropped)
    lines.append(",".join(["time"] + columns))
    for t, row in sampler.samples:
        cells = ["%.9f" % t]
        for name in columns:
            value = row.get(name)
            cells.append("" if value is None else "%.9g" % value)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_stats_files(
    registry: StatsRegistry, base: str, sampler: Optional[Sampler] = None
) -> dict:
    """Write ``<base>.json`` / ``<base>.prom`` / ``<base>.csv`` and return
    the path map (the CSV is skipped when no sampler was installed)."""
    paths = {"json": base + ".json", "prom": base + ".prom"}
    with open(paths["json"], "w") as f:
        f.write(snapshot_json(registry) + "\n")
    with open(paths["prom"], "w") as f:
        f.write(prometheus_text(registry))
    sampler = sampler if sampler is not None else registry.sampler
    if sampler is not None:
        paths["csv"] = base + ".csv"
        with open(paths["csv"], "w") as f:
            f.write(timeseries_csv(sampler))
    return paths
