"""Standard monitor wiring: which series and rules watch which subsystem.

Two attachment points:

* :func:`attach_service_monitor` — the service plane's health rollup.
  Per-shard series (queue depth, completions, sheds, errors) plus
  plane-level aggregation (offered/completed/shed/error deltas, per-class
  windowed latency, migration count), machine signals (device retries,
  write-stall/compaction-backlog activity) and the default rule set:
  pages for things that are *broken* (device errors, a silent plane, a
  stuck write stall, the error SLO burning), warnings for capacity
  pressure that the overload scenarios produce by design (queue
  saturation, shed burn, latency spikes).
* :func:`attach_store_monitor` — a single store under test (the fault
  campaign's shape): device IO progress, retries, stall activity, and the
  page rules that score detection.

Both read only instruments the components already maintain — attaching a
monitor registers no new counters and perturbs no event ordering beyond
its own end-of-instant ticks.  Both install it, unstarted, as
``env.metrics.health``, which the load drivers bracket.
"""

from repro.monitor.monitor import DEFAULT_WINDOW, HealthMonitor
from repro.monitor.rules import (
    BurnRate,
    QueueSaturation,
    RateOfChange,
    ShardSilence,
    Threshold,
)

__all__ = ["attach_service_monitor", "attach_store_monitor"]


def _fault_counter(env, name):
    """Read a fault-plane counter whether or not faults are installed."""
    def read():
        group = env.metrics.groups.get("faults")
        return group.get(name) if group is not None else 0.0
    return read


def _machine_series(monitor: HealthMonitor, env) -> None:
    """Signals every monitored machine watches, service or single store."""
    device = env.device
    monitor.add_series("device.io_total", "counter", device.io_total)
    monitor.add_series(
        "device.write_bytes", "counter",
        lambda: device.bytes_by_kind().get("write", 0.0),
    )
    monitor.add_series(
        "device.io_retries", "counter", _fault_counter(env, "io_retries"),
    )
    monitor.add_series(
        "engine.stall_active", "gauge",
        lambda: env.metrics.events.active_count("write_stall"),
    )
    monitor.add_series(
        "engine.backlog_active", "gauge",
        lambda: env.metrics.events.active_count("compaction_backlog"),
    )


def _page_rules(monitor: HealthMonitor, silence_series: str,
                silence_windows: int, stall_windows: int,
                silence_unless=None) -> None:
    monitor.add_rule(Threshold(
        "device-error-rate", "device.io_retries", limit=1,
        for_windows=1, severity="page",
    ))
    monitor.add_rule(ShardSilence(
        "shard-silence", silence_series, for_windows=silence_windows,
        severity="page", unless_series=silence_unless,
    ))
    monitor.add_rule(Threshold(
        "write-stall-stuck", "engine.stall_active", limit=1,
        for_windows=stall_windows, severity="page",
    ))


def attach_service_monitor(env, plane, window: float = DEFAULT_WINDOW) -> HealthMonitor:
    """Wire the default health plane over a :class:`ServicePlane`."""
    monitor = HealthMonitor(env, window=window)

    # Plane-level rollup: offered is counted by the plane, the rest is
    # aggregated across the lanes' counter groups (the same sources the
    # SLO report reads, so monitor and report can never disagree).
    def lane_total(name):
        return lambda: sum(lane.counters.get(name) for lane in plane.lanes)

    monitor.add_series("service.offered", "counter",
                       lambda: plane.counters.get("offered"))
    monitor.add_series("service.completed", "counter", lane_total("completed"))
    monitor.add_series("service.shed", "counter", lane_total("shed"))
    monitor.add_series("service.errors", "counter", lane_total("errors"))
    monitor.add_series("service.migrations", "counter",
                       lambda: plane.counters.get("partitions_moved"))
    # A live partition move parks the source lane on purpose — its quiet
    # is explained, not broken; the silence watchdog consults this guard.
    monitor.add_series(
        "service.migration_active", "gauge",
        lambda: env.metrics.events.active_count("partition_migration"),
    )
    for cls in ("read", "write"):
        hist = plane.latency_histogram(cls)
        monitor.add_series(
            "service.latency.%s.mean" % cls, "hist_mean",
            (lambda h: lambda: (h.count, h.sum))(hist),
        )
    _machine_series(monitor, env)

    # Per-shard health: the queue gauge the lane already registers, plus
    # the lane counters windowed per shard.
    for lane in plane.lanes:
        shard = "shard-%d" % lane.shard_id
        monitor.add_series(
            "%s.queue_depth" % shard, "gauge",
            (lambda l: lambda: l.queued)(lane),
        )
        for name in ("completed", "shed", "errors"):
            monitor.add_series(
                "%s.%s" % (shard, name), "counter",
                (lambda l, n: lambda: l.counters.get(n))(lane, name),
            )

    # Pages: broken things only — all four stay silent on the pinned
    # clean scenarios (the zero-false-positive contract).
    _page_rules(monitor, "service.completed", silence_windows=4, stall_windows=8,
                silence_unless="service.migration_active")
    monitor.add_rule(BurnRate(
        "slo-error-burn", "service.errors", "service.offered",
        slo=0.999, burn=1.0, fast_windows=2, slow_windows=8, severity="page",
    ))

    # Warnings: capacity pressure the overload scenarios create on purpose.
    for lane in plane.lanes:
        monitor.add_rule(QueueSaturation(
            "queue-saturation-shard-%d" % lane.shard_id,
            "shard-%d.queue_depth" % lane.shard_id,
            cap=lane.queue_cap, fraction=0.9, for_windows=2, severity="warn",
        ))
    monitor.add_rule(BurnRate(
        "shed-burn", "service.shed", "service.offered",
        slo=0.99, burn=2.0, fast_windows=2, slow_windows=8, severity="warn",
    ))
    monitor.add_rule(RateOfChange(
        "read-latency-spike", "service.latency.read.mean",
        factor=4.0, baseline_windows=8, min_baseline=1e-7, severity="warn",
    ))
    env.metrics.health = monitor
    return monitor


def attach_store_monitor(env, window: float = DEFAULT_WINDOW) -> HealthMonitor:
    """Wire the single-store rule set (the fault campaign's monitor)."""
    monitor = HealthMonitor(env, window=window)
    _machine_series(monitor, env)
    _page_rules(monitor, "device.io_total", silence_windows=3, stall_windows=12)
    env.metrics.health = monitor
    return monitor
