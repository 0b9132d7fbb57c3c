"""Shared simulation environment handed to every storage system.

One :class:`Env` = one machine: a simulator clock, a CPU core set, a storage
device and the disk image that survives crashes.  Engines, baselines and the
p2KVS framework all draw threads and charge CPU/IO against the same Env, so
they contend for the same hardware exactly as the paper's co-located
processes do.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.registry import StatsRegistry
from repro.sim.core import Simulator
from repro.sim.cpu import CPUSet
from repro.sim.device import DeviceSpec, OPTANE_905P, StorageDevice
from repro.storage.vfs import DiskImage

__all__ = ["Env", "make_env"]


@dataclass
class Env:
    sim: Simulator
    cpu: CPUSet
    device: StorageDevice
    disk: DiskImage
    #: the machine's live-metrics namespace (see docs/METRICS.md).
    metrics: StatsRegistry = field(default_factory=StatsRegistry)
    #: the installed fault plane (repro.faults), or None — code probes it
    #: with a single attribute test, like the tracer/edgelog off paths.
    faults: Optional[object] = None

    @property
    def now(self) -> float:
        return self.sim.now


def _register_machine_stats(env: "Env") -> None:
    """Register the shared-hardware gauges and cumulative providers that the
    sampler and the MetricsCollector read (device + CPU views)."""
    device, cpu, registry = env.device, env.cpu, env.metrics
    registry.gauge("device.in_flight_ios", device.in_flight)
    registry.gauge("device.queue_depth", lambda: len(device._queue))
    registry.gauge("device.busy_channel_seconds", lambda: device.busy_channel_time)
    registry.gauge("device.read_bytes_total", lambda: device.bytes_by_kind.get("read"))
    registry.gauge("device.write_bytes_total", lambda: device.bytes_by_kind.get("write"))
    registry.gauge("cpu.busy_cores", cpu.busy_cores)
    registry.gauge("cpu.busy_seconds_total", cpu.total_busy_time)
    registry.provider("device.bytes_by_category", device.bytes_by_category.as_dict)
    registry.provider("device.bytes_by_kind", device.bytes_by_kind.as_dict)
    registry.provider("device.io_count", device.io_count.as_dict)
    registry.provider("cpu.busy_by_kind", lambda: dict(cpu.busy_by_kind))


def make_env(
    n_cores: int = 44,
    device_spec: Optional[DeviceSpec] = None,
    series_bin: float = 0.05,
    page_cache_bytes: int = 1 << 40,
) -> Env:
    """Build a machine like the paper's testbed: 2x22-core Xeon, 64 GB DRAM
    (a page cache that holds the whole scaled dataset by default — shrink
    ``page_cache_bytes`` for cold-cache experiments) and an Optane 905p."""
    sim = Simulator()
    cpu = CPUSet(sim, n_cores)
    device = StorageDevice(sim, device_spec or OPTANE_905P, series_bin=series_bin)
    disk = DiskImage(sim, device, page_cache_bytes=page_cache_bytes)
    env = Env(sim=sim, cpu=cpu, device=device, disk=disk)
    _register_machine_stats(env)
    return env
