"""Storage device models.

A :class:`StorageDevice` services read/write requests with

    service_time = base_latency [+ seek if random] + nbytes / bandwidth

and at most ``channels`` requests in flight (the SSD's internal parallelism;
1 for the HDD).  Requests beyond that queue FIFO.  Bytes are accounted per
*category* ("wal", "flush", "compaction", "read", ...) and per time bin so
that the paper's bandwidth plots (Figures 4, 5b, 12c, 21a) can be rebuilt.

The three presets correspond to the devices in the paper's Figure 1:
a WDC WD100EFAX HDD, a Samsung 860 PRO SATA SSD, and an Intel Optane 905p
NVMe SSD (2.2 GB/s write / 2.6 GB/s read).
"""

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.metrics.registry import CounterGroup
from repro.sim.core import Event, SimError, Simulator
from repro.sim.stats import TimeSeries
from repro.sim.wakeup import annotated

__all__ = [
    "DeviceSpec",
    "StorageDevice",
    "HDD_WD100EFAX",
    "SATA_860PRO",
    "OPTANE_905P",
]

MIB = 1024 * 1024
GIB = 1024 * MIB


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance parameters of a storage device."""

    name: str
    read_bandwidth: float  # bytes/second, sequential
    write_bandwidth: float  # bytes/second, sequential
    read_latency: float  # seconds, per-IO setup cost
    write_latency: float  # seconds, per-IO setup cost
    channels: int  # concurrent in-flight IOs (internal parallelism)
    seek_time: float = 0.0  # extra seconds for *random* IOs (HDD head seek)

    def service_time(self, kind: str, nbytes: int, random: bool) -> float:
        if kind == "read":
            t = self.read_latency + nbytes / self.read_bandwidth
        elif kind == "write":
            t = self.write_latency + nbytes / self.write_bandwidth
        else:
            raise SimError("unknown IO kind %r" % (kind,))
        if random:
            t += self.seek_time
        return t


HDD_WD100EFAX = DeviceSpec(
    name="HDD WDC WD100EFAX 10TB",
    read_bandwidth=0.20 * GIB,
    write_bandwidth=0.19 * GIB,
    read_latency=0.5e-3,
    write_latency=0.5e-3,
    channels=1,
    seek_time=8.0e-3,
)

SATA_860PRO = DeviceSpec(
    name="SATA SSD Samsung 860 PRO 512GB",
    read_bandwidth=0.55 * GIB,
    write_bandwidth=0.51 * GIB,
    read_latency=80e-6,
    write_latency=60e-6,
    channels=4,
)

OPTANE_905P = DeviceSpec(
    name="NVMe SSD Intel Optane 905p 480GB",
    read_bandwidth=2.6 * GIB,
    write_bandwidth=2.2 * GIB,
    read_latency=10e-6,
    write_latency=10e-6,
    channels=8,
)


class StorageDevice:
    """A shared storage device with bounded internal parallelism."""

    def __init__(self, sim: Simulator, spec: DeviceSpec, series_bin: float = 0.1):
        self.sim = sim
        self.spec = spec
        # Free channel *ids* (not just a count) so each in-flight IO can be
        # attributed to a channel — the tracer draws one timeline per channel.
        self._free_channels = list(range(spec.channels))
        self._pipe_free_at: Dict[str, float] = {"read": 0.0, "write": 0.0}
        self._queue: Deque[Tuple] = deque()
        #: what-if knob (see repro.critpath.whatif): service time (setup +
        #: transfer) for a category is multiplied by its factor.
        self.category_scale: Dict[str, float] = {}
        #: fault-injection knob (see repro.faults): when installed, consulted
        #: once per submission; None is the zero-overhead off path.
        self.fault_policy = None
        # Plain (unregistered) groups: make_env exposes them as the
        # ``device.*`` providers, not as registry counter rows.
        self.bytes_by_category = CounterGroup("device.bytes_by_category")
        self.bytes_by_kind = CounterGroup("device.bytes_by_kind")
        self.io_count = CounterGroup("device.io_count")
        self.busy_channel_time = 0.0
        self.bandwidth_series: Dict[str, TimeSeries] = {}
        self._series_bin = series_bin
        #: per-channel track names and "kind:category" labels, formatted once
        #: instead of per IO (string formatting was a measurable share of
        #: _finish on the pinned workloads).
        self._ch_tracks = ["device:ch-%d" % c for c in range(spec.channels)]
        self._kc_labels: Dict[Tuple[str, str], str] = {}

    #: OS page-cache hit service: one RAM copy (no channels, no pipe).
    RAM_LATENCY = 2.0e-6
    RAM_BANDWIDTH = 10 * GIB

    # -- public API -----------------------------------------------------------

    def ram_read(self, nbytes: int) -> Event:
        """A buffered read served by the OS page cache: RAM-speed, does not
        consume device channels or bandwidth.  The paper's testbed has 64 GB
        of DRAM against a ~13 GB dataset, so most SST reads take this path —
        which is why small-KV reads are CPU-bound rather than IOPS-bound."""
        self.io_count.add("ram_read")
        self.bytes_by_kind.add("ram", nbytes)
        done = self.sim.timeout(self.RAM_LATENCY + nbytes / self.RAM_BANDWIDTH)
        edgelog = self.sim.edgelog
        if edgelog is not None:
            # Relabel the plain timeout edge: blame page-cache reads to the
            # device layer, not the kernel timer.
            edgelog.annotate(
                done,
                "device",
                category="ram_read",
                kind="resource",
                initiator=self.sim.current_process,
            )
        return done

    def read(self, nbytes: int, category: str = "read", random: bool = False) -> Event:
        return self.submit("read", nbytes, category=category, random=random)

    def write(self, nbytes: int, category: str = "data", random: bool = False) -> Event:
        return self.submit("write", nbytes, category=category, random=random)

    def submit(
        self, kind: str, nbytes: int, category: str = "data", random: bool = False
    ) -> Event:
        """Submit one IO; the returned event triggers at IO completion."""
        if nbytes < 0:
            raise SimError("negative IO size")
        ev = self.sim.event()
        now = self.sim.now
        initiator = self.sim.current_process
        policy = self.fault_policy
        fault = policy.decide(kind, nbytes, category) if policy is not None else None
        if fault is not None:
            # Ground truth for detection scoring: when the fault entered the
            # system, not when its symptom surfaced (see repro.monitor.score).
            policy.injection_times.append(now)
        item = (kind, nbytes, random, ev, category, now, initiator, fault)
        if self._free_channels:
            self._start(self._free_channels.pop(), item)
        else:
            self._queue.append(item)
        return ev

    # -- internals -------------------------------------------------------------

    def _start(self, channel: int, item: Tuple) -> None:
        """Two-stage service: per-IO setup overlaps across channels, but the
        byte transfer reserves the shared bandwidth pipe for its direction —
        aggregate throughput can never exceed the spec's bandwidth, no matter
        how many channels are in flight."""
        kind, nbytes, random, ev, category, queued_at, initiator, fault = item
        setup = self.spec.service_time(kind, 0, random)
        bandwidth = (
            self.spec.read_bandwidth if kind == "read" else self.spec.write_bandwidth
        )
        # A failing IO still occupies the device: an erroring/timing-out IO
        # burns its setup, a torn write moves only its completed prefix.
        moved = nbytes
        if fault is not None:
            if fault[0] == "fail":
                moved = getattr(fault[1], "completed_bytes", 0) or 0
            elif fault[0] == "spike":
                setup *= fault[1]
        transfer = moved / bandwidth
        if fault is not None and fault[0] == "spike":
            transfer *= fault[1]
        if self.category_scale:
            factor = self.category_scale.get(category, 1.0)
            setup *= factor
            transfer *= factor
        started = self.sim.now
        setup_end = started + setup
        pipe_free = self._pipe_free_at[kind]
        transfer_start = max(setup_end, pipe_free)
        transfer_end = transfer_start + transfer
        self._pipe_free_at[kind] = transfer_end
        self.sim._call_later(
            transfer_end - started,
            self._finish,
            (channel, kind, nbytes, ev, category, started, queued_at, initiator, fault),
        )

    def _kc(self, kind: str, category: str) -> str:
        label = self._kc_labels.get((kind, category))
        if label is None:
            label = self._kc_labels[(kind, category)] = "%s:%s" % (kind, category)
        return label

    def _finish(self, item: Tuple) -> Optional[Event]:
        channel, kind, nbytes, ev, category, started, queued_at, initiator, fault = item
        sim = self.sim
        now = sim._now
        self.busy_channel_time += now - started
        if fault is not None and fault[0] == "fail":
            # Channel/queue bookkeeping must happen regardless of outcome, or
            # a single injected error would leak a channel forever.
            exc = fault[1]
            moved = getattr(exc, "completed_bytes", 0) or 0
            if moved:
                self.bytes_by_category.add(category, moved)
                self.bytes_by_kind.add(kind, moved)
                self.bytes_by_kind.add(self._kc(kind, category), moved)
                series = self.bandwidth_series.get(category)
                if series is None:
                    series = self.bandwidth_series[category] = TimeSeries(self._series_bin)
                series.add(now, moved)
            self.io_count.add("%s:fault" % kind)
            tracer = sim.tracer
            if tracer is not None:
                tracer.complete(
                    self._kc(kind, category),
                    "device",
                    self._ch_tracks[channel],
                    started,
                    now,
                    ("bytes", "fault"),
                    (moved, exc.code),
                )
            if self._queue:
                self._start(channel, self._queue.popleft())
            else:
                self._free_channels.append(channel)
            ev.fail(exc)
            return None
        self.bytes_by_category.add(category, nbytes)
        self.bytes_by_kind.add(kind, nbytes)
        self.bytes_by_kind.add(self._kc(kind, category), nbytes)
        self.io_count.add(kind)
        self.io_count.add(self._kc(kind, category))
        series = self.bandwidth_series.get(category)
        if series is None:
            series = self.bandwidth_series[category] = TimeSeries(self._series_bin)
        series.add(now, nbytes)
        tracer = sim.tracer
        if tracer is not None:
            tracer.complete(
                self._kc(kind, category),
                "device",
                self._ch_tracks[channel],
                started,
                now,
                ("bytes",),
                (nbytes,),
            )
        if self._queue:
            self._start(channel, self._queue.popleft())
        else:
            self._free_channels.append(channel)
        return annotated(
            ev,
            "device",
            self._kc(kind, category),
            "resource",
            started,
            queued_at,
            initiator,
            self._ch_tracks[channel],
        )

    # -- metrics -----------------------------------------------------------------

    def in_flight(self) -> int:
        """IOs currently occupying a channel (the sampler's device gauge)."""
        return self.spec.channels - len(self._free_channels)

    def total_bytes(self, kind: Optional[str] = None) -> float:
        if kind is None:
            return self.bytes_by_kind.get("read") + self.bytes_by_kind.get("write")
        return self.bytes_by_kind.get(kind)
