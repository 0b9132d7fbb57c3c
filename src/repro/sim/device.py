"""Storage device models.

A :class:`StorageDevice` services each read/write in two stages:

* **setup** — ``latency [+ seek if random]`` on one of ``channels``
  channels (the SSD's internal parallelism; 1 for the HDD), so setups
  overlap across channels and requests beyond them queue FIFO;
* **transfer** — ``nbytes / bandwidth`` on the one pipe of the IO's
  direction, shared by every channel, so reads and writes each move at most
  their spec's bandwidth however many IOs are in flight.

A channel stays held until its IO's transfer ends.  Each IO is booked once,
in one :data:`Ledger` by direction and *category* ("wal", "flush", "read",
...); every total is a view of it, and the bandwidth figures (5b, 12c, 21a)
report window averages of those views.  When traced, each IO is also one
``device`` row, which the one over-time plot, Figure 4, folds into bandwidth
bins (:func:`repro.harness.timeline.device_bandwidth`).

The three presets correspond to the devices in the paper's Figure 1:
a WDC WD100EFAX HDD, a Samsung 860 PRO SATA SSD, and an Intel Optane 905p
NVMe SSD (2.2 GB/s write / 2.6 GB/s read).
"""

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.sim.core import Event, SimError, Simulator
from repro.sim.wakeup import annotated

__all__ = [
    "DeviceSpec",
    "StorageDevice",
    "HDD_WD100EFAX",
    "SATA_860PRO",
    "OPTANE_905P",
    "Ledger",
    "byte_views",
    "ledger_delta",
]

MIB = 1024 * 1024
GIB = 1024 * MIB

#: the argument names of a device trace row, clean and failed.
_BYTES = ("bytes",)
_BYTES_FAULT = ("bytes", "fault")

#: ``(kind, category) -> (clean IOs, failed IOs, bytes moved)``, plus the
#: :data:`RAM` line of page-cache reads.  IO sizes are integers, so every sum
#: of it is exact in any order.
Ledger = Dict[Tuple[str, str], Tuple[int, int, int]]
RAM = ("ram", "ram_read")
_EMPTY = (0, 0, 0)


def ledger_delta(end: Ledger, start: Ledger) -> Ledger:
    """Each line of ``end`` that booked bytes (a clean IO books its bytes,
    even 0; a failed IO only the prefix it moved), less its ``start``."""
    return {
        key: tuple([now - then for now, then in zip(line, start.get(key, _EMPTY))])
        for key, line in end.items()
        if line[0] or line[2]
    }


def byte_views(ledger: Ledger) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(bytes by category, bytes by kind)`` of a :func:`ledger_delta`; by
    kind holds each direction, each ``kind:category`` label and ``ram``."""
    by_category: Dict[str, float] = {}
    by_kind: Dict[str, float] = {}
    for (kind, category), (_ios, _faults, nbytes) in ledger.items():
        if (kind, category) != RAM:
            by_category[category] = by_category.get(category, 0.0) + nbytes
            by_kind["%s:%s" % (kind, category)] = float(nbytes)
        by_kind[kind] = by_kind.get(kind, 0.0) + nbytes
    return by_category, by_kind


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

    def setup_time(self, kind: str, random: bool) -> float:
        """An IO's per-channel setup: its direction's latency, plus the seek
        for a random IO."""
        if kind == "read":
            t = self.read_latency
        elif kind == "write":
            t = self.write_latency
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

    def __init__(self, sim: Simulator, spec: DeviceSpec):
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
        #: every IO, booked once; make_env registers its views.
        self.ledger: Ledger = {}
        self.busy_channel_time = 0.0
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
        ios, faults, moved = self.ledger.get(RAM, _EMPTY)
        self.ledger[RAM] = (ios + 1, faults, moved + nbytes)
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
        setup = self.spec.setup_time(kind, random)
        bandwidth = (
            self.spec.read_bandwidth if kind == "read" else self.spec.write_bandwidth
        )
        # A failing IO still occupies the device: an erroring/timing-out IO
        # burns its setup, a torn write moves only its completed prefix.
        moved = nbytes if fault is None else getattr(fault, "completed_bytes", 0)
        transfer = moved / bandwidth
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
            (channel, kind, moved, ev, category, started, queued_at, initiator, fault),
        )

    def _finish(self, item: Tuple) -> Optional[Event]:
        """Book, trace and release the channel of an IO that completed —
        or failed: a failed IO counts as failed, books only the bytes it
        moved (if any), and fails its event."""
        channel, kind, moved, ev, category, started, queued_at, initiator, fault = item
        sim = self.sim
        now = sim._now
        self.busy_channel_time += now - started
        key = (kind, category)
        label = self._kc_labels.get(key)
        if label is None:
            label = self._kc_labels[key] = "%s:%s" % key
        ios, faults, nbytes = self.ledger.get(key, _EMPTY)
        if fault is None:
            self.ledger[key] = (ios + 1, faults, nbytes + moved)
        else:
            self.ledger[key] = (ios, faults + 1, nbytes + moved)
        tracer = sim.tracer
        if tracer is not None:
            if fault is None:
                keys, vals = _BYTES, (moved,)
            else:
                keys, vals = _BYTES_FAULT, (moved, fault.code)
            tracer.complete(
                label, "device", self._ch_tracks[channel], started, now, keys, vals
            )
        # Channel/queue bookkeeping happens whatever the outcome, or a single
        # injected error would leak a channel forever.
        if self._queue:
            self._start(channel, self._queue.popleft())
        else:
            self._free_channels.append(channel)
        if fault is not None:
            ev.fail(fault)
            return None
        return annotated(
            ev,
            "device",
            label,
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

    def bytes_by_category(self) -> Dict[str, float]:
        return byte_views(ledger_delta(self.ledger, {}))[0]

    def bytes_by_kind(self) -> Dict[str, float]:
        return byte_views(ledger_delta(self.ledger, {}))[1]

    def io_count(self) -> Dict[str, float]:
        """Clean IOs by kind and by ``kind:category`` label, failed IOs as
        ``<kind>:fault``, page-cache reads as ``ram_read``."""
        out: Dict[str, float] = {}
        for (kind, category), (ios, faults, _nbytes) in self.ledger.items():
            label = "%s:%s" % (kind, category)
            counts = [(kind, ios), (label, ios), (kind + ":fault", faults)]
            for name, n in [(category, ios)] if (kind, category) == RAM else counts:
                if n:
                    out[name] = out.get(name, 0.0) + n
        return out

    def io_total(self) -> float:
        """Every IO once: clean, failed and page-cache reads."""
        return float(sum([ios + faults for ios, faults, _b in self.ledger.values()]))
