"""The stats registry: one namespace of live metrics per simulated machine.

Every :class:`~repro.engine.env.Env` carries a :class:`StatsRegistry`
(``env.metrics``).  Components register their instruments under dotted,
component-prefixed names at open time:

* **counters** — cheap monotonic floats, a component's whole family in one
  :class:`CounterGroup` (``registry.group("...")``);
* **gauges** — zero-state callables evaluated at read time (queue depths,
  memtable bytes, in-flight IOs); the sim-time sampler snapshots these;
* **histograms** — exact-sample, mergeable :class:`Histogram` instances
  (nearest-rank p50/p95/p99 over every recorded value);
* **providers** — dict-valued cumulative sources (e.g. the device's
  per-category byte counters) that windowed consumers difference;
* **events** — begin/end occurrences with sim timestamps (write stalls,
  compaction backlog), kept in one ordered :class:`EventLog`.

The registry is plain state: registering and updating instruments costs a
dict operation and never touches the simulator, so an idle registry has zero
effect on event ordering.  Only the opt-in sampler (``repro.metrics.sampler``)
schedules anything.
"""

import math
from bisect import bisect_right
from typing import Callable, Dict, List, Optional

__all__ = [
    "CounterGroup",
    "EventLog",
    "GaugeStat",
    "Histogram",
    "StatsRegistry",
]


class GaugeStat:
    """A named instantaneous value, read through a callable."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return float(self.fn())


class Histogram:
    """Exact-sample histogram: every recorded value is kept (one float per
    observation), so percentiles are true nearest-rank order statistics.

    ``count`` and the running ``sum`` are O(1) reads (the monitor polls
    them every window); ``min``/``max``/``percentile`` sort lazily, once
    per batch of new samples.
    """

    __slots__ = ("_samples", "_n_sorted", "sum")

    def __init__(self):
        self._samples: List[float] = []
        self._n_sorted = 0
        self.sum = 0.0

    def record(self, value: float) -> None:
        self._samples.append(value)
        self.sum += value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold every sample of ``other`` into self; returns self."""
        self._samples.extend(other._samples)
        self.sum += other.sum
        return self

    def _sorted(self) -> List[float]:
        samples = self._samples
        if self._n_sorted != len(samples):
            samples.sort()
            self._n_sorted = len(samples)
        return samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self.sum / len(self._samples) if self._samples else 0.0

    @property
    def min(self) -> float:
        return self._sorted()[0] if self._samples else 0.0

    @property
    def max(self) -> float:
        return self._sorted()[-1] if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]: the sample at rank
        ``ceil(p/100 * count)`` of the sorted observations."""
        if not self._samples:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(self._samples)))
        return self._sorted()[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def cumulative(self, bounds) -> List[int]:
        """``count(sample <= bound)`` per bound (Prometheus ``le`` buckets)."""
        samples = self._sorted()
        return [bisect_right(samples, bound) for bound in bounds]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class CounterGroup:
    """A component's named counter family, registered under one prefix.

    Component code and tests read e.g. ``engine.counters.get("flushes")``;
    a group opened through :meth:`StatsRegistry.group` is also visible
    registry-wide as ``<prefix>.<name>``.
    """

    __slots__ = ("prefix", "_values")

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._values: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        self._values[name] = self._values.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)


class EventLog:
    """Begin/end occurrences with sim timestamps, in begin order.

    Callers pass the current sim time explicitly (the log holds no clock),
    e.g.::

        token = registry.events.begin("write_stall", now, engine=name)
        ...
        registry.events.end(token, env.sim.now)

    Retention is bounded: beyond ``max_entries`` begins, new occurrences
    are counted in ``dropped`` instead of stored (tokens are list indices,
    so eviction would dangle every outstanding token).  A long-running
    service therefore caps event memory, and the drop count is surfaced in
    every export (``snapshot()["events_dropped"]``) so silence about lost
    events is impossible.
    """

    #: default retention — far above any test run, a real bound for serves.
    DEFAULT_MAX_ENTRIES = 65536

    __slots__ = ("entries", "max_entries", "dropped")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        #: [kind, begin_time, end_time_or_None, detail_dict]
        self.entries: List[list] = []
        self.max_entries = max_entries
        #: occurrences discarded because the log was full.
        self.dropped = 0

    def begin(self, kind: str, now: float, **detail) -> int:
        if len(self.entries) >= self.max_entries:
            self.dropped += 1
            return -1
        self.entries.append([kind, now, None, detail])
        return len(self.entries) - 1

    def end(self, token: int, now: float) -> None:
        if token < 0:  # the begin was dropped at the retention cap
            return
        self.entries[token][2] = now

    def active_count(self, kind: Optional[str] = None) -> int:
        return sum(
            1
            for e in self.entries
            if e[2] is None and (kind is None or e[0] == kind)
        )

    def as_dicts(self) -> List[dict]:
        return [
            {
                "kind": kind,
                "begin": begin,
                "end": end,
                "duration": (end - begin) if end is not None else None,
                "detail": dict(detail),
            }
            for kind, begin, end, detail in self.entries
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-kind count / completed-duration / still-active totals."""
        out: Dict[str, Dict[str, float]] = {}
        for kind, begin, end, _detail in self.entries:
            row = out.setdefault(
                kind, {"count": 0, "total_seconds": 0.0, "active": 0}
            )
            row["count"] += 1
            if end is None:
                row["active"] += 1
            else:
                row["total_seconds"] += end - begin
        return out


class StatsRegistry:
    """All live metrics of one simulated machine, by dotted name."""

    def __init__(self):
        self.gauges: Dict[str, GaugeStat] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.groups: Dict[str, CounterGroup] = {}
        self.providers: Dict[str, Callable[[], Dict[str, float]]] = {}
        self.events = EventLog()
        #: the periodic observers: the sim-time sampler (--stats) and the
        #: health monitor (``repro.monitor``), bracketed by the load drivers.
        self.sampler = None
        self.health = None

    # -- registration ------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float]) -> GaugeStat:
        stat = GaugeStat(name, fn)
        self.gauges[name] = stat
        return stat

    def histogram(self, name: str, fresh: bool = False) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None or fresh:
            hist = self.histograms[name] = Histogram()
        return hist

    def group(self, prefix: str, fresh: bool = False) -> CounterGroup:
        """Get-or-create a component counter group.

        ``fresh=True`` replaces any group left by a previous instance with
        the same name — a re-opened engine after a simulated crash starts
        its counters at zero.
        """
        grp = self.groups.get(prefix)
        if grp is None or fresh:
            grp = self.groups[prefix] = CounterGroup(prefix)
        return grp

    def provider(self, name: str, fn: Callable[[], Dict[str, float]]) -> None:
        self.providers[name] = fn

    # -- reads -------------------------------------------------------------

    def observers(self) -> list:
        """The installed periodic observers, in bracketing order."""
        return [o for o in (self.health, self.sampler) if o is not None]

    def counter_values(self) -> Dict[str, float]:
        """Every group's counters as ``<prefix>.<name>``, sorted by name."""
        out: Dict[str, float] = {}
        for prefix, grp in self.groups.items():
            for key, value in grp.as_dict().items():
                out["%s.%s" % (prefix, key)] = value
        return dict(sorted(out.items()))

    def gauge_values(self) -> Dict[str, float]:
        """Evaluate every gauge, sorted by name (the sampler's row shape)."""
        return {
            name: self.gauges[name].read() for name in sorted(self.gauges)
        }

    def provider_values(self) -> Dict[str, Dict[str, float]]:
        return {
            name: dict(self.providers[name]())
            for name in sorted(self.providers)
        }

    def snapshot(self) -> dict:
        """Full point-in-time view (the JSON exporter's payload)."""
        return {
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
            "providers": self.provider_values(),
            "events": self.events.as_dicts(),
            "events_dropped": self.events.dropped,
        }
