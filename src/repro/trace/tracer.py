"""Span-based tracing for the simulated stack.

A :class:`Tracer` records *spans* — named intervals of simulated time on a
named *track* — and *instants* (zero-width markers).  Tracks are strings of
the form ``"<process>:<thread>"`` (e.g. ``"cores:core-3"``,
``"threads:user-0"``, ``"device:ch-1"``); the Chrome exporter maps the
prefix to a trace process and the full name to a timeline row.

Two invariants keep tracing honest:

* **Zero sim-time**: recording a span never advances the clock, charges CPU,
  or touches the event heap — a traced run and an untraced run of the same
  workload end at the *identical* simulated time (asserted by
  ``tests/test_trace.py``).
* **Zero-overhead default**: every :class:`~repro.sim.core.Simulator` starts
  with ``sim.tracer = None``.  Probe sites guard with
  ``if tracer is not None:`` so the disabled cost is one attribute load and
  a branch.

Span kinds:

* ``begin()``/``finish()`` — a synchronous span on a track.  Spans on one
  track are expected to nest (a request span contains its phase spans);
  the Chrome exporter renders them as ``"X"`` complete events.
* ``async_begin()``/``finish()`` — a span that may *overlap* others on its
  track (queue residency: many requests sit in one worker queue at once).
  Exported as ``"b"``/``"e"`` async event pairs.
* ``complete()`` — record an already-elapsed interval in one call (waits and
  device IOs, learnt only at their end); ``burst()`` records a CPU burst's
  core-occupancy and busy intervals in one call.
* ``instant()`` — a zero-width marker (WAL append, memtable insert).

Only *finished* spans are recorded; a span still open when the trace is
exported is silently absent.

Storage (docs/TRACING.md): a finished span is one fixed-width row of the flat
``rows`` list, its argument values in ``vals``; no object is kept per span,
because the cyclic collector walks every tracked one.  :class:`Span` is the
handle ``begin()`` returns (dead once ``finish()`` has written its row) and
the view ``spans()``/``events`` build on demand, never cached.
"""

from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.perf import zones as _perf_zones

__all__ = [
    "Span",
    "Tracer",
    "thread_track",
]

#: the argument names of a core-occupancy row.
_THREAD = ("thread",)


def thread_track(name: str) -> str:
    """The track carrying a simulated thread's busy/wait/request spans."""
    return "threads:%s" % name


class Span:
    """One named interval of simulated time on a track: the open handle
    ``begin()`` hands out, or a transient view of one recorded row."""

    __slots__ = ("name", "cat", "track", "start", "end", "args", "aid", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        track: str,
        start: float,
        args: Optional[Dict[str, Any]],
        aid: Optional[int] = None,
        end: Optional[float] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.args = args
        self.aid = aid  # async-event id; None for synchronous spans

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **args: Any) -> "Span":
        """Attach/merge argument key-values onto the span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self

    def finish(self, **args: Any) -> "Span":
        """Close the span at the current simulated time and record it."""
        if self.end is None:
            if args:
                if self.args is None:
                    self.args = args
                else:
                    self.args.update(args)
            tracer = self._tracer
            self.end = end = tracer.sim._now
            _p = _perf_zones.PROFILER
            if _p is not None:
                _p.enter("obs.trace")
            rows = tracer.rows
            if len(rows) >= tracer._full:
                tracer.dropped += 1
            elif self.args is None:
                rows += (self.name, self.cat, self.track, self.start, end, self.aid, None)
            else:
                keys = tuple(self.args)
                keys = tracer._keysets.setdefault(keys, keys)  # one per key set
                rows += (self.name, self.cat, self.track, self.start, end, self.aid, keys)
                tracer.vals.extend(self.args.values())
            if _p is not None:
                _p.leave()
        return self

    def __repr__(self) -> str:
        return "Span(%r, cat=%r, track=%r, %r..%r)" % (
            self.name,
            self.cat,
            self.track,
            self.start,
            self.end,
        )


class Tracer:
    """Collects finished spans and instants, in simulated time.

    ``max_events`` bounds memory on long runs: past the cap new events are
    counted in ``dropped`` instead of stored (the exporter reports the loss).
    """

    #: slots per span in :attr:`rows`.
    WIDTH = 7

    def __init__(self, sim, max_events: int = 2_000_000):
        self.sim = sim
        self.max_events = max_events
        #: len(rows) at the cap, which every row writer tests against.
        self._full = self.WIDTH * max_events
        self.dropped = 0
        self._next_aid = 1
        #: finished spans in finish-time order, WIDTH slots each: name, cat,
        #: track, start, end, aid (None: synchronous), argument names (None,
        #: or a tuple every row of its call site / key set shares).  The rows'
        #: argument values sit end to end in ``vals``, in row order.
        self.rows: List[Any] = []
        self.vals: List[Any] = []
        self._keysets: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a synchronous (nesting) span at the current sim time."""
        return Span(self, name, cat, track, self.sim._now, args)

    def async_begin(
        self,
        name: str,
        cat: str,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span that may overlap others on its track (e.g. queue
        residency); exported as a Chrome async event pair."""
        aid = self._next_aid
        self._next_aid += 1
        return Span(self, name, cat, track, self.sim._now, args, aid=aid)

    # The writers below (and Span.finish) each write their rows in place: one
    # call per record at the site that produces it, none re-dispatched.

    def complete(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        keys: Optional[Tuple[str, ...]] = None,
        vals: Iterable[Any] = (),
    ) -> None:
        """Record an already-elapsed ``[start, end]`` interval in one call;
        ``keys`` (a constant tuple, one object for all of a call site's rows)
        name the ``vals``."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.trace")
        rows = self.rows
        if len(rows) >= self._full:
            self.dropped += 1
        else:
            rows += (name, cat, track, start, end, None, keys)
            if keys:
                self.vals.extend(vals)
        if _p is not None:
            _p.leave()

    def burst(
        self,
        category: str,
        core_track: str,
        thread: str,
        start: float,
        end: float,
        track: str,
        duration: float,
    ) -> None:
        """One CPU burst's rows: the core's occupancy ``[start, end]``
        labelled with the ``thread`` name, then, if ``duration > 0``, the
        thread's busy interval ``[end - duration, end]`` on its ``track`` —
        what two :meth:`complete` calls would record, each row kept or
        dropped at the cap on its own."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.trace")
        rows = self.rows
        if len(rows) >= self._full:
            self.dropped += 1
        else:
            rows += (category, "core", core_track, start, end, None, _THREAD)
            self.vals.append(thread)
        if duration > 0:
            if len(rows) >= self._full:
                self.dropped += 1
            else:
                rows += (category, "busy", track, end - duration, end, None, None)
        if _p is not None:
            _p.leave()

    def instant(
        self,
        name: str,
        cat: str,
        track: str,
        keys: Optional[Tuple[str, ...]] = None,
        vals: Iterable[Any] = (),
    ) -> None:
        """Record a zero-width marker at the current sim time."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.trace")
        rows = self.rows
        if len(rows) >= self._full:
            self.dropped += 1
        else:
            now = self.sim._now
            rows += (name, cat, track, now, now, None, keys)
            if keys:
                self.vals.extend(vals)
        if _p is not None:
            _p.leave()

    # -- querying -----------------------------------------------------------

    def records(self, since: int = 0) -> Iterator[tuple]:
        """The rows as ``(name, cat, track, start, end, aid, keys)`` tuples —
        what consumers read — from ``since``, an earlier ``len(rows)``, on."""
        return zip(*[islice(self.rows, since, None)] * self.WIDTH)

    def spans(self, cat: Optional[str] = None) -> Iterator[Span]:
        """Iterate recorded spans as views, optionally of one category."""
        at = 0  # where the current row's values start in self.vals
        for n, c, t, start, end, aid, keys in self.records():
            args = None
            if keys is not None:
                args = dict(zip(keys, self.vals[at:at + len(keys)]))
                at += len(keys)
            if cat in (None, c):
                yield Span(None, n, c, t, start, args, aid, end)

    @property
    def events(self) -> List[Span]:
        """Every recorded span, as a fresh list of views."""
        return list(self.spans())

    def tracks(self) -> List[str]:
        """Every track that has at least one recorded event, sorted."""
        return sorted(set(self.rows[2::self.WIDTH]))

    def clear(self) -> None:
        self.rows.clear()
        self.vals.clear()
        self.dropped = 0
