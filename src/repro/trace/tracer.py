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

A span is recorded in one call where its interval ends; the site keeps the
start time (and any argument it captures earlier) in locals until then:

* ``complete()`` — an elapsed ``[start, end]`` interval.  Spans on one track
  are expected to nest (a request span contains its phase spans); the
  Chrome exporter renders them as ``"X"`` complete events.  With an ``aid``
  (drawn from ``aids`` when the span opens) the span may *overlap* others
  on its track (queue residency: many requests sit in one worker queue at
  once) and is exported as a ``"b"``/``"e"`` async event pair.
* ``burst()`` — a CPU burst's core-occupancy and busy intervals.
* ``instant()`` — a zero-width marker (WAL append, memtable insert).

A span whose end is never reached (its process failed or the run stopped)
is absent from the trace.

Storage (docs/TRACING.md): a span is one fixed-width row of the flat
``rows`` list, its argument values in ``vals``; no object is kept per span,
because the cyclic collector walks every tracked one.  :class:`Span` is the
view ``spans()``/``events`` build on demand, never cached.
"""

from itertools import count, islice
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
    """One named interval of simulated time on a track: a transient view of
    one recorded row."""

    __slots__ = ("name", "cat", "track", "start", "end", "args", "aid")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
        aid: Optional[int] = None,
    ):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.args = args
        self.aid = aid  # async-event id; None for synchronous spans

    def __repr__(self) -> str:
        return "Span(%r, cat=%r, track=%r, %r..%r)" % (
            self.name,
            self.cat,
            self.track,
            self.start,
            self.end,
        )


class Tracer:
    """Collects spans and instants, in simulated time.

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
        #: async-event ids: ``next(tracer.aids)`` where an overlapping span
        #: opens, so ids follow the spans' start order.
        self.aids = count(1)
        #: recorded spans in end-time order, WIDTH slots each: name, cat,
        #: track, start, end, aid (None: synchronous), argument names (None,
        #: or a constant tuple every row of its call site shares).  The rows'
        #: argument values sit end to end in ``vals``, in row order.
        self.rows: List[Any] = []
        self.vals: List[Any] = []

    # -- recording ----------------------------------------------------------

    # Each writer writes its rows in place: one call per record at the site
    # where its interval ends, none re-dispatched.

    def complete(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        keys: Optional[Tuple[str, ...]] = None,
        vals: Iterable[Any] = (),
        aid: Optional[int] = None,
    ) -> None:
        """Record the interval ``[start, end]`` in one call; ``keys`` (a
        constant tuple, one object for all of a call site's rows) name the
        ``vals`` (a tuple), ``aid`` makes it an overlapping span."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.trace")
        rows = self.rows
        if len(rows) >= self._full:
            self.dropped += 1
        else:
            rows += (name, cat, track, start, end, aid, keys)
            if keys:
                self.vals += vals
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
                self.vals += vals
        if _p is not None:
            _p.leave()

    # -- querying -----------------------------------------------------------

    def records(self, since: int = 0) -> Iterator[tuple]:
        """The rows as ``(name, cat, track, start, end, aid, keys)`` tuples —
        what consumers read — from ``since``, an earlier ``len(rows)``, on."""
        return zip(*[islice(self.rows, since, None)] * self.WIDTH)

    def spans(self, cat: Optional[str] = None) -> Iterator[Span]:
        """Iterate recorded spans as views, optionally of one category."""
        vals = self.vals
        at = 0  # where the current row's values start in vals
        for n, c, t, start, end, aid, keys in self.records():
            args = None
            if keys is not None:
                width = len(keys)
                args = dict(zip(keys, vals[at:at + width]))
                at += width
            if cat in (None, c):
                yield Span(n, c, t, start, end, args, aid)

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
