"""Wakeup-edge recording: the raw material of critical-path extraction.

An :class:`EdgeLog` is an opt-in kernel hook (``sim.edgelog``, installed by
:func:`repro.critpath.install_edgelog`) that records, for every
:class:`~repro.sim.core.Process`, *why* each of its resumes happened:

* release sites annotate the event they are about to trigger with a typed
  :class:`Edge` — lock hand-offs, condvar notifies, queue puts, CPU slot
  frees and device channel frees all go through
  :func:`repro.sim.wakeup.wake`, timeouts and joins are annotated by the
  kernel itself, and any un-annotated ``succeed()`` (engine-level futures)
  falls back to a generic ``"event"`` hand-off edge;
* :meth:`on_resume` appends time, seq and causing edge to the woken
  process's resume history; :meth:`on_spawn` records each process's parent.

Two invariants make the log useful:

* **Zero overhead when absent.**  Every kernel probe is
  ``if sim.edgelog is not None:``; the default is ``None`` and recording
  never advances simulated time, so an un-instrumented run is byte-identical
  to a pre-EdgeLog run (asserted in ``tests/test_metrics.py``).
* **Global sequence numbers.**  ``annotate``/``on_resume``/``on_spawn``
  share one monotonically increasing counter.  An edge is always stamped
  *before* the resume it causes, and a spawn before the child's first
  resume, so the backward walk in :mod:`repro.critpath.extract` can jump
  from any resume to its cause with a strictly decreasing sequence bound —
  guaranteed termination, no cycles.

Memory is bounded by ``max_records``: past the cap new resume entries —
and the edges, spawns and track bindings only they could reach — are
counted in :attr:`dropped` instead of stored (the extractor reports the
loss), mirroring the tracer's bounded event buffer.

Storage mirrors the tracer's too (docs/CRITPATH.md): an edge is one
fixed-width row of the flat ``edges`` list, ``Event._edge`` holds the row
number, a process's resume history is one flat list of ``(time, seq, edge
row)`` triples that ``Process._hist`` reaches without a lookup (both of this
log: install it before the run starts), and :class:`Edge` is a view
:meth:`EdgeLog.edge` builds on demand — nothing per record for the cyclic
collector to walk.
"""

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

__all__ = ["Edge", "EdgeLog"]


class _Unrecorded:
    """What a track is bound to once its process changes past the cap: a
    stand-in with no recorded history or spawn, so a walk from one of the
    track's later spans covers it with "start" rather than blaming the last
    recorded process."""

    name = "unrecorded"

    def __repr__(self) -> str:
        return "UNRECORDED"


UNRECORDED = _Unrecorded()


class Edge:
    """One typed wakeup edge: why (and through what resource) an event fired.

    ``kind`` selects the backward-walk rule:

    * ``"handoff"`` — a zero-width transfer at the wakeup instant (lock
      release, queue put, future completion); the critical path continues
      through ``waker``'s own history.
    * ``"resource"`` — an activity interval ``[begin, wakeup]`` on a shared
      resource (CPU burst, device IO, timeout), preceded by a queueing
      interval ``[queued_at, begin]``; the path continues at ``initiator``
      (the process that requested the activity) at ``queued_at``.
    """

    __slots__ = (
        "seq",
        "kind",
        "resource",
        "category",
        "begin",
        "queued_at",
        "waker",
        "initiator",
        "via",
        "track",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        resource: str,
        category: str,
        begin: float,
        queued_at: float,
        waker,
        initiator,
        via,
        track: Optional[str],
    ):
        self.seq = seq
        self.kind = kind
        self.resource = resource
        self.category = category
        self.begin = begin
        self.queued_at = queued_at
        self.waker = waker  # Process that executed the release (handoffs)
        self.initiator = initiator  # Process that requested the activity
        self.via = via  # child Event a join resolved through (AllOf/AnyOf)
        self.track = track  # tracer track rendering this interval, if any

    @property
    def label(self) -> str:
        return "%s:%s" % (self.resource, self.category) if self.category else self.resource

    def __repr__(self) -> str:
        return "Edge(%s, %r, begin=%r, queued_at=%r)" % (
            self.kind,
            self.label,
            self.begin,
            self.queued_at,
        )


class EdgeLog:
    """Bounded, opt-in record of wakeup edges and per-process resume history."""

    #: slots per edge in :attr:`edges`.
    WIDTH = len(Edge.__slots__)

    def __init__(self, sim, max_records: int = 4_000_000):
        self.sim = sim
        self.max_records = max_records
        #: stored edges, WIDTH slots each in :class:`Edge`'s field order;
        #: ``Event._edge`` and the resume histories hold row numbers.
        self.edges: List[object] = []
        #: per-process resume history, ascending in (time, seq): one flat
        #: list of (time, seq, causing edge row or None) triples, the one
        #: ``Process._hist`` holds.
        self.history: Dict[object, List[object]] = {}
        #: per-process (spawn_time, parent_process_or_None, spawn_seq).
        self.spawns: Dict[object, Tuple[float, Optional[object], int]] = {}
        #: tracer track -> [(bind_time, Process)...]: which Process was
        #: executing on a thread context's track when (the CPU model binds
        #: these; preload and measured runs reuse track names, so bindings
        #: are time-qualified).  Maps request spans back to processes.
        self.track_bindings: Dict[str, List[Tuple[float, object]]] = {}
        self.n_edges = 0
        self.n_resumes = 0
        self.dropped = 0
        self._seq = 0

    # -- kernel-facing hooks (see repro.sim.core / repro.sim.wakeup) -------

    def annotate(
        self,
        event,
        resource: str,
        category: str = "",
        kind: str = "handoff",
        begin: Optional[float] = None,
        queued_at: Optional[float] = None,
        initiator=None,
        via=None,
        track: Optional[str] = None,
    ) -> None:
        """Stamp ``event`` with the edge describing its (imminent) trigger.

        Called by release sites *before* ``event.succeed()``; re-annotating
        replaces a less specific earlier edge (e.g. a device RAM read
        relabelling its underlying timeout).
        """
        if self.n_resumes >= self.max_records:
            # An edge is reachable only through a stored resume (or another
            # edge's ``via``); once resumes are dropped, so are edges.
            self.dropped += 1
            return
        if begin is None:
            begin = self.sim._now
        if queued_at is None:
            queued_at = begin
        self._seq = seq = self._seq + 1
        event._edge = self.n_edges
        self.n_edges += 1
        self.edges += (
            seq, kind, resource, category, begin, queued_at,
            self.sim.current_process, initiator, via, track,
        )

    def on_resume(self, proc, event, now: float) -> None:
        """Record that ``proc`` was resumed by ``event`` at ``now``."""
        if self.n_resumes >= self.max_records:
            self.dropped += 1
            return
        self._seq = seq = self._seq + 1
        self.n_resumes += 1
        try:
            proc._hist += (now, seq, event._edge)
        except AttributeError:  # the process's first resume
            proc._hist = self.history[proc] = [now, seq, event._edge]

    def on_spawn(self, proc, parent, now: float) -> None:
        if self.n_resumes >= self.max_records:
            # Past the cap the child's resumes are dropped too: no walk can
            # reach it through a stored record.
            self.dropped += 1
            return
        self._seq += 1
        self.spawns[proc] = (now, parent, self._seq)

    def bind_track(self, track: str, proc) -> None:
        """Remember which Process executes on a thread context's track."""
        if proc is None:
            return
        hist = self.track_bindings.get(track)
        if hist and hist[-1][1] is proc:
            return
        if self.n_resumes >= self.max_records:
            # Dropped, but the track stops resolving to its last recorded
            # process (one stand-in per track, however many changes follow).
            self.dropped += 1
            if hist and hist[-1][1] is not UNRECORDED:
                hist.append((self.sim._now, UNRECORDED))
            return
        if hist is None:
            hist = self.track_bindings[track] = []
        hist.append((self.sim._now, proc))

    # -- queries (see repro.critpath.extract) ------------------------------

    @property
    def seq(self) -> int:
        """The current global sequence counter (upper bound for walks)."""
        return self._seq

    def fields(self, row: int) -> List[object]:
        """Stored edge ``row``'s slots, in :class:`Edge`'s field order."""
        return self.edges[row * self.WIDTH:(row + 1) * self.WIDTH]

    def edge(self, row: Optional[int]) -> Optional[Edge]:
        """Stored edge ``row`` (what ``Event._edge`` or a resume holds) as a
        view, built on demand and never kept; None for None."""
        return None if row is None else Edge(*self.fields(row))

    def _resume_key(self, row: Optional[int]):
        """Canonical order for resumes that share one simulated instant.

        Same-time event delivery order is exactly what ``--schedule-seed``
        perturbs, so a walk that breaks time-ties by sequence number would
        blame different (equally defensible, zero-lead) concurrent
        activities under different seeds.  Ranking tied resumes by edge
        *content* — resource intervals over hand-offs, then labels and
        interval endpoints — keeps the extracted paths, and therefore the
        blame table, schedule-invariant.
        """
        if row is None:
            return (0, "", "", 0.0, 0.0, "", "")
        (_seq, kind, resource, category, begin, queued_at, waker, initiator,
         *_rest) = self.fields(row)
        return (
            2 if kind == "resource" else 1,
            resource,
            category,
            begin,
            queued_at,
            getattr(waker, "name", None) or "",
            getattr(initiator, "name", None) or "",
        )

    def last_resume(
        self, proc, seq_limit: int, t_limit: float
    ) -> Optional[Tuple[float, int, Optional[int]]]:
        """The latest resume of ``proc`` with ``seq < seq_limit`` and
        ``time <= t_limit`` as ``(time, seq, edge row or None)``, or None."""
        hist = self.history.get(proc)
        if hist is None:
            return None
        # History ascends in both time and seq: binary search on seq over
        # the triples in place (a strided slice would allocate per step).
        lo, hi = 0, len(hist) // 3
        while lo < hi:
            mid = (lo + hi) // 2
            if hist[3 * mid + 1] < seq_limit:
                lo = mid + 1
            else:
                hi = mid
        i = 3 * (lo - 1)
        while i >= 0 and hist[i] > t_limit:
            i -= 3
        if i < 0:
            return None
        # Among resumes at the same instant, pick the canonical one (see
        # _resume_key) rather than the latest-delivered one.
        t_star = hist[i]
        best, best_key = i, self._resume_key(hist[i + 2])
        j = i - 3
        while j >= 0 and hist[j] == t_star:
            key = self._resume_key(hist[j + 2])
            if key > best_key:
                best, best_key = j, key
            j -= 3
        return t_star, hist[best + 1], hist[best + 2]

    def track_proc_at(self, track: str, t: float):
        """The Process bound to ``track`` at time ``t``, or None."""
        hist = self.track_bindings.get(track)
        if not hist:
            return None
        # Bindings ascend in time: the last one at or before t.
        idx = bisect_right(hist, t, key=lambda bound: bound[0])
        return hist[idx - 1][1] if idx else None

    def counts(self) -> Dict[str, int]:
        """Deterministic volume summary (the determinism suite fingerprints
        this alongside the blame table)."""
        return {
            "edges": self.n_edges,
            "resumes": self.n_resumes,
            "processes": len(self.history),
            "spawns": len(self.spawns),
            "tracks": len(self.track_bindings),
            "dropped": self.dropped,
        }
