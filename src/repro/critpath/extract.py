"""Critical-path extraction: walk wakeup edges backward from completions.

Given an :class:`~repro.critpath.edgelog.EdgeLog` (why every process resume
happened) and a :class:`~repro.trace.tracer.Tracer` (request spans marking
arrivals and completions), this module reconstructs, for each request, the
exact chain of activity that gated its completion — the *critical path* —
and aggregates it into a blame ranking by resource/component.

The walk maintains ``(process, time, seq)``: "the critical path passes
through ``process`` at ``time``; only edges stamped before ``seq`` can have
caused it".  Each step looks up the process's latest resume at or before
that point and applies the causing edge:

* **resource** edge (CPU burst, device IO, timeout): blame the service
  interval ``[begin, t]`` to the resource, the queueing interval
  ``[queued_at, begin]`` to ``<resource>_queue``, and continue at the
  *initiator* (the process that requested the activity) at ``queued_at``;
* **handoff** edge (lock release, queue put, future completion): zero
  width — the path continues through the *waker* at the same time, whose
  own history explains the wait (e.g. a WAL-lock wait becomes the lock
  holder's WAL device write).  Self- and kernel-wakes instead blame the
  waited interval to the hand-off resource and continue the process's own
  earlier history;
* **join** edges (AllOf) resolve through the completing child event;
* gaps with no recorded cause are blamed ``run``/``spawn``/``start``.

Because the edge/resume sequence bound strictly decreases at every step the
walk always terminates, and the emitted segments tile ``[t_start, t_end]``
exactly (the coverage invariant ``tests/test_critpath.py`` asserts).

Everything here is a pure function of the logs, iterated in recorded order
with no set/dict iteration over unordered keys — reruns and
``--schedule-seed`` perturbations of a correct model produce byte-identical
blame tables (asserted in ``tests/test_determinism.py``).
"""

from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.tracer import Span

__all__ = [
    "CriticalPath",
    "Segment",
    "aggregate_blame",
    "critpath_report",
    "makespan_path",
    "path_trace_extras",
    "request_paths",
    "walk_back",
]

#: AllOf joins can nest; bound the via-chain resolution.
_MAX_VIA_HOPS = 64


class Segment:
    """One blamed interval on a critical path."""

    __slots__ = ("label", "start", "end", "track")

    def __init__(self, label: str, start: float, end: float, track: Optional[str] = None):
        self.label = label
        self.start = start
        self.end = end
        self.track = track

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return "Segment(%r, %r..%r)" % (self.label, self.start, self.end)


class CriticalPath:
    """A request's (or the makespan's) extracted path: segments tiling
    ``[t_start, t_end]``, in reverse-chronological walk order."""

    __slots__ = ("name", "t_start", "t_end", "segments")

    def __init__(self, name: str, t_start: float, t_end: float, segments: List[Segment]):
        self.name = name
        self.t_start = t_start
        self.t_end = t_end
        self.segments = segments

    @property
    def covered(self) -> float:
        return sum(seg.duration for seg in self.segments)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    def blame(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.label] = totals.get(seg.label, 0.0) + seg.duration
        return totals

    def __repr__(self) -> str:
        return "CriticalPath(%r, %r..%r, %d segments)" % (
            self.name,
            self.t_start,
            self.t_end,
            len(self.segments),
        )


def _resolve_via(edgelog, edge: Optional[int]) -> Optional[int]:
    """Follow join edges to the child event that actually completed them."""
    hops = 0
    while edge is not None and hops < _MAX_VIA_HOPS:
        *_rest, via, _track = edgelog.fields(edge)
        nxt = None if via is None else via._edge
        if nxt is None or nxt == edge:
            break
        edge = nxt
        hops += 1
    return edge


def walk_back(edgelog, proc, t_end: float, t_start: float) -> List[Segment]:
    """Walk the critical path of ``proc``'s activity at ``t_end`` backward
    until ``t_start``, returning blamed segments (reverse-chronological)."""
    segments: List[Segment] = []

    def emit(label: str, start: float, end: float, track: Optional[str] = None) -> None:
        start = max(start, t_start)
        end = min(end, t_end)
        if end > start:
            segments.append(Segment(label, start, end, track))

    P, T, S = proc, t_end, edgelog.seq + 1
    while P is not None and T > t_start:
        resume = edgelog.last_resume(P, S, T)
        if resume is None:
            spawn = edgelog.spawns.get(P)
            if spawn is not None and spawn[2] < S and spawn[0] <= T:
                t_spawn, parent, spawn_seq = spawn
                emit("spawn", t_spawn, T)
                T = min(T, t_spawn)
                if parent is None:
                    emit("start", t_start, T)
                    break
                P, S = parent, spawn_seq
                continue
            # History starts after t_start (pre-install activity or dropped
            # records): cover the remainder so the tiling stays exact.
            emit("start", t_start, T)
            break
        t_resume, resume_seq, edge = resume
        if t_resume < T:
            # The process ran (zero sim time) at t_resume and the sub-chain
            # up to T is untracked; charge it to plain execution.
            emit("run", t_resume, T)
            T = t_resume
        edge = _resolve_via(edgelog, edge)
        if edge is None:
            S = resume_seq
            continue
        (S, kind, resource, category, begin, queued_at, waker, initiator, _via,
         track) = edgelog.fields(edge)
        if kind != "resource" and waker is not None and waker is not P:
            # Hand-off: zero width; the waker's history explains the wait.
            P = waker
            continue
        label = "%s:%s" % (resource, category) if category else resource
        if kind == "resource":
            emit(label, begin, T, track)
            if begin > queued_at:
                queue_label = resource + "_queue"
                if category:
                    queue_label += ":" + category
                emit(queue_label, queued_at, min(begin, T), track)
            T = min(T, queued_at)
            if initiator is not None and initiator is not P:
                P = initiator
            continue
        # Self- or kernel-wake: blame the waited interval to the hand-off
        # resource itself and keep walking this process's earlier history.
        if queued_at < T:
            emit(label, queued_at, T)
            T = queued_at
    return segments


Window = Tuple[float, float]


def _request_spans(tracer, window: Optional[Window]) -> List[tuple]:
    """Synchronous request spans inside the window, in recorded order, each
    as ``(end, start, track, name)``."""
    spans = []
    for name, cat, track, start, end, aid, _keys in tracer.records():
        if cat != "request" or aid is not None:
            continue
        if window is not None and (start < window[0] or end > window[1]):
            continue
        spans.append((end, start, track, name))
    return spans


def request_paths(
    edgelog, tracer, window: Optional[Window] = None,
    spans: Optional[List[tuple]] = None,
) -> List[CriticalPath]:
    """Extract one critical path per completed request span, completion
    back to arrival (``spans``: the window's, if the caller has them)."""
    if spans is None:
        spans = _request_spans(tracer, window)
    paths = []
    for end, start, track, name in spans:
        proc = edgelog.track_proc_at(track, end)
        if proc is None:
            continue
        segments = walk_back(edgelog, proc, end, start)
        paths.append(CriticalPath(name, start, end, segments))
    return paths


def makespan_path(
    edgelog, tracer, window: Window, spans: Optional[List[tuple]] = None
) -> Optional[CriticalPath]:
    """The backbone path: from the last request completion in the window all
    the way back to the window start.

    Throughput over the window is governed by this chain, not by per-request
    sums (requests overlap); the what-if profiler predicts against it.
    """
    if spans is None:
        spans = _request_spans(tracer, window)
    if not spans:
        return None
    # Deterministic argmax: break end-time ties by start then track.
    end, _start, track = max(span[:3] for span in spans)
    proc = edgelog.track_proc_at(track, end)
    if proc is None:
        return None
    segments = walk_back(edgelog, proc, end, window[0])
    return CriticalPath("makespan", window[0], end, segments)


def aggregate_blame(paths: Iterable[CriticalPath]) -> Dict[str, object]:
    """Sum path segments into a blame ranking.

    Returns ``{"rows": [{"label", "seconds", "share", "paths"}...] (sorted by
    blame, descending), "total_seconds", "n_paths"}``.
    """
    totals: Dict[str, float] = {}
    path_counts: Dict[str, int] = {}
    n_paths = 0
    for path in paths:
        n_paths += 1
        seen = set()
        for seg in path.segments:
            totals[seg.label] = totals.get(seg.label, 0.0) + seg.duration
            if seg.label not in seen:
                seen.add(seg.label)
                path_counts[seg.label] = path_counts.get(seg.label, 0) + 1
    total = sum(totals.values())
    rows = [
        {
            "label": label,
            "seconds": seconds,
            "share": seconds / total if total > 0 else 0.0,
            "paths": path_counts[label],
        }
        for label, seconds in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return {"rows": rows, "total_seconds": total, "n_paths": n_paths}


def critpath_report(edgelog, tracer, window: Window) -> Dict[str, object]:
    """The full extraction: per-request blame ranking, makespan-path blame,
    and log volume counters.  This dict is what tools export as JSON."""
    spans = _request_spans(tracer, window)
    paths = request_paths(edgelog, tracer, window, spans=spans)
    report: Dict[str, object] = {
        "window": [window[0], window[1]],
        "n_requests": len(paths),
        "blame": aggregate_blame(paths),
        "counts": edgelog.counts(),
    }
    backbone = makespan_path(edgelog, tracer, window, spans=spans)
    if backbone is not None:
        report["makespan"] = {
            "t_start": backbone.t_start,
            "t_end": backbone.t_end,
            "covered": backbone.covered,
            "blame": aggregate_blame([backbone]),
        }
    return report


# -- Perfetto surfacing ------------------------------------------------------

def path_trace_extras(
    path: CriticalPath, name: str = "critpath"
) -> Tuple[List[Span], List[Tuple[int, List[Tuple[str, float]]]]]:
    """Render a path for the Chrome exporter.

    Returns ``(extra_spans, flows)``: one slice per segment on a dedicated
    ``critpath:<name>`` track, plus one flow chain whose points sit at
    segment midpoints — on the segment's real track (CPU core, device
    channel) when it has one, so Perfetto draws arrows along the actual
    machine timeline.
    """
    track = "critpath:%s" % name
    extra_spans: List[Span] = []
    points: List[Tuple[str, float]] = []
    for seg in reversed(path.segments):  # chronological order
        extra_spans.append(
            Span(seg.label, "critpath", track, seg.start, seg.end)
        )
        mid = (seg.start + seg.end) / 2.0
        points.append((seg.track if seg.track is not None else track, mid))
    flows = [(1, points)] if len(points) >= 2 else []
    return extra_spans, flows
