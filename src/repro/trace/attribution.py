"""Per-category latency attribution — Figure 6's breakdown, from spans.

The paper's core evidence is *attribution*: each write's time divided into
WAL, MemTable, WAL lock, MemTable lock and Others (Figure 6).  The CPU model
already accounts busy/wait time per category on every
:class:`~repro.sim.cpu.ThreadContext`; when tracing is enabled the same
accounting is also emitted as spans (cat ``"busy"`` / ``"wait"``, name =
the accounting category, track = the thread's track).

This module owns Figure 6's taxonomy — the five buckets, the raw
category → bucket maps and the critical-path label → bucket rule — and folds
each source onto it:

* :func:`fig06_from_contexts` — from thread contexts (what
  ``benchmarks/bench_fig06_latency_breakdown.py`` reports);
* :func:`fig06_from_spans` — the same buckets recomputed purely from
  recorded spans, optionally restricted to a track subset and a time window;
* :func:`fig06_from_blame` — from a critical-path blame ranking
  (:func:`repro.critpath.aggregate_blame`), the cross-check that the
  critical path and the span accounting tell one story.

``tests/test_trace.py`` asserts the first two agree on the same run, so the
trace output and the benchmark's numbers stay mutually verifiable.
"""

from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "CATEGORIES",
    "fig06_breakdown",
    "fig06_from_blame",
    "fig06_from_contexts",
    "fig06_from_spans",
    "span_totals",
]

#: Figure 6's category names, in presentation order.
CATEGORIES = ["WAL", "MemTable", "WAL lock", "MemTable lock", "Others"]

# Raw accounting category -> Figure 6 bucket.  Mirrors the summation in
# benchmarks/bench_fig06_latency_breakdown.py exactly: categories absent from
# these maps (e.g. read/flush/compaction busy time, publish or request waits)
# are outside the write-path breakdown and are ignored.
_BUSY_MAP = {
    "wal": "WAL",
    "memtable": "MemTable",
    "wal_lock": "WAL lock",
    "other": "Others",
}
_WAIT_MAP = {
    "wal": "WAL",
    "wal_lock": "WAL lock",
    "memtable_lock": "MemTable lock",
    "cpu_queue": "Others",
    "stall": "Others",
}


def _label_bucket(label: str) -> str:
    """Map a critical-path blame label onto Figure 6's five buckets.

    Lock labels must be checked before the bare wal/memtable substrings:
    ``lock:mem-stage:wal_lock`` is WAL-lock time, not WAL time.
    """
    if "wal_lock" in label:
        return "WAL lock"
    if "memtable_lock" in label or "mem-stage" in label:
        return "MemTable lock"
    if "wal" in label:
        return "WAL"
    if "memtable" in label:
        return "MemTable"
    return "Others"


Window = Tuple[float, float]


def span_totals(
    tracer,
    tracks: Optional[Iterable[str]] = None,
    window: Optional[Window] = None,
    since: int = 0,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Sum busy/wait span durations per raw accounting category.

    ``tracks`` restricts to a set of track names (e.g. the user threads);
    ``window`` clips each span to the overlap with ``[t0, t1]`` so a
    measured window excludes preload spans and trailing background work.
    ``since`` (``len(tracer.rows)`` when the window opened) skips what was
    recorded before it: rows are in finish-time order, so none overlaps.
    """
    track_set = set(tracks) if tracks is not None else None
    busy: Dict[str, float] = defaultdict(float)
    wait: Dict[str, float] = defaultdict(float)
    for name, cat, track, start, end, _aid, _keys in tracer.records(since):
        if cat == "busy":
            into = busy
        elif cat == "wait":
            into = wait
        else:
            continue
        if track_set is not None and track not in track_set:
            continue
        if window is not None:
            start = max(start, window[0])
            end = min(end, window[1])
            if end <= start:
                continue
        into[name] += end - start
    return dict(busy), dict(wait)


def fig06_breakdown(
    busy: Dict[str, float], wait: Dict[str, float]
) -> Dict[str, object]:
    """Fold raw busy/wait category totals into Figure 6's five buckets.

    Returns ``{"categories": {bucket: seconds}, "shares": {bucket: fraction},
    "total": seconds}``.  Shares are zero when the total is zero.
    """
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for category, bucket in _BUSY_MAP.items():
        totals[bucket] += busy.get(category, 0.0)
    for category, bucket in _WAIT_MAP.items():
        totals[bucket] += wait.get(category, 0.0)
    return _with_shares(totals)


def fig06_from_blame(blame: Dict[str, object]) -> Dict[str, object]:
    """Fold a critical-path blame ranking into Figure 6's buckets, same
    shape as :func:`fig06_breakdown`."""
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for row in blame["rows"]:
        totals[_label_bucket(row["label"])] += row["seconds"]
    return _with_shares(totals)


def _with_shares(totals: Dict[str, float]) -> Dict[str, object]:
    total = sum(totals.values())
    shares = {k: (v / total if total > 0 else 0.0) for k, v in totals.items()}
    return {"categories": totals, "shares": shares, "total": total}


def fig06_from_contexts(contexts) -> Dict[str, object]:
    """Figure 6 breakdown from thread contexts' busy/wait accounting."""
    busy: Dict[str, float] = defaultdict(float)
    wait: Dict[str, float] = defaultdict(float)
    for ctx in contexts:
        for category, dt in ctx.busy_by_category.items():
            busy[category] += dt
        for category, dt in ctx.wait_by_category.items():
            wait[category] += dt
    return fig06_breakdown(busy, wait)


def fig06_from_spans(
    tracer,
    tracks: Optional[Iterable[str]] = None,
    window: Optional[Window] = None,
) -> Dict[str, object]:
    """Figure 6 breakdown recomputed purely from recorded spans."""
    busy, wait = span_totals(tracer, tracks=tracks, window=window)
    return fig06_breakdown(busy, wait)
