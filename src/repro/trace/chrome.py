"""Chrome ``trace_event`` JSON exporter.

Converts a :class:`~repro.trace.tracer.Tracer`'s recorded spans into the
Trace Event Format understood by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``:

* simulated seconds map to microseconds (``ts``/``dur`` fields) — 1 unit of
  viewer time is 1 µs of simulated time;
* each track prefix (``cores``, ``threads``, ``device``, ``queues``, ...)
  becomes a trace *process*, each full track a named *thread* row, so the
  viewer shows one timeline per simulated core, worker thread and device
  channel;
* synchronous spans become ``"X"`` complete events, async spans (queue
  residency) become ``"b"``/``"e"`` pairs, zero-width spans become ``"i"``
  instants;
* callers may add ``extra_spans`` (e.g. the critical path's blamed segments
  on a ``critpath:*`` track) and ``flows`` — chains of ``(track, ts)``
  points rendered as ``"s"``/``"t"``/``"f"`` flow events, which Perfetto
  draws as arrows connecting the slices the points land in.

The output is a JSON object (``{"traceEvents": [...]}``), the format's
self-terminating flavor, so it round-trips through ``json.loads``.
"""

import json
from itertools import chain
from typing import Dict, List, Tuple

__all__ = ["to_chrome_events", "write_chrome_trace"]

#: simulated seconds -> trace microseconds.
TIME_SCALE = 1e6


def _track_ids(tracks: List[str]) -> Dict[str, Tuple[int, int]]:
    """Assign stable (pid, tid) pairs: one pid per track prefix."""
    pids: Dict[str, int] = {}
    ids: Dict[str, Tuple[int, int]] = {}
    tids: Dict[int, int] = {}
    for track in sorted(tracks):
        process = track.split(":", 1)[0]
        pid = pids.setdefault(process, len(pids) + 1)
        tids[pid] = tids.get(pid, 0) + 1
        ids[track] = (pid, tids[pid])
    return ids

def to_chrome_events(tracer, extra_spans=(), flows=()) -> List[dict]:
    """Render every recorded span as a Chrome trace-event dict."""
    extra_spans = list(extra_spans)
    flows = list(flows)
    ids = _track_ids(
        [track for _name, _cat, track, *_rest in tracer.records()]
        + [span.track for span in extra_spans]
    )
    events: List[dict] = []
    # Metadata: name the processes and threads so tracks are readable.
    seen_pids: Dict[int, str] = {}
    for track, (pid, tid) in sorted(ids.items()):
        process = track.split(":", 1)[0]
        if pid not in seen_pids:
            seen_pids[pid] = process
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track.split(":", 1)[-1]},
            }
        )
    for span in chain(tracer.spans(), extra_spans):
        pid, tid = ids[span.track]
        ts = span.start * TIME_SCALE
        base = {
            "name": span.name,
            "cat": span.cat,
            "pid": pid,
            "tid": tid,
            "ts": ts,
        }
        if span.args:
            base["args"] = span.args
        if span.aid is not None:
            end = dict(base, ph="e", ts=span.end * TIME_SCALE, id=span.aid)
            end.pop("args", None)
            events.append(dict(base, ph="b", id=span.aid))
            events.append(end)
        elif span.end == span.start:
            events.append(dict(base, ph="i", s="t"))
        else:
            events.append(
                dict(base, ph="X", dur=(span.end - span.start) * TIME_SCALE)
            )
    for flow_id, points in flows:
        last = len(points) - 1
        for i, (track, t) in enumerate(points):
            if track not in ids:
                continue
            pid, tid = ids[track]
            ev = {
                "ph": "s" if i == 0 else ("f" if i == last else "t"),
                "name": "critpath",
                "cat": "critpath",
                "id": flow_id,
                "pid": pid,
                "tid": tid,
                "ts": t * TIME_SCALE,
            }
            if i == last:
                ev["bp"] = "e"  # bind to the enclosing slice, not the next one
            events.append(ev)
    return events


def write_chrome_trace(tracer, path: str, extra_spans=(), flows=()) -> str:
    """Write the trace as Chrome JSON; returns ``path``.

    Load the file in https://ui.perfetto.dev or ``chrome://tracing``.
    """
    payload = {
        "traceEvents": to_chrome_events(tracer, extra_spans=extra_spans, flows=flows),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.trace",
            "time_unit": "1 viewer us = 1 simulated us",
            "dropped_events": tracer.dropped,
        },
    }
    with open(path, "w") as f:
        json.dump(payload, f)
    return path
