"""Host-clock spans the benchmark records around its own calls into each layer.

The program under test is not instrumented by this file: a span brackets one
call from perfbench into a layer (``make_env``, ``open_system``, a workload
generator, ``preload``, ``run_closed_loop`` ...).  Spans stay in memory and
are written out once, when the run ends.
"""

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List


class SpanLog:
    """Nested spans of one workload run: name, start, end, parent, workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start_ns": perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = perf_counter_ns()
            self._open.pop()

    def seconds_under(self, root: dict) -> Dict[str, float]:
        """Total seconds per span name among the descendants of ``root``."""
        inside = {root["id"]}
        totals: Dict[str, float] = {}
        for record in self.spans[root["id"] + 1:]:
            if record["parent"] not in inside:
                continue
            inside.add(record["id"])
            totals[record["name"]] = totals.get(record["name"], 0.0) + seconds(record)
        return totals


def seconds(record: dict) -> float:
    return (record["end_ns"] - record["start_ns"]) / 1e9
