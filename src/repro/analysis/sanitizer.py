"""Dynamic simulation sanitizers: lock-order and happens-before checking.

A :class:`Sanitizer` installs as ``sim.monitor`` and receives a callback from
the kernel and the sync primitives at every interesting point:

* ``on_lock_request`` — a process asked for a lock.  Feeds the **lock-order
  graph**: acquiring B while holding A adds the edge A→B; a cycle in that
  graph is a potential deadlock, reported with the acquisition stack of every
  edge on the cycle.
* ``on_sync`` / ``on_send`` / ``on_receive`` / ``on_spawn`` — vector-clock
  bookkeeping.  Locks, semaphores, condvars, barriers and queues are
  *synchronization objects*: each operation joins the caller's clock with the
  object's clock, which is exactly the happens-before order a mutex-protected
  structure provides.  Event trigger→resume and process spawn are
  message-passing edges.
* ``on_access`` — an instrumented **exclusive shared object** (the WAL writer
  state, the sequence allocator, the exclusive-mode MemTable, the OBM queue
  head) was touched.  Two accesses from different processes, at least one a
  write, with neither happening-before the other, is a data race.

Everything is a no-op unless a Sanitizer is attached, so the probes cost one
``is None`` branch in normal runs.
"""

import linecache
import sys
from typing import Dict, List, Optional, Tuple

from repro.perf import zones as _perf_zones

__all__ = ["Sanitizer", "SanitizerError", "install_sanitizer"]

#: frames of acquisition/access stacks kept in reports (innermost last).
_STACK_LIMIT = 16


class SanitizerError(AssertionError):
    """Raised by :meth:`Sanitizer.check` when any finding was recorded."""


def _stack(skip: int = 2) -> List[Tuple[str, int, str]]:
    """A trimmed stack (drops sanitizer frames) of raw ``(filename, lineno,
    name)`` frames, innermost last.  Taken on every tracked access, so it
    reads no source: only :meth:`Sanitizer.format_report` does."""
    frame = sys._getframe(skip)
    frames = []
    while frame is not None and len(frames) < _STACK_LIMIT:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return frames[::-1]


def _format(frame: Tuple[str, int, str]) -> str:
    filename, lineno, name = frame
    line = linecache.getline(filename, lineno).strip()
    return "%s:%d in %s: %s" % (filename, lineno, name, line)


class _LockOrderGraph:
    """Directed graph over lock objects; edge A→B = "B acquired under A"."""

    def __init__(self):
        #: id(lock) -> lock (keeps objects alive so ids stay unique)
        self.nodes: Dict[int, object] = {}
        #: id(lock) -> set of successor ids
        self.edges: Dict[int, set] = {}
        #: (id(A), id(B)) -> stack captured the first time the edge appeared
        self.edge_stacks: Dict[Tuple[int, int], List[Tuple[str, int, str]]] = {}

    def add_edge(self, held, wanted) -> Optional[List[Tuple[int, int]]]:
        """Record held→wanted; return the cycle (as an edge list) if this
        edge closes one, else None."""
        a, b = id(held), id(wanted)
        if a == b:
            # Recursive acquisition of a non-reentrant FIFO lock: guaranteed
            # self-deadlock, report as a one-edge cycle.
            self.nodes[a] = held
            self.edges.setdefault(a, set()).add(a)
            self.edge_stacks.setdefault((a, a), _stack(3))
            return [(a, a)]
        self.nodes[a] = held
        self.nodes[b] = wanted
        known = b in self.edges.get(a, ())
        self.edges.setdefault(a, set()).add(b)
        if (a, b) not in self.edge_stacks:
            self.edge_stacks[(a, b)] = _stack(3)
        if known:
            return None
        path = self._find_path(b, a)
        if path is None:
            return None
        # path is b -> ... -> a; closing edge a -> b completes the cycle.
        edges = list(zip(path, path[1:])) + [(a, b)]
        return edges

    def _find_path(self, src: int, dst: int) -> Optional[List[int]]:
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in sorted(self.edges.get(node, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None


class Sanitizer:
    """Lock-order + data-race monitor for one :class:`Simulator`.

    Attach with :func:`install_sanitizer` (or ``sanitizer.attach(sim)``);
    findings accumulate in :attr:`deadlock_reports` and :attr:`race_reports`;
    :meth:`check` raises :class:`SanitizerError` if any were recorded.
    """

    def __init__(self):
        self.sim = None
        self.deadlock_reports: List[dict] = []
        self.race_reports: List[dict] = []
        self._graph = _LockOrderGraph()
        self._seen_cycles = set()
        # -- vector clocks ------------------------------------------------
        #: id(process) -> {id(process): counter}
        self._clocks: Dict[int, Dict[int, int]] = {}
        #: id(process) -> process (pins ids)
        self._procs: Dict[int, object] = {}
        #: id(sync object) -> clock snapshot of the last operation
        self._sync_clocks: Dict[int, Dict[int, int]] = {}
        self._sync_refs: Dict[int, object] = {}
        #: access key -> last write record
        self._last_write: Dict[str, dict] = {}
        #: access key -> {proc id: read record} since the last write
        self._reads: Dict[str, Dict[int, dict]] = {}

    def attach(self, sim) -> "Sanitizer":
        self.sim = sim
        sim.monitor = self
        return self

    # ------------------------------------------------------------------
    # vector-clock plumbing
    # ------------------------------------------------------------------

    def _clock_of(self, proc) -> Dict[int, int]:
        pid = id(proc)
        clock = self._clocks.get(pid)
        if clock is None:
            clock = self._clocks[pid] = {pid: 0}
            self._procs[pid] = proc
        return clock

    @staticmethod
    def _join(into: Dict[int, int], other: Dict[int, int]) -> None:
        for pid, n in other.items():
            if n > into.get(pid, 0):
                into[pid] = n

    def _tick(self, proc) -> None:
        clock = self._clock_of(proc)
        pid = id(proc)
        clock[pid] = clock.get(pid, 0) + 1

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------

    def on_spawn(self, child) -> None:
        """Parent-to-child edge: the child starts with the spawner's view."""
        parent = self.sim.current_process if self.sim is not None else None
        if parent is None:
            return
        self._tick(parent)
        self._clocks[id(child)] = dict(self._clock_of(parent))
        self._procs[id(child)] = child

    def on_send(self, event) -> None:
        """An event triggered; stamp it with the triggerer's clock."""
        cur = self.sim.current_process if self.sim is not None else None
        if cur is None:
            return
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.sanitize")
        self._tick(cur)
        event._hb = dict(self._clock_of(cur))
        if _p is not None:
            _p.leave()

    def on_receive(self, proc, event) -> None:
        """A process resumes on a triggered event; join the sender's clock."""
        hb = event._hb
        if hb is None:
            return
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.sanitize")
        self._join(self._clock_of(proc), hb)
        self._tick(proc)
        if _p is not None:
            _p.leave()

    def on_sync(self, obj) -> None:
        """An operation on an internally-synchronized object (lock, queue...):
        joins the caller's clock with the object's running clock."""
        cur = self.sim.current_process if self.sim is not None else None
        if cur is None:
            return
        clock = self._clock_of(cur)
        stored = self._sync_clocks.get(id(obj))
        if stored is not None:
            self._join(clock, stored)
        self._tick(cur)
        self._sync_clocks[id(obj)] = dict(clock)
        self._sync_refs[id(obj)] = obj

    # ------------------------------------------------------------------
    # lock-order graph
    # ------------------------------------------------------------------

    def on_lock_request(self, lock, proc) -> None:
        if proc is None:
            return
        for held in proc.held_locks:
            cycle = self._graph.add_edge(held, lock)
            if cycle is None:
                continue
            names = tuple(
                sorted(self._graph.nodes[a].name for a, _ in cycle)
            )
            if names in self._seen_cycles:
                continue
            self._seen_cycles.add(names)
            self.deadlock_reports.append(
                {
                    "kind": "lock-order-cycle",
                    "process": getattr(proc, "name", "?"),
                    "time": self.sim.now if self.sim is not None else 0.0,
                    "cycle": [
                        (
                            self._graph.nodes[a].name,
                            self._graph.nodes[b].name,
                        )
                        for a, b in cycle
                    ],
                    "stacks": {
                        "%s -> %s" % (
                            self._graph.nodes[a].name,
                            self._graph.nodes[b].name,
                        ): self._graph.edge_stacks[(a, b)]
                        for a, b in cycle
                    },
                }
            )

    # ------------------------------------------------------------------
    # data races
    # ------------------------------------------------------------------

    def on_access(self, key: str, write: bool, site: str = "") -> None:
        if self.sim is None:
            return
        cur = self.sim.current_process
        if cur is None:
            return
        pid = id(cur)
        self._tick(cur)
        clock = self._clock_of(cur)
        record = {
            "process": getattr(cur, "name", "?"),
            "pid": pid,
            "epoch": clock[pid],
            "site": site,
            "time": self.sim.now,
            "stack": _stack(),
        }
        prev_write = self._last_write.get(key)
        if (
            prev_write is not None
            and prev_write["pid"] != pid
            and clock.get(prev_write["pid"], 0) < prev_write["epoch"]
        ):
            self._report_race(key, prev_write, record, write_b=write)
        if write:
            for read in self._reads.get(key, {}).values():
                if read["pid"] != pid and clock.get(read["pid"], 0) < read["epoch"]:
                    self._report_race(key, read, record, write_b=True, write_a=False)
            self._last_write[key] = record
            self._reads[key] = {}
        else:
            self._reads.setdefault(key, {})[pid] = record

    def _report_race(
        self, key: str, first: dict, second: dict, write_b: bool, write_a: bool = True
    ) -> None:
        self.race_reports.append(
            {
                "kind": "data-race",
                "object": key,
                "first": {k: first[k] for k in ("process", "site", "time", "stack")},
                "first_is_write": write_a,
                "second": {k: second[k] for k in ("process", "site", "time", "stack")},
                "second_is_write": write_b,
            }
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def findings(self) -> List[dict]:
        return self.deadlock_reports + self.race_reports

    def format_report(self) -> str:
        if not self.findings:
            return "sanitizer: no findings"
        lines = []
        for report in self.deadlock_reports:
            lines.append(
                "POTENTIAL DEADLOCK (lock-order cycle) in process %r at t=%.9f:"
                % (report["process"], report["time"])
            )
            lines.append(
                "  cycle: "
                + " -> ".join("%s" % a for a, _ in report["cycle"])
                + " -> %s" % report["cycle"][0][0]
            )
            for edge, stack in report["stacks"].items():
                lines.append("  edge %s acquired at:" % edge)
                for frame in stack[-6:]:
                    lines.append("    %s" % _format(frame))
        for report in self.race_reports:
            lines.append(
                "DATA RACE on %s: %s (%s) vs %s (%s)"
                % (
                    report["object"],
                    report["first"]["process"],
                    "write" if report["first_is_write"] else "read",
                    report["second"]["process"],
                    "write" if report["second_is_write"] else "read",
                )
            )
            for which in ("first", "second"):
                access = report[which]
                lines.append(
                    "  %s access: %s at t=%.9f, site=%s"
                    % (which, access["process"], access["time"], access["site"])
                )
                for frame in access["stack"][-6:]:
                    lines.append("    %s" % _format(frame))
        return "\n".join(lines)

    def check(self) -> None:
        """Raise :class:`SanitizerError` if any finding was recorded."""
        if self.findings:
            raise SanitizerError(self.format_report())


def install_sanitizer(env_or_sim) -> Sanitizer:
    """Attach a fresh Sanitizer to an Env or a Simulator and return it."""
    sim = getattr(env_or_sim, "sim", env_or_sim)
    return Sanitizer().attach(sim)
