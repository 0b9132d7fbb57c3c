"""Wall-clock zone attribution for the simulator's own hot paths.

A *zone* is a named synchronous code section (``"kernel.dispatch"``,
``"storage.memtable.insert"``).  Instrumented sites follow the edgelog
pattern — the module-global :data:`PROFILER` defaults to ``None`` and every
probe is guarded::

    _p = zones.PROFILER
    if _p is not None:
        _p.enter("storage.wal.encode")
    ...synchronous work...
    if _p is not None:
        _p.leave()

so a disabled probe costs one module-attribute read plus two predictable
``is not None`` branches and allocates nothing.  The kernel is
single-threaded, so one zone stack is enough ("thread-safe enough for the
single-threaded kernel"); zones are reentrant — recursive enters of the
same name nest and the inner occurrence attributes its own self time.

**Zones must never span a simulation yield point.**  Zone time is *host*
time; a generator that yielded mid-zone would charge every interleaved
process to the open zone and unbalance the LIFO stack.  All instrumented
sites wrap purely synchronous sections; the kernel's per-dispatch zone
additionally uses :meth:`ZoneProfiler.unwind` so a Python exception
escaping a callback cannot leave the stack corrupted.

Nothing returned from this module may influence the simulation: ``enter``
returns a stack-depth token (for ``unwind``), not a time, and profiled
runs are byte-identical to unprofiled ones (``tests/test_perf.py``).
"""

from time import perf_counter_ns
from typing import Dict, List, Optional

__all__ = ["PROFILER", "ZoneProfiler", "attach", "install", "uninstall"]


class ZoneProfiler:
    """Accumulates per-zone (count, total ns, self ns) over a wall window.

    ``total`` is inclusive of nested zones; ``self`` excludes them, so the
    sum of ``self`` across all zones is exactly the wall time spent inside
    at least one zone ("attributed" time).  The remainder of the window
    between :meth:`start` and :meth:`stop` is reported as unattributed.
    """

    __slots__ = ("_stack", "zones", "_started_at", "_wall_ns")

    def __init__(self) -> None:
        #: live zone stack: [name, start_ns, child_ns] per open zone.
        self._stack: List[List] = []
        #: zone name -> [count, total_ns, self_ns].
        self.zones: Dict[str, List[int]] = {}
        self._started_at: Optional[int] = None
        self._wall_ns = 0

    # -- window ----------------------------------------------------------

    def start(self) -> None:
        if self._started_at is None:
            self._started_at = perf_counter_ns()

    def stop(self) -> None:
        if self._started_at is not None:
            self._wall_ns += perf_counter_ns() - self._started_at
            self._started_at = None

    def wall_ns(self) -> int:
        """Wall nanoseconds covered so far (window still open counts)."""
        if self._started_at is None:
            return self._wall_ns
        return self._wall_ns + (perf_counter_ns() - self._started_at)

    # -- hot path --------------------------------------------------------

    def enter(self, name: str) -> int:
        """Open a zone; returns the pre-push stack depth (an unwind token)."""
        stack = self._stack
        depth = len(stack)
        stack.append([name, perf_counter_ns(), 0])
        return depth

    def leave(self) -> None:
        """Close the innermost open zone."""
        now = perf_counter_ns()
        name, begin, child = self._stack.pop()
        elapsed = now - begin
        rec = self.zones.get(name)
        if rec is None:
            rec = self.zones[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def unwind(self, depth: int) -> None:
        """Close zones until the stack is back at ``depth``.

        The kernel dispatch site uses this instead of a bare :meth:`leave`:
        if an exception tears through a process step with zones still open,
        the next dispatch closes them rather than mis-nesting forever.
        """
        stack = self._stack
        while len(stack) > depth:
            self.leave()

    # -- reporting -------------------------------------------------------

    @property
    def attributed_ns(self) -> int:
        """Wall ns spent inside at least one zone (each ns counted once)."""
        return sum(rec[2] for rec in self.zones.values())

    def snapshot(self) -> dict:
        """Plain-dict summary (host-time values: never goes in sim reports)."""
        wall = self.wall_ns()
        attributed = self.attributed_ns
        return {
            "wall_ns": wall,
            "attributed_ns": attributed,
            "unattributed_ns": max(0, wall - attributed),
            "coverage": (attributed / wall) if wall > 0 else 0.0,
            "zones": {
                name: {"count": rec[0], "total_ns": rec[1], "self_ns": rec[2]}
                for name, rec in sorted(self.zones.items())
            },
        }


#: the installed profiler, or None (the default: probes cost two branches).
PROFILER: Optional[ZoneProfiler] = None


def install(profiler: Optional[ZoneProfiler] = None) -> ZoneProfiler:
    """Install (and start) a zone profiler as the process-wide collector.

    Install *before* running the simulation: the kernel event loop hoists
    the profiler reference once per :meth:`Simulator.run` call.
    """
    global PROFILER
    if profiler is None:
        profiler = ZoneProfiler()
    PROFILER = profiler
    profiler.start()
    return profiler


def uninstall() -> None:
    """Detach the current profiler (stopping its wall window)."""
    global PROFILER
    if PROFILER is not None:
        PROFILER.stop()
    PROFILER = None


class attach:
    """Context manager: ``with zones.attach() as prof: ...`` (test-friendly)."""

    def __init__(self, profiler: Optional[ZoneProfiler] = None):
        self.profiler = profiler

    def __enter__(self) -> ZoneProfiler:
        self.profiler = install(self.profiler)
        return self.profiler

    def __exit__(self, *exc) -> None:
        uninstall()
