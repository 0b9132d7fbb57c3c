"""CPU core model.

A :class:`CPUSet` owns ``n_cores`` cores.  Simulated threads
(:class:`ThreadContext`) must occupy a core to burn CPU time::

    yield cpu.exec(ctx, 2.9e-6, "memtable")

With more runnable threads than cores, bursts queue — reproducing the core
saturation that caps multi-instance scaling in the paper's Figure 5a.  A
thread may be *pinned* to one core (the paper pins workers to cores and
reports a gain, claim ``fig05.pinning``); unpinned threads pay a migration
penalty when they land on a different core than their previous burst, which
is what that gain measures.

Per-thread accounting of busy and wait time by category feeds the latency
breakdown of Figure 6 (WAL / MemTable / WAL lock / MemTable lock / Others).
Per-core busy seconds (``core_busy_time``) feed the window-average CPU
utilization of Figures 4, 5a and 21b; CPU *over time* is the opt-in sampler's
``cpu.busy_cores`` gauge (:mod:`repro.metrics.sampler`), not recorded here.
"""

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.core import Event, SimError, Simulator
from repro.trace.tracer import thread_track

__all__ = ["CPUSet", "ThreadContext"]


class ThreadContext:
    """Identity + accounting for one simulated thread."""

    __slots__ = (
        "name",
        "kind",
        "pinned",
        "last_core",
        "busy_time",
        "busy_by_category",
        "wait_by_category",
        "sim",
        "track",
    )

    def __init__(
        self,
        name: str,
        kind: str = "user",
        pinned: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ):
        self.name = name
        self.kind = kind  # "user" | "worker" | "background"
        self.pinned = pinned
        self.sim = sim
        self.track = thread_track(name)
        self.last_core: Optional[int] = None
        self.busy_time = 0.0
        self.busy_by_category: Dict[str, float] = defaultdict(float)
        self.wait_by_category: Dict[str, float] = defaultdict(float)

    # CPUSet._finish (busy) and account_wait are the funnel for every
    # Figure 6 input (CPU bursts, lock hold/wait, WAL flush waits, stalls);
    # the metrics collector windows these totals into Metrics.attribution.
    # When tracing is on, each accounted interval is also emitted as a span
    # on this thread's track — every caller accounts dt = now - start, so
    # the interval is exactly [now - dt, now].

    def account_wait(self, category: str, dt: float) -> None:
        self.wait_by_category[category] += dt
        if self.sim is not None and dt > 0:
            tracer = self.sim.tracer
            if tracer is not None:
                now = self.sim._now
                tracer.complete(category, "wait", self.track, now - dt, now)

    def __repr__(self) -> str:
        return "ThreadContext(%r, kind=%r, pinned=%r)" % (
            self.name,
            self.kind,
            self.pinned,
        )


class CPUSet:
    """A fixed set of cores that simulated threads contend for."""

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        migration_overhead: float = 1.5e-6,
    ):
        if n_cores < 1:
            raise SimError("need at least one core")
        self.sim = sim
        self.n_cores = n_cores
        self.migration_overhead = migration_overhead
        #: seconds each core has spent occupied; the measured window's
        #: per-core utilization (repro.harness.metrics) is a delta of these.
        self.core_busy_time: List[float] = [0.0] * n_cores
        self._busy: List[bool] = [False] * n_cores
        self._pinned_waiting: List[Deque[Tuple]] = [deque() for _ in range(n_cores)]
        self._global_waiting: Deque[Tuple] = deque()
        #: cores some thread is pinned to; the scheduler steers unpinned
        #: work away from them (as a tuned deployment would via cpusets),
        #: so background bursts don't stall pinned foreground threads.
        self._pinned_cores: set = set()
        self.busy_by_kind: Dict[str, float] = defaultdict(float)
        self.threads: List[ThreadContext] = []
        #: what-if knob (see repro.critpath.whatif): burst durations for a
        #: category are multiplied by its factor.  Empty = exact baseline.
        self.category_scale: Dict[str, float] = {}
        #: per-core tracer/edge track names, formatted once instead of per
        #: burst ("cores:core-3" strings were a measurable share of _finish).
        self._tracks: List[str] = ["cores:core-%d" % c for c in range(n_cores)]

    # -- thread management -------------------------------------------------

    def new_thread(
        self, name: str, kind: str = "user", pinned: Optional[int] = None
    ) -> ThreadContext:
        if pinned is not None and not (0 <= pinned < self.n_cores):
            raise SimError("pin target %r out of range" % (pinned,))
        ctx = ThreadContext(name, kind=kind, pinned=pinned, sim=self.sim)
        if pinned is not None:
            self._pinned_cores.add(pinned)
        self.threads.append(ctx)
        return ctx

    # -- execution -----------------------------------------------------------

    def exec(self, ctx: ThreadContext, duration: float, category: str = "other") -> Event:
        """Occupy a core for ``duration`` seconds; yield the returned event.

        A burst that finds its core free starts right here (the common case:
        one call from the model to the heap entry); one that has to wait is
        started by :meth:`_finish` through :meth:`_start`."""
        if duration < 0:
            raise SimError("negative CPU burst")
        if self.category_scale:
            duration *= self.category_scale.get(category, 1.0)
        sim = self.sim
        ev = Event(sim)
        proc = sim.current_process
        edgelog = sim.edgelog
        if edgelog is not None:
            # bind_track's own test, without the call: a thread mostly runs
            # one process, so the track's last binding is usually it.
            bound = edgelog.track_bindings.get(ctx.track)
            if not bound or bound[-1][1] is not proc:
                edgelog.bind_track(ctx.track, proc)
        now = sim._now
        # Core choice: the pinned core; else the core this thread last ran
        # on (warm cache); else whatever _pick_free_core finds, at the price
        # of a migration.
        busy = self._busy
        core = ctx.pinned
        if core is None:
            core = last = ctx.last_core
            if core is None or busy[core]:
                core = self._pick_free_core()
                if core is None:
                    self._global_waiting.append((ctx, duration, category, ev, now, proc))
                    return ev
                if last is not None:
                    duration += self.migration_overhead
                ctx.last_core = core
        elif busy[core]:
            self._pinned_waiting[core].append((ctx, duration, category, ev, now, proc))
            return ev
        else:
            ctx.last_core = core
        busy[core] = True
        sim._call_later(
            duration, self._finish, (core, ctx, now, duration, category, ev, now, proc)
        )
        return ev

    def exec_now(self, ctx: ThreadContext, duration: float, category: str = "other"):
        """:meth:`exec` for ``yield from``: nothing to wait on for a zero-length
        burst on the thread's free core when ``sim.can_continue()``."""
        sim = self.sim
        core = ctx.pinned if ctx.pinned is not None else ctx.last_core
        if duration or core is None or self._busy[core] or not sim.can_continue():
            return (self.exec(ctx, duration, category),)
        proc, now, track = sim.current_process, sim._now, self._tracks[core]
        if sim.edgelog is not None:
            sim.edgelog.bind_track(ctx.track, proc)
        ctx.last_core = core
        # _finish for 0 s: += 0.0 leaves every total as is but makes the keys
        if sim.tracer is not None:
            sim.tracer.burst(category, track, ctx.name, now, now, ctx.track, 0.0)
        ctx.busy_by_category[category] += 0.0
        self.busy_by_kind[ctx.kind] += 0.0
        sim._resume_in_step(None, True, "cpu", category, "resource", now, now, proc, track)
        return ()

    def _pick_free_core(self) -> Optional[int]:
        """Any free core nobody is pinned to, then any free core at all."""
        fallback = None
        busy = self._busy
        for c in range(self.n_cores):
            if not busy[c]:
                if c not in self._pinned_cores:
                    return c
                if fallback is None:
                    fallback = c
        return fallback

    def _start(self, core: int, item: Tuple) -> None:
        """Start a burst that waited for ``core`` (see :meth:`exec`)."""
        ctx, duration, category, ev, queued_at, initiator = item
        sim = self.sim
        now = sim._now
        if queued_at < now:
            ctx.account_wait("cpu_queue", now - queued_at)
        if (
            ctx.pinned is None
            and ctx.last_core is not None
            and ctx.last_core != core
        ):
            duration += self.migration_overhead
        ctx.last_core = core
        self._busy[core] = True
        sim._call_later(
            duration,
            self._finish,
            (core, ctx, now, duration, category, ev, queued_at, initiator),
        )

    def _finish(self, item: Tuple) -> Event:
        core, ctx, started, duration, category, ev, queued_at, initiator = item
        sim = self.sim
        end = sim._now
        self.core_busy_time[core] += end - started
        track = self._tracks[core]
        tracer = sim.tracer
        if tracer is not None:
            # Core-occupancy view (one row per core, labelled by the burst)
            # and the thread's busy span.
            tracer.burst(category, track, ctx.name, started, end, ctx.track, duration)
        # The thread's busy accounting (Figure 6's CPU input).
        ctx.busy_time += duration
        ctx.busy_by_category[category] += duration
        self.busy_by_kind[ctx.kind] += duration
        self._busy[core] = False
        pinned = self._pinned_waiting[core]
        if pinned:
            self._start(core, pinned.popleft())
        elif self._global_waiting:
            self._start(core, self._global_waiting.popleft())
        edgelog = sim.edgelog
        if edgelog is not None:  # what wakeup.annotated would stamp
            edgelog.annotate(
                ev, "cpu", category, "resource", started, queued_at, initiator, None, track
            )
        return ev

    # -- metrics -------------------------------------------------------------

    def total_busy_time(self) -> float:
        return sum(self.core_busy_time)

    def busy_cores(self) -> int:
        """Cores occupied right now (the sampler's CPU gauge)."""
        return sum(1 for busy in self._busy if busy)
