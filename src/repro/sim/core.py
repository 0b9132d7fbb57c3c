"""Event loop, events and processes for the simulation kernel.

The kernel follows the SimPy model: a :class:`Process` wraps a Python
generator; every value the generator yields must be an :class:`Event`, and the
process is resumed when that event triggers.  Time is a float in *seconds*;
micro-latencies from the paper (e.g. 2.1 us WAL writes) are expressed as
``2.1e-6``.

Events are single-shot: they trigger once, with either a value or an
exception, and then fan out to all registered callbacks in FIFO order.

Hot-path layout (ROADMAP item 4): this module is the top of the wall-clock
zone tree, so the common cases are slot-based and allocation-free where the
semantics allow:

* an :class:`Event` stores its waiters in a single ``_cb`` slot —
  ``None`` (no waiter), a bare callable (the single-waiter common case), or
  a list only once a second waiter registers;
* heap entries are plain 5-tuples ``(when, rank, seq, target, value)``;
  deferred calls encode ``target`` as a ``(fn, arg)`` tuple so the dispatch
  loop discriminates with one ``type(target) is tuple`` check instead of an
  ``isinstance`` walk;
* :class:`Process` resumes drive ``gen.send``/``gen.throw`` directly (the
  bound ``send`` is cached at spawn) instead of allocating a closure per
  step.

Hook contract (``sim.tracer``, ``sim.monitor``, ``sim.edgelog``,
``repro.perf.zones.PROFILER``; holds for all of ``repro.sim``): one branch
per probe site when off, same path when on.  A probe site is
``if hook is not None: hook.probe(...)`` inside the one code path every run
takes; an installed observer adds its call and changes nothing else, so the
accounting a run does never depends on who is watching.

Ordering contract: all fast paths preserve the heap ordering key.  The only
tolerated difference vs. the historical kernel is *within* a single sim-time
instant (e.g. a callback added to an already-triggered event now joins that
event's pending delivery instead of a fresh heap entry), which the
perturbation-invariance contract — ``perturb_schedule`` reruns must be
byte-identical — already requires models to be robust to.  The golden
fingerprint suite (tests/test_golden.py) pins this.

Same-dispatch rule: a delivery runs inside the dispatch that caused it, with
no heap pop of its own, only when it is provably the entry the loop would
pop next, so the order of process steps is that of a kernel that queues
every delivery (tests/test_sim_core.py keeps such a loop as the oracle).
Two cases, one decided in :meth:`Simulator.run`, the other by
:meth:`Simulator.can_continue`, and nowhere else.

A completion in kernel context (``CPUSet._finish``, ``StorageDevice._finish``)
hands the event it releases back to the loop, which triggers and delivers it
at once if (1) the heap is empty or its top is *strictly later* than ``now``
— an entry at ``now`` was queued earlier and goes first — and (2) no
perturbation RNG is installed (a shuffled rank would have to be drawn and
compared); otherwise the loop calls ``succeed()`` and the delivery queues as
ever.  The ``_seq`` the entry would have taken is spent either way, and so
is ``succeed()``'s edge-log fallback for an event left un-annotated (which
only a full log does), so numbering and ``EdgeLog.dropped`` do not depend on
the path taken.

A process that yields an already-triggered event (uncontended
``Lock.acquire``, one-party ``Barrier``, non-empty ``queue.get``) queues its
delivery, which the loop pops like any other entry.

A wait that cannot wait (``Lock.acquire_now`` on a free lock,
``Barrier.arrive_now`` by the last party, nobody else waiting,
``CPUSet.exec_now`` of a zero-length burst on a free core) does not suspend
when :meth:`Simulator.can_continue` holds: the first case's conditions, plus
no error pending (the next iteration would raise before delivering) and not
one waiter of a fan-out (every sibling runs before any of them runs twice),
checked before the yield.  It does the suspending path's bookkeeping in its
order, hooks and ``_seq`` included (:meth:`Simulator._resume_in_step`).
"""

import heapq
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.perf import zones as _perf_zones
from repro.sim.wakeup import annotated

# lint: disable-file=unlabeled-wakeup -- the kernel defines succeed() and
# annotates its own wakeups (timeouts, joins, process completion) inline.

__all__ = [
    "AllOf",
    "Event",
    "LateTimeout",
    "Process",
    "SimError",
    "Simulator",
    "Timeout",
]

# An event that triggered successfully carries _ok=True; a failed event
# carries the exception in _value and re-raises it inside waiting processes.
_PENDING = object()

_INF = float("inf")


class SimError(Exception):
    """Raised for misuse of the simulation kernel (e.g. yielding non-events)."""


class Event:
    """A single-shot occurrence that processes can wait for.

    Create via :meth:`Simulator.event` (or subclasses).  Trigger with
    :meth:`succeed` or :meth:`fail`.  A process waits on an event simply by
    yielding it.
    """

    __slots__ = ("sim", "_value", "_ok", "_cb", "_hb", "_edge")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: waiter slot: None | callable | list of callables (FIFO).
        self._cb: Any = None
        #: happens-before clock stamped by the analysis monitor (if any) when
        #: the event triggers; joined into the waiter's clock on resume.
        self._hb = None
        #: wakeup edge stamped by the edgelog (if any) at the release site;
        #: consumed by repro.critpath when the waiter resumes.
        self._edge = None

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimError("event already triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        monitor = sim.monitor
        if monitor is not None:
            monitor.on_send(self)
        edgelog = sim.edgelog
        if edgelog is not None and self._edge is None:
            # Un-annotated trigger (engine-level future): generic hand-off
            # edge so the critical path still flows through the waker.
            edgelog.annotate(self, "event")
        sim._seq = seq = sim._seq + 1
        rng = sim._perturb_rng
        _heappush(
            sim._heap,
            (sim._now, rng.random() if rng is not None else 0.0, seq, self, _PENDING),
        )
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimError("fail() requires an exception instance")
        self._value = exc
        self._ok = False
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_send(self)
        self.sim._queue_callbacks(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` once the event has triggered.

        If the event already triggered, the callback fires on the next loop
        iteration (never synchronously), preserving run-to-completion
        semantics for the caller: it joins the event's still-pending delivery
        if one exists, else a fresh delivery entry is queued — no per-call
        closure or heap entry on hot futures.
        """
        cb = self._cb
        if self._value is _PENDING:
            if cb is None:
                self._cb = fn
            elif type(cb) is list:
                cb.append(fn)
            else:
                self._cb = [cb, fn]
            return
        # Already triggered.  A non-None _cb means a delivery entry is still
        # pending in the heap (drains set _cb back to None), so appending is
        # enough; from None we must queue a delivery for this callback.
        if cb is None:
            self._cb = fn
            self.sim._queue_callbacks(self)
        elif type(cb) is list:
            cb.append(fn)
        else:
            self._cb = [cb, fn]


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError("negative timeout: %r" % (delay,))
        self.sim = sim
        self._value = _PENDING
        self._ok = None
        self._cb = None
        self._hb = None
        self._edge = None
        edgelog = sim.edgelog
        if edgelog is not None:
            # Timers never pass through succeed() — Simulator.run delivers
            # them directly — so the edge must be stamped at creation.
            edgelog.annotate(
                self, "timeout", kind="resource", initiator=sim.current_process
            )
        sim._seq = seq = sim._seq + 1
        rng = sim._perturb_rng
        _heappush(
            sim._heap,
            (
                sim._now + delay,
                rng.random() if rng is not None else 0.0,
                seq,
                self,
                value,
            ),
        )


class LateTimeout(Event):
    """A timeout delivered after every other event at the same instant.

    Same-time heap entries normally deliver FIFO (or seeded-shuffled under
    :meth:`Simulator.perturb_schedule`); a late timeout carries a fixed rank
    above both, so its waiter resumes only once the instant's other activity
    — including same-time cascades it triggers — has drained.  Observers
    (the sim-time sampler) use this: an end-of-instant snapshot is the same
    for every same-time delivery order, a mid-instant one is not.
    """

    __slots__ = ()

    #: sorts after FIFO's 0.0 and after any perturbation rank in [0, 1).
    RANK = 2.0

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError("negative timeout: %r" % (delay,))
        super().__init__(sim)
        edgelog = sim.edgelog
        if edgelog is not None:
            edgelog.annotate(
                self, "timeout", kind="resource", initiator=sim.current_process
            )
        sim._push(sim._now + delay, self, value, rank=self.RANK)


class Process(Event):
    """A running generator.  As an Event it triggers when the generator ends.

    The generator's ``return`` value becomes the event value, so
    ``result = yield some_process`` works, as does ``yield from`` composition
    between plain generator functions.
    """

    #: ``_hist``: the installed edge log's resume history of this process,
    #: set at its first recorded resume (unset until then).
    __slots__ = ("gen", "name", "held_locks", "_send", "_wake", "_hist")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self._value = _PENDING
        self._ok = None
        self._cb = None
        self._hb = None
        self._edge = None
        self.gen = gen
        #: bound gen.send, cached once: resumes are the hottest call site in
        #: the kernel and must not re-resolve the method per step.
        self._send = gen.send
        #: bound _resume, cached for the same reason: it is stored in the
        #: waiter slot of every event this process yields.
        self._wake = self._resume
        self.name = name or getattr(gen, "__name__", "process")
        #: sim locks currently owned by this process (repro.sim.sync
        #: maintains this); a process must release them before returning.
        self.held_locks: List[Any] = []
        monitor = sim.monitor
        if monitor is not None:
            monitor.on_spawn(self)
        edgelog = sim.edgelog
        if edgelog is not None:
            edgelog.on_spawn(self, sim.current_process, sim._now)
        # Kick off on the next loop iteration.
        sim._seq = seq = sim._seq + 1
        rng = sim._perturb_rng
        _heappush(
            sim._heap,
            (
                sim._now,
                rng.random() if rng is not None else 0.0,
                seq,
                (self._resume_ok, None),
                _PENDING,
            ),
        )

    def _resume_ok(self, _event: Optional[Event]) -> None:
        """First step: no receive hooks."""
        sim = self.sim
        sim.current_process = self
        try:
            target = self._send(None if _event is None else _event._value)
        except StopIteration as stop:
            self._on_stop(stop.value)
            sim.current_process = None
            return
        except BaseException as exc:  # lint: disable=crash-swallowed  (kernel boundary: fail() re-raises at every waiter, _crash aborts the run)
            self._on_error(exc)
            sim.current_process = None
            return
        sim.current_process = None
        if isinstance(target, Event):
            target.add_callback(self._wake)
        else:
            self._step_fail(target)

    def _resume(self, event: Event) -> None:
        """Run one step and register for the event the process yields."""
        sim = self.sim
        monitor = sim.monitor
        if monitor is not None:
            monitor.on_receive(self, event)
        edgelog = sim.edgelog
        if edgelog is not None:
            edgelog.on_resume(self, event, sim._now)
        sim.current_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            self._on_stop(stop.value)
            sim.current_process = None
            return
        except BaseException as exc:  # lint: disable=crash-swallowed  (kernel boundary: fail() re-raises at every waiter, _crash aborts the run)
            self._on_error(exc)
            sim.current_process = None
            return
        sim.current_process = None
        try:
            waiters = target._cb
        except AttributeError:
            self._step_fail(target)
            return
        if waiters is not None:
            target.add_callback(self._wake)
            return
        # add_callback for the single-waiter case, inline.
        target._cb = self._wake
        if target._value is not _PENDING:
            sim._queue_callbacks(target)

    def _on_stop(self, value: Any) -> None:
        """Generator returned: trigger the process event (current_process is
        still this process, so the completion edge blames the right waker)."""
        if self.held_locks:
            # A finished generator can never release its locks, so every
            # future acquirer would hang silently.  Fail loudly instead.
            self._exit_holding_locks()
            return
        edgelog = self.sim.edgelog
        if edgelog is not None:
            # Waker is still `self` here (current_process), so joiners'
            # paths continue through the finished process's history.
            edgelog.annotate(self, "process")
        self.succeed(value)

    def _on_error(self, exc: BaseException) -> None:
        if self._cb is not None:
            self.fail(exc)
        else:
            # Nobody is waiting: surface the error out of Simulator.run().
            self.sim._crash(exc)

    def _exit_holding_locks(self) -> None:
        names = ", ".join(repr(lock.name) for lock in self.held_locks)
        exc = SimError(
            "process %r exited while holding lock(s) %s: waiters would hang "
            "forever; release before returning (or use try/finally)"
            % (self.name, names)
        )
        # Deadlocked state is unrecoverable: surface the error even when a
        # waiter exists, so Simulator.run() always fails fast.
        if self._cb is not None:
            self.fail(exc)
        self.sim._crash(exc)

    def _step_fail(self, target: Any) -> None:
        exc = SimError(
            "process %r yielded %r, which is not an Event" % (self.name, target)
        )
        self.gen.close()
        self.sim._crash(exc)


class AllOf(Event):
    """Triggers once every event in ``events`` has triggered.

    The value is the list of the individual event values, in input order.
    Fails fast if any child fails.
    """

    __slots__ = ("_pending", "_results")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._results: List[Any] = [None] * len(events)
        self._pending = len(events)
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(self._make_child_callback(i))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(ev: Event) -> None:
            if self.triggered:
                return
            if not ev.ok:
                self.fail(ev.value)
                return
            self._results[index] = ev.value
            self._pending -= 1
            if self._pending == 0:
                edgelog = self.sim.edgelog
                if edgelog is not None:
                    # The join completes through its last child: record the
                    # child event so the walk can follow the child's edge.
                    edgelog.annotate(self, "join", via=ev)
                self.succeed(self._results)

        return on_child


class Simulator:
    """The event loop: a time-ordered heap of triggered events to deliver."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List = []
        self._seq = 0  # tie-break so heap order is FIFO and deterministic
        self._pending_error: Optional[BaseException] = None
        #: span recorder (see repro.trace); None = zero overhead.
        self.tracer = None
        #: analysis hook (see repro.analysis.sanitizer); None = zero overhead.
        self.monitor = None
        #: wakeup-edge recorder (see repro.critpath); None = zero overhead.
        self.edgelog = None
        #: the Process currently executing a step, or None in kernel context.
        self.current_process: Optional["Process"] = None
        #: seeded RNG for schedule perturbation; None keeps FIFO tie-break.
        self._perturb_rng = None
        #: True while run() resumes the waiters of one event in turn.
        self._fanout = False

    def perturb_schedule(self, seed: int) -> None:
        """Randomize delivery order of same-time events (seeded, reproducible).

        Entries at *different* sim times are unaffected; FIFO order among
        same-time entries — normally the insertion order — is replaced by a
        seeded shuffle.  A correct model must produce the same final state
        and metrics for every seed (see docs/ANALYSIS.md).
        """
        import random  # lint: disable=global-random  (seeded Random only)

        self._perturb_rng = random.Random(seed)

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    # -- event construction ----------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_late(self, delay: float, value: Any = None) -> LateTimeout:
        """A timeout that resumes its waiter at the *end* of the target
        instant, after every same-time event (perturbation-stable)."""
        return LateTimeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start running ``gen`` as a concurrent simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def cancel(self, timeout: Event) -> None:
        """Withdraw a pending ``timeout`` from the schedule: it never fires,
        so its instant neither keeps :meth:`run` going nor moves the clock,
        and a process waiting on it never resumes."""
        heap = self._heap
        kept = [entry for entry in heap if entry[3] is not timeout]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)

    # -- scheduling internals ----------------------------------------------

    def _push(
        self, when: float, target: Any, value: Any, rank: Optional[float] = None
    ) -> None:
        """Heap insert.  Ties at equal ``when`` break FIFO by default; under
        schedule perturbation a seeded random rank shuffles same-time order
        (the trailing seq keeps runs reproducible per seed).  An explicit
        ``rank`` (see :class:`LateTimeout`) bypasses both."""
        self._seq += 1
        if rank is None:
            rng = self._perturb_rng
            rank = rng.random() if rng is not None else 0.0
        _heappush(self._heap, (when, rank, self._seq, target, value))

    def _queue_callbacks(self, event: Event) -> None:
        """Deliver an already-triggered event's callbacks at the current time."""
        self._push(self._now, event, _PENDING)

    def _call_later(self, delay: float, fn: Callable, arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` seconds — how cpu/device schedule
        burst and IO completion.

        Equivalent to ``timeout(delay).add_callback(fn)`` with the same heap
        ordering key, minus the Timeout event and per-burst closure.  No
        process waits on the entry, so it carries no wakeup edge; ``fn``
        stamps the edge on the event it releases and returns it (see
        :func:`repro.sim.wakeup.annotated`) for :meth:`run` to trigger — in
        the same dispatch when the ordering contract allows, through
        ``succeed()`` otherwise; a ``fn`` that releases nothing returns None.
        """
        self._seq += 1
        rng = self._perturb_rng
        _heappush(
            self._heap,
            (
                self._now + delay,
                rng.random() if rng is not None else 0.0,
                self._seq,
                (fn, arg),
                _PENDING,
            ),
        )

    def can_continue(self) -> bool:
        """Would a triggered event yielded now come straight back to its yielder?"""
        heap = self._heap
        if heap and heap[0][0] <= self._now:
            return False
        return self._perturb_rng is None and self._pending_error is None and not self._fanout

    def _resume_in_step(self, event: Optional[Event], completion: bool, *edge) -> None:
        """Trigger ``event`` (made if an observer needs one) with ``edge`` as
        ``wake()`` — or :meth:`run`, for a ``completion`` — would, and resume
        the current process on it in its step, spending the ``_seq`` and
        making the hook calls of the suspend :meth:`can_continue` allowed."""
        self._seq += 2
        monitor, edgelog = self.monitor, self.edgelog
        if monitor is None and edgelog is None:
            return
        event = event or Event(self)
        event._value, event._ok = None, True
        proc = self.current_process
        self.current_process = None if completion else proc
        annotated(event, *edge)
        if monitor is not None:
            monitor.on_send(event)
        if edgelog is not None and event._edge is None:
            edgelog.annotate(event, "event")  # as succeed() does
        self.current_process = None
        if monitor is not None:
            monitor.on_receive(proc, event)
        if edgelog is not None:
            edgelog.on_resume(proc, event, self._now)
        self.current_process = proc

    def _crash(self, exc: BaseException) -> None:
        if self._pending_error is None:
            self._pending_error = exc

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event heap is empty or sim time passes ``until``.

        Errors raised by processes with no waiters propagate out of here.

        Dispatch discriminates deferred ``(fn, arg)`` calls from event
        deliveries with a single ``type(target) is tuple`` check; event
        deliveries drain the single ``_cb`` slot without allocating or
        swapping lists.
        """
        heap = self._heap
        pop = heapq.heappop
        push = _heappush
        limit = _INF if until is None else until
        # Host profiler, hoisted once per run() call (installed before the
        # loop starts; see repro.perf.zones).  The zone wraps one dispatch —
        # the synchronous host work of one heap pop, including every process
        # step it triggers — and unwind() guarantees the zone stack survives
        # exceptions tearing through a callback.
        perf = _perf_zones.PROFILER
        while heap:
            if self._pending_error is not None:
                err, self._pending_error = self._pending_error, None
                raise err
            entry = pop(heap)
            when = entry[0]
            if when > limit:
                push(heap, entry)
                self._now = until
                return
            self._now = when
            if perf is not None:
                tok = perf.enter("kernel.dispatch")
            target = entry[3]
            if type(target) is tuple:
                # A deferred call.  A completion hands back the event it
                # releases, edge already stamped (see _call_later).
                target = target[0](target[1])
                if target is not None:
                    if (
                        (heap and heap[0][0] <= when)
                        or self._perturb_rng is not None
                        or target._value is not _PENDING
                    ):
                        # Not provably next (or already triggered, which
                        # succeed() reports): queue like any other release.
                        target.succeed()
                        target = None
                    else:
                        # The entry succeed() would push is the next one
                        # popped: trigger as succeed() does and deliver
                        # below — its seq spent, its heap round trip not.
                        target._value = None
                        target._ok = True
                        monitor = self.monitor
                        if monitor is not None:
                            monitor.on_send(target)
                        edgelog = self.edgelog
                        if edgelog is not None and target._edge is None:
                            # succeed()'s fallback: fires only when the
                            # completion's own edge found the log full.
                            edgelog.annotate(target, "event")
                        self._seq += 1
            else:
                value = entry[4]
                if value is not _PENDING and target._value is _PENDING:
                    # A timer-style entry: trigger the event now.
                    target._value = value
                    target._ok = True
            if target is not None:
                cb = target._cb
                if cb is not None:
                    target._cb = None
                    if type(cb) is list:
                        # Several waiters: each runs before any of them runs
                        # again, so none continues within its step.
                        self._fanout = True
                        for fn in cb:
                            fn(target)
                        self._fanout = False
                    else:
                        cb(target)
            if perf is not None:
                perf.unwind(tok)
        if self._pending_error is not None:
            err, self._pending_error = self._pending_error, None
            raise err
        if until is not None:
            self._now = max(self._now, until)
