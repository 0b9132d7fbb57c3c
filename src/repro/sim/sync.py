"""Synchronization primitives for simulated threads.

All primitives hand off in FIFO order, which keeps runs deterministic.  Wait
time can be *accounted* against a :class:`~repro.sim.cpu.ThreadContext`
category (e.g. ``"wal_lock"``), which is how the latency breakdown of the
paper's Figure 6 is measured.

Every primitive reports to ``sim.monitor`` (when one is installed — see
:mod:`repro.analysis.sanitizer`): lock acquisition requests feed the
lock-order (potential deadlock) graph, and every grant/release/notify is a
happens-before edge for the vector-clock race detector.
"""

from collections import deque
from typing import Deque, Optional, Tuple

from repro.sim.core import Event, SimError, Simulator
from repro.sim.wakeup import wake

__all__ = ["Barrier", "Condition", "Lock", "Semaphore"]


class Lock:
    """A FIFO mutex.

    Usage inside a process::

        yield lock.acquire(ctx, "wal_lock")
        ...critical section...
        lock.release()

    The kernel tracks which :class:`~repro.sim.core.Process` owns the lock:
    a process that returns while still holding one fails the run with a
    clear :class:`SimError` instead of silently hanging its waiters.
    """

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        #: edge resource label, formatted once (acquire/release are hot).
        self._resource = "lock:%s" % name
        self._locked = False
        self._owner = None  # Process holding the lock, when acquired inside one
        self._waiters: Deque[Tuple[Event, Optional[object], Optional[str], float, object]] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def owner(self):
        """The Process currently holding the lock (None outside processes)."""
        return self._owner

    def acquire(self, ctx=None, category: Optional[str] = None) -> Event:
        """Return an event that triggers once the lock is held by the caller."""
        sim = self.sim
        ev = Event(sim)
        proc = sim.current_process
        monitor = sim.monitor
        if monitor is not None:
            monitor.on_lock_request(self, proc)
        if not self._locked:
            self._locked = True
            self._grant(proc)
            if monitor is not None:
                monitor.on_sync(self)
            wake(ev, resource=self._resource, category=category or "")
        else:
            self._waiters.append((ev, ctx, category, sim.now, proc))
        return ev

    def acquire_now(self, ctx=None, category: Optional[str] = None) -> Tuple[Event, ...]:
        """:meth:`acquire` for ``yield from``: nothing to wait on when the lock
        is free and ``sim.can_continue()`` (it is taken in the step)."""
        sim = self.sim
        if self._locked or not sim.can_continue():
            return (self.acquire(ctx, category),)  # lint: disable=lock-pairing  (the caller releases)
        proc, monitor = sim.current_process, sim.monitor
        if monitor is not None:
            monitor.on_lock_request(self, proc)
        self._locked = True
        self._grant(proc)
        if monitor is not None:
            monitor.on_sync(self)
        sim._resume_in_step(None, False, self._resource, category or "")
        return ()

    def _grant(self, proc) -> None:
        self._owner = proc
        if proc is not None:
            proc.held_locks.append(self)

    def release(self) -> None:
        if not self._locked:
            raise SimError("release of unlocked %s" % self.name)
        owner = self._owner
        if owner is not None and self in owner.held_locks:
            owner.held_locks.remove(self)
        self._owner = None
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_sync(self)
        if self._waiters:
            ev, ctx, category, since, proc = self._waiters.popleft()
            if ctx is not None and category is not None:
                ctx.account_wait(category, self.sim.now - since)
            self._grant(proc)
            wake(
                ev,
                resource=self._resource,
                category=category or "",
                queued_at=since,
            )
        else:
            self._locked = False


class Semaphore:
    """A counting semaphore with FIFO hand-off."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem"):
        if capacity < 1:
            raise SimError("semaphore capacity must be >= 1")
        self.sim = sim
        self.name = name
        self._resource = "sem:%s" % name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Tuple[Event, float]] = deque()

    def acquire(self) -> Event:
        ev = self.sim.event()
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_sync(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            wake(ev, resource=self._resource)
        else:
            self._waiters.append((ev, self.sim.now))
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError("release of idle %s" % self.name)
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_sync(self)
        if self._waiters:
            ev, since = self._waiters.popleft()
            wake(ev, resource=self._resource, queued_at=since)
        else:
            self._in_use -= 1


class Condition:
    """A condition variable decoupled from any particular lock.

    ``wait()`` returns an event; ``notify_all()`` wakes every current waiter.
    Wakeup order is FIFO in wait order (deterministic).  Callers re-check
    their predicate after waking, as with any condvar — the lint rule
    ``condvar-wait-loop`` enforces the re-check structurally.
    """

    def __init__(self, sim: Simulator, name: str = "cond"):
        self.sim = sim
        self.name = name
        self._resource = "cond:%s" % name
        self._waiters: Deque[Tuple[Event, float, Optional[str]]] = deque()

    def wait(self, ctx=None, category: Optional[str] = None) -> Event:
        ev = self.sim.event()
        since = self.sim.now
        self._waiters.append((ev, since, category))
        if ctx is not None and category is not None:

            def _account(_ev, ctx=ctx, category=category, since=since):
                ctx.account_wait(category, self.sim.now - since)

            ev.add_callback(_account)
        return ev

    def notify(self, n: int = 1) -> None:
        sim = self.sim
        waiters = self._waiters
        monitor = sim.monitor
        if monitor is not None and waiters:
            monitor.on_sync(self)
        for _ in range(min(n, len(waiters))):
            ev, since, category = waiters.popleft()
            wake(
                ev,
                resource=self._resource,
                category=category or "",
                queued_at=since,
            )

    def notify_all(self) -> None:
        self.notify(len(self._waiters))

    @property
    def n_waiters(self) -> int:
        return len(self._waiters)


class Barrier:
    """Wait until ``parties`` processes have arrived; then all proceed."""

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier"):
        if parties < 1:
            raise SimError("barrier parties must be >= 1")
        self.sim = sim
        self.name = name
        self.parties = parties
        self._arrived = 0
        self._event = sim.event()

    def arrive(self) -> Event:
        """Register arrival; yield the returned event to wait for the rest."""
        monitor = self.sim.monitor
        if monitor is not None:
            # Each arrival joins the barrier clock, so the final release
            # carries every participant's history (all-to-all ordering).
            monitor.on_sync(self)
        self._arrived += 1
        ev = self._event
        if self._arrived >= self.parties:
            wake(ev, resource="barrier:%s" % self.name)  # cold: once per barrier
        return ev

    def arrive_now(self) -> Tuple[Event, ...]:
        """:meth:`arrive` for ``yield from``: nothing to wait on for the last
        arrival when nobody else waits and ``sim.can_continue()``."""
        sim, ev = self.sim, self._event
        last = self._arrived + 1 == self.parties and ev._cb is None
        if not (last and sim.can_continue()):
            return (self.arrive(),)
        if sim.monitor is not None:
            sim.monitor.on_sync(self)
        self._arrived += 1
        ev._value, ev._ok = None, True
        sim._resume_in_step(ev, False, "barrier:%s" % self.name)
        return ()
