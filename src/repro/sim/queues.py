"""Request queues.

The p2KVS worker loop (Algorithm 1 in the paper) needs more than a plain
blocking queue: the opportunistic batching mechanism inspects the *type* of
the head request and pops consecutive same-type requests without blocking.
:class:`FIFOQueue` therefore exposes both a blocking ``get()`` event and
synchronous ``peek()`` / ``try_pop()`` accessors.
"""

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.sim.core import Event, Simulator
from repro.sim.wakeup import wake

__all__ = ["FIFOQueue", "QueueEmpty"]


class QueueEmpty(Exception):
    """Raised by :meth:`FIFOQueue.try_pop` on an empty queue."""


#: sanitizer access keys are per queue *instance*: a restarted system reuses
#: queue names, and the dead consumer must not race the new one.
_instance_counter = iter(range(1, 1 << 62))


class FIFOQueue:
    """An unbounded FIFO queue of items with blocking get.

    Items put while a getter is waiting are handed directly to the getter
    (FIFO among getters).
    """

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._san_key = "queue:%s#%d" % (name, next(_instance_counter))
        #: edge resource label, formatted once (put/get are per-request hot).
        self._resource = "queue:%s" % name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Tuple[Event, float]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> None:
        """Enqueue ``item``; never blocks (queue is unbounded).

        ``put``/``get`` model a thread-safe (internally locked) queue, so a
        monitor sees them as synchronization edges.
        """
        sim = self.sim
        monitor = sim.monitor
        if monitor is not None:
            monitor.on_sync(self)
        if self._getters:
            ev, since = self._getters.popleft()
            wake(ev, item, resource=self._resource, queued_at=since)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (blocks while empty)."""
        sim = self.sim
        monitor = sim.monitor
        if monitor is not None:
            monitor.on_sync(self)
        ev = Event(sim)
        if self._items:
            wake(ev, self._items.popleft(), resource=self._resource)
        else:
            self._getters.append((ev, sim._now))
        return ev

    # peek/try_pop are the OBM's lock-free head inspection (Algorithm 1):
    # they are safe only from the queue's single consumer, so the monitor
    # treats them as plain accesses to shared state — two unsynchronized
    # consumers show up as a data race.

    def peek(self) -> Optional[Any]:
        """The head item without removing it, or None if empty."""
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_access(self._san_key, write=False, site="FIFOQueue.peek")
        return self._items[0] if self._items else None

    def try_pop(self) -> Any:
        """Pop the head item; raise :class:`QueueEmpty` if empty."""
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_access(self._san_key, write=True, site="FIFOQueue.try_pop")
        if not self._items:
            raise QueueEmpty(self.name)
        return self._items.popleft()
