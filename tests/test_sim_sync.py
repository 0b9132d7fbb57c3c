"""Tests for locks, semaphores, condition variables, barriers and queues."""

import pytest

from repro.sim import (
    Barrier,
    Condition,
    FIFOQueue,
    Lock,
    QueueEmpty,
    Semaphore,
    SimError,
    Simulator,
)
from repro.sim.cpu import ThreadContext


def test_lock_mutual_exclusion_and_fifo_order():
    sim = Simulator()
    lock = Lock(sim)
    trace = []

    def proc(tag, hold):
        yield lock.acquire()
        trace.append(("acq", tag, sim.now))
        yield sim.timeout(hold)
        lock.release()

    sim.spawn(proc("a", 2.0))
    sim.spawn(proc("b", 1.0))
    sim.spawn(proc("c", 1.0))
    sim.run()
    assert trace == [("acq", "a", 0.0), ("acq", "b", 2.0), ("acq", "c", 3.0)]


def test_lock_release_without_acquire_rejected():
    sim = Simulator()
    lock = Lock(sim)
    with pytest.raises(SimError):
        lock.release()


def test_lock_wait_accounting():
    sim = Simulator()
    lock = Lock(sim)
    ctx = ThreadContext("t")

    def holder():
        yield lock.acquire()
        yield sim.timeout(5.0)
        lock.release()

    def waiter():
        yield sim.timeout(1.0)
        yield lock.acquire(ctx, "wal_lock")
        lock.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert ctx.wait_by_category["wal_lock"] == pytest.approx(4.0)


def test_semaphore_caps_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, capacity=2)
    active = []
    max_active = []

    def proc():
        yield sem.acquire()
        active.append(1)
        max_active.append(len(active))
        yield sim.timeout(1.0)
        active.pop()
        sem.release()

    for _ in range(6):
        sim.spawn(proc())
    sim.run()
    assert max(max_active) == 2
    assert sim.now == pytest.approx(3.0)


def test_condition_notify_all_wakes_everyone():
    sim = Simulator()
    cond = Condition(sim)
    woken = []

    def waiter(tag):
        yield cond.wait()
        woken.append((tag, sim.now))

    def notifier():
        yield sim.timeout(2.0)
        cond.notify_all()

    for i in range(3):
        sim.spawn(waiter(i))
    sim.spawn(notifier())
    sim.run()
    assert woken == [(0, 2.0), (1, 2.0), (2, 2.0)]


def test_condition_notify_one_at_a_time():
    sim = Simulator()
    cond = Condition(sim)
    woken = []

    def waiter(tag):
        yield cond.wait()
        woken.append(tag)

    def notifier():
        yield sim.timeout(1.0)
        cond.notify()
        yield sim.timeout(1.0)
        cond.notify()

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.spawn(notifier())
    sim.run()
    assert woken == ["a", "b"]
    assert cond.n_waiters == 0


def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    barrier = Barrier(sim, parties=3)
    crossed = []

    def proc(tag, delay):
        yield sim.timeout(delay)
        yield barrier.arrive()
        crossed.append((tag, sim.now))

    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 3.0))
    sim.spawn(proc("c", 2.0))
    sim.run()
    assert sorted(crossed) == [("a", 3.0), ("b", 3.0), ("c", 3.0)]


def test_queue_get_blocks_until_put():
    sim = Simulator()
    q = FIFOQueue(sim)
    got = []

    def consumer():
        item = yield q.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(2.0)
        q.put("x")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [("x", 2.0)]


def test_queue_fifo_order_and_counters():
    sim = Simulator()
    q = FIFOQueue(sim)
    for i in range(5):
        q.put(i)
    assert len(q) == 5
    assert q.peek() == 0
    assert q.try_pop() == 0
    assert q.try_pop() == 1
    assert len(q) == 3


def test_queue_try_pop_empty_raises():
    sim = Simulator()
    q = FIFOQueue(sim)
    assert q.peek() is None
    with pytest.raises(QueueEmpty):
        q.try_pop()


def test_queue_multiple_waiting_getters_fifo():
    sim = Simulator()
    q = FIFOQueue(sim)
    got = []

    def consumer(tag):
        item = yield q.get()
        got.append((tag, item))

    def producer():
        yield sim.timeout(1.0)
        q.put("first")
        q.put("second")

    sim.spawn(consumer("c0"))
    sim.spawn(consumer("c1"))
    sim.spawn(producer())
    sim.run()
    assert got == [("c0", "first"), ("c1", "second")]
