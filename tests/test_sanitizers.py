"""Dynamic sanitizer tests: lock-order cycles, data races, happens-before
edges, and the kernel's exit-holding-lock guard."""

import traceback

import pytest

from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    _format,
    _stack,
    install_sanitizer,
)
from repro.sim.core import SimError, Simulator
from repro.sim.queues import FIFOQueue
from repro.sim.sync import Condition, Lock


def _sanitized_sim():
    sim = Simulator()
    return sim, Sanitizer().attach(sim)


# ---------------------------------------------------------------------------
# lock-order graph
# ---------------------------------------------------------------------------


@pytest.mark.no_sanitize
def test_lock_order_cycle_detected():
    """A→B in one process and B→A in another is a potential deadlock even
    when the runs never actually overlap."""
    sim, san = _sanitized_sim()
    a = Lock(sim, "lock-a")
    b = Lock(sim, "lock-b")

    def forward():
        yield a.acquire()
        yield b.acquire()
        b.release()
        a.release()

    def backward():
        yield sim.timeout(1.0)  # no overlap: this is *potential*, not actual
        yield b.acquire()
        yield a.acquire()
        a.release()
        b.release()

    sim.spawn(forward(), "forward")
    sim.spawn(backward(), "backward")
    sim.run()

    assert len(san.deadlock_reports) == 1
    report = san.deadlock_reports[0]
    assert report["kind"] == "lock-order-cycle"
    assert report["process"] == "backward"
    names = {name for pair in report["cycle"] for name in pair}
    assert names == {"lock-a", "lock-b"}
    # Both edges carry an acquisition stack.
    assert len(report["stacks"]) == 2
    assert all(stack for stack in report["stacks"].values())
    text = san.format_report()
    assert "POTENTIAL DEADLOCK" in text
    with pytest.raises(SanitizerError):
        san.check()


@pytest.mark.no_sanitize
def test_recursive_acquire_is_a_cycle():
    sim, san = _sanitized_sim()
    lock = Lock(sim, "rec")

    def proc():
        yield lock.acquire()
        lock.acquire()  # would self-deadlock if anyone else held it
        lock.release()
        lock.release()

    sim.spawn(proc(), "rec-proc")
    sim.run()
    assert len(san.deadlock_reports) == 1
    assert san.deadlock_reports[0]["cycle"] == [("rec", "rec")]


def test_consistent_lock_order_is_clean():
    sim, san = _sanitized_sim()
    a = Lock(sim, "lock-a")
    b = Lock(sim, "lock-b")

    def proc(delay):
        yield sim.timeout(delay)
        yield a.acquire()
        yield b.acquire()
        b.release()
        a.release()

    sim.spawn(proc(0.0), "p0")
    sim.spawn(proc(0.5), "p1")
    sim.run()
    assert san.findings == []
    san.check()  # does not raise
    assert san.format_report() == "sanitizer: no findings"


@pytest.mark.no_sanitize
def test_duplicate_cycles_reported_once():
    sim, san = _sanitized_sim()
    a = Lock(sim, "lock-a")
    b = Lock(sim, "lock-b")

    def forward(delay):
        yield sim.timeout(delay)
        yield a.acquire()
        yield b.acquire()
        b.release()
        a.release()

    def backward(delay):
        yield sim.timeout(delay)
        yield b.acquire()
        yield a.acquire()
        a.release()
        b.release()

    for i in range(3):
        sim.spawn(forward(2.0 * i), "f%d" % i)
        sim.spawn(backward(2.0 * i + 1.0), "b%d" % i)
    sim.run()
    assert len(san.deadlock_reports) == 1


# ---------------------------------------------------------------------------
# data races / happens-before
# ---------------------------------------------------------------------------


def _touch(sim, key, write=True, site="test"):
    monitor = sim.monitor
    if monitor is not None:
        monitor.on_access(key, write=write, site=site)


@pytest.mark.no_sanitize
def test_unsynchronized_writes_race():
    sim, san = _sanitized_sim()

    def writer(name):
        yield sim.timeout(1.0)
        _touch(sim, "shared")

    sim.spawn(writer("w1"), "w1")
    sim.spawn(writer("w2"), "w2")
    sim.run()
    assert len(san.race_reports) == 1
    report = san.race_reports[0]
    assert report["object"] == "shared"
    assert {report["first"]["process"], report["second"]["process"]} == {"w1", "w2"}
    assert "DATA RACE" in san.format_report()


@pytest.mark.no_sanitize
def test_write_read_race():
    sim, san = _sanitized_sim()

    def writer():
        yield sim.timeout(1.0)
        _touch(sim, "shared", write=True)

    def reader():
        yield sim.timeout(2.0)
        _touch(sim, "shared", write=False)

    sim.spawn(writer(), "writer")
    sim.spawn(reader(), "reader")
    sim.run()
    assert len(san.race_reports) == 1
    assert san.race_reports[0]["second_is_write"] is False


def test_lock_protected_accesses_are_ordered():
    sim, san = _sanitized_sim()
    lock = Lock(sim, "guard")

    def proc(name):
        yield sim.timeout(1.0)
        yield lock.acquire()
        _touch(sim, "shared")
        lock.release()

    sim.spawn(proc("p1"), "p1")
    sim.spawn(proc("p2"), "p2")
    sim.run()
    assert san.findings == []


def test_event_handoff_orders_accesses():
    sim, san = _sanitized_sim()
    done = sim.event()

    def producer():
        yield sim.timeout(1.0)
        _touch(sim, "shared")
        done.succeed()

    def consumer():
        yield done
        _touch(sim, "shared")

    sim.spawn(producer(), "producer")
    sim.spawn(consumer(), "consumer")
    sim.run()
    assert san.findings == []


def test_queue_handoff_orders_accesses():
    sim, san = _sanitized_sim()
    queue = FIFOQueue(sim, "work")

    def producer():
        yield sim.timeout(1.0)
        _touch(sim, "shared")
        queue.put("item")

    def consumer():
        yield queue.get()
        _touch(sim, "shared")

    sim.spawn(consumer(), "consumer")
    sim.spawn(producer(), "producer")
    sim.run()
    assert san.findings == []


def test_spawn_orders_parent_before_child():
    sim, san = _sanitized_sim()

    def child():
        yield sim.timeout(0.1)
        _touch(sim, "shared")

    def parent():
        yield sim.timeout(1.0)
        _touch(sim, "shared")
        sim.spawn(child(), "child")

    sim.spawn(parent(), "parent")
    sim.run()
    assert san.findings == []


@pytest.mark.no_sanitize
def test_obm_second_consumer_races_on_queue_head():
    """peek/try_pop are single-consumer accessors: a second unsynchronized
    consumer is exactly the OBM discipline violation the probe encodes."""
    sim, san = _sanitized_sim()
    queue = FIFOQueue(sim, "requests")
    for i in range(4):
        queue.put(i)

    def consumer(delay):
        yield sim.timeout(delay)
        queue.peek()
        queue.try_pop()

    sim.spawn(consumer(1.0), "c1")
    sim.spawn(consumer(2.0), "c2")
    sim.run()
    assert len(san.race_reports) >= 1
    assert san.race_reports[0]["object"].startswith("queue:requests")


def test_install_sanitizer_resolves_env(env):
    san = install_sanitizer(env)
    assert env.sim.monitor is san
    assert san.sim is env.sim


def traceback_stack(skip=2):
    """Stacks as the sanitizer captured them when every tracked access
    formatted its frames through ``traceback`` (the report-text oracle)."""
    frames = traceback.extract_stack()[:-skip][-16:]
    return [
        "%s:%d in %s: %s" % (f.filename, f.lineno, f.name, f.line or "")
        for f in frames
    ]


def test_stacks_formatted_at_report_read_as_traceback_did():
    def capture():
        return _stack(), traceback_stack()  # one line: the same frames

    raw, expected = capture()
    assert len(expected) == 16  # pytest's frames: the limit is exercised
    assert [_format(frame) for frame in raw] == expected


# ---------------------------------------------------------------------------
# kernel guard: a process may not exit holding a lock
# ---------------------------------------------------------------------------


def test_exit_holding_lock_is_a_simerror():
    sim = Simulator()
    lock = Lock(sim, "leaked")

    def bad():
        yield lock.acquire()
        # returns without releasing

    sim.spawn(bad(), "bad-proc")
    with pytest.raises(SimError, match="exited while holding lock"):
        sim.run()


def test_exit_holding_lock_names_the_lock_and_process():
    sim = Simulator()
    lock = Lock(sim, "wal-mutex")

    def bad():
        yield lock.acquire()

    sim.spawn(bad(), "leaker")
    with pytest.raises(SimError, match=r"'leaker'.*'wal-mutex'"):
        sim.run()


def test_clean_release_does_not_trip_guard():
    sim = Simulator()
    lock = Lock(sim, "ok")

    def good():
        yield lock.acquire()
        lock.release()

    sim.spawn(good(), "good")
    sim.run()  # no error


# ---------------------------------------------------------------------------
# condvar wakeup order (audit regression, see sim/sync.py)
# ---------------------------------------------------------------------------


def test_condition_wakes_waiters_in_fifo_order():
    sim = Simulator()
    cond = Condition(sim, "c")
    order = []

    def waiter(i):
        yield sim.timeout(0.1 * i)  # arrival order 0, 1, 2, 3, 4
        yield cond.wait()
        order.append(i)

    for i in range(5):
        sim.spawn(waiter(i), "w%d" % i)

    def notifier():
        yield sim.timeout(1.0)
        cond.notify(2)
        yield sim.timeout(1.0)
        cond.notify_all()

    sim.spawn(notifier(), "notifier")
    sim.run()
    assert order == [0, 1, 2, 3, 4]
