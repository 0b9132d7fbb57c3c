"""Tests for the event loop, events and processes."""

import collections
import heapq
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import Sanitizer, install_sanitizer
from repro.critpath import EdgeLog, install_edgelog
from repro.sim import (
    Barrier,
    Condition,
    CPUSet,
    DeviceSpec,
    FIFOQueue,
    Lock,
    Simulator,
    SimError,
    StorageDevice,
)
from repro.sim.core import _PENDING
from repro.trace import Tracer, install_tracer


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(1.5)
        seen.append(sim.now)
        yield sim.timeout(0.5)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [1.5, 2.0]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        got.append(value)

    sim.spawn(proc())
    sim.run()
    assert got == ["hello"]


def test_cancelled_timeout_never_fires_nor_moves_the_clock():
    sim = Simulator()
    seen = []
    late = sim.timeout_late(3.0)

    def waiter():
        yield late
        seen.append("late")

    def proc():
        yield sim.timeout(1.0)
        sim.cancel(late)
        sim.cancel(late)  # a second withdrawal finds nothing
        seen.append(sim.now)

    sim.spawn(waiter())
    sim.spawn(proc())
    sim.run()
    assert seen == [1.0] and sim.now == 1.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.timeout(-1)


def test_process_return_value_via_yield():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(2.0)
        return 42

    def parent():
        value = yield sim.spawn(child())
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(2.0, 42)]


def test_yield_from_composition():
    sim = Simulator()
    out = []

    def inner():
        yield sim.timeout(1.0)
        return "inner-result"

    def outer():
        value = yield from inner()
        out.append(value)

    sim.spawn(outer())
    sim.run()
    assert out == ["inner-result"]


def test_events_fire_in_fifo_order_at_same_time():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for i in range(5):
        sim.spawn(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def trigger():
        yield sim.timeout(3.0)
        ev.succeed("done")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(3.0, "done")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_fail_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimError):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def child(d):
        yield sim.timeout(d)
        return d

    def parent():
        procs = [sim.spawn(child(d)) for d in (3.0, 1.0, 2.0)]
        values = yield sim.all_of(procs)
        results.append((sim.now, values))

    sim.spawn(parent())
    sim.run()
    assert results == [(3.0, [3.0, 1.0, 2.0])]


def test_all_of_empty_list():
    sim = Simulator()
    results = []

    def parent():
        values = yield sim.all_of([])
        results.append(values)

    sim.spawn(parent())
    sim.run()
    assert results == [[]]


def test_run_until_stops_mid_simulation():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(10):
            yield sim.timeout(1.0)
            seen.append(sim.now)

    sim.spawn(proc())
    sim.run(until=4.5)
    assert seen == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 4.5
    # Resume from where we stopped.
    sim.run()
    assert len(seen) == 10


def test_wait_on_already_completed_process():
    sim = Simulator()
    out = []

    def quick():
        yield sim.timeout(1.0)
        return "quick"

    def late(proc):
        yield sim.timeout(5.0)
        value = yield proc
        out.append((sim.now, value))

    proc = sim.spawn(quick())
    sim.spawn(late(proc))
    sim.run()
    assert out == [(5.0, "quick")]


# ---------------------------------------------------------------------------
# Same-dispatch delivery: pinned cases
# ---------------------------------------------------------------------------


def _burst_then_lock(sim, log):
    """One process: a burst (in-place completion when nothing else is due),
    then an uncontended lock (an already-triggered event)."""
    cpu = CPUSet(sim, 1)
    ctx = cpu.new_thread("t")
    lock = Lock(sim)

    def proc():
        yield cpu.exec(ctx, 1.0, "work")
        log.append(("burst", sim.now))
        yield lock.acquire()
        log.append(("lock", sim.now))
        lock.release()

    sim.spawn(proc())


def test_last_burst_of_a_run_is_delivered_before_run_returns():
    # The completion is the last heap entry: nothing may be left parked
    # outside the heap when `while heap` ends.
    sim, log = Simulator(), []
    _burst_then_lock(sim, log)
    sim.run()
    assert log == [("burst", 1.0), ("lock", 1.0)]
    assert not sim._heap


def test_run_until_delivers_the_whole_instant_it_stops_at():
    sim, log = Simulator(), []
    _burst_then_lock(sim, log)

    def later():  # keeps the heap non-empty past `until`
        yield sim.timeout(2.0)

    sim.spawn(later())
    sim.run(until=1.0)
    assert log == [("burst", 1.0), ("lock", 1.0)]
    assert sim.now == 1.0
    sim.run()
    assert sim.now == 2.0


def test_externally_triggered_burst_event_is_still_an_error():
    sim = Simulator()
    cpu = CPUSet(sim, 1)
    cpu.exec(cpu.new_thread("t"), 1.0).succeed()
    with pytest.raises(SimError, match="already triggered"):
        sim.run()


def test_callback_return_values_are_not_mistaken_for_hand_offs():
    # Only a completion's return value is a hand-off: a callback returning
    # a fresh timer must not get it popped untriggered.
    sim, timers, out = Simulator(), [], []

    def make_timer(_ev):
        timers.append(sim.timeout(0.0, value="fired"))
        return timers[0]

    trigger = sim.event()
    trigger.add_callback(make_timer)
    trigger.succeed()
    sim.run()  # the timer's entry was the heap top when make_timer returned
    assert timers[0].triggered

    def waiter():
        out.append((yield timers[0]))

    sim.spawn(waiter())
    sim.run()
    assert out == ["fired"]


# ---------------------------------------------------------------------------
# Differential kernel-order test: the real loop against one that queues
# every delivery (the parent kernel's loop, kept here as the oracle)
# ---------------------------------------------------------------------------


class QueueingSimulator(Simulator):
    """Reference loop: a completion's event always goes through succeed(),
    whatever a callback returns is ignored — one heap pop per delivery — and
    no wait completes inside the step that asked for it."""

    def can_continue(self):
        return False

    def run(self, until=None):
        heap = self._heap
        limit = float("inf") if until is None else until
        while heap:
            if self._pending_error is not None:
                err, self._pending_error = self._pending_error, None
                raise err
            entry = heapq.heappop(heap)
            if entry[0] > limit:
                heapq.heappush(heap, entry)
                self._now = until
                return
            self._now = entry[0]
            target, value = entry[3], entry[4]
            if type(target) is tuple:
                released = target[0](target[1])
                if released is not None:
                    released.succeed()
                continue
            if value is not _PENDING and target._value is _PENDING:
                target._value, target._ok = value, True
            cb, target._cb = target._cb, None
            for fn in cb if type(cb) is list else [cb] if cb is not None else []:
                fn(target)
        if self._pending_error is not None:
            err, self._pending_error = self._pending_error, None
            raise err
        if until is not None:
            self._now = max(self._now, until)


#: burst / timeout / IO durations come from a small grid, so completions
#: collide at one instant all the time (index 0: the zero-length burst).
GRID = (0.0, 1e-6, 2e-6, 3e-6)
N_SHARED = 2  # locks, queues and shared events a program may name

_dur = st.integers(0, len(GRID) - 1)
_idx = st.integers(0, N_SHARED - 1)
_op = st.one_of(
    st.tuples(st.just("burst"), _dur),
    st.tuples(st.just("timeout"), _dur),
    st.tuples(st.just("io"), st.sampled_from(["read", "write"]), st.integers(0, 3)),
    st.tuples(st.just("lock"), _idx, _dur),
    st.tuples(st.just("cond_wait")),
    st.tuples(st.just("notify_all")),
    st.tuples(st.just("barrier1")),
    st.tuples(st.just("barrier_all")),
    # the non-suspending forms, and a process whose first step uses them
    st.tuples(st.just("burst_now"), _dur),
    st.tuples(st.just("lock_now"), _idx, _dur),
    st.tuples(st.just("barrier1_now")),
    st.tuples(st.just("barrier_all_now")),
    st.tuples(st.just("join_first_step"), _idx),
    st.tuples(st.just("put"), _idx),
    st.tuples(st.just("get"), _idx),
    st.tuples(st.just("all_of"), _dur, _dur),
    st.tuples(st.just("fail_self")),
    st.tuples(st.just("wait_shared"), _idx),
    st.tuples(st.just("fire_shared"), _idx, st.booleans()),
    st.tuples(st.just("join_child"), _dur),
    st.tuples(st.just("join_finished")),
    st.tuples(st.just("crash")),
)
_program = st.fixed_dictionaries(
    {
        "cores": st.integers(1, 3),
        "channels": st.integers(1, 2),
        #: per process: (pinned core or None, ops); more processes than cores.
        "procs": st.lists(
            st.tuples(st.one_of(st.none(), st.integers(0, 2)), st.lists(_op, max_size=8)),
            min_size=1,
            max_size=5,
        ),
        "sampler_ticks": st.integers(0, 4),
    }
)


class HookRecorder:
    """A ``sim.monitor`` that records every hook call the kernel makes."""

    def __init__(self, sim):
        self.sim, self.calls = sim, []
        sim.monitor = self

    def __getattr__(self, hook):
        return lambda *args: self.calls.append(
            (hook, self.sim.now, [getattr(a, "name", type(a).__name__) for a in args])
        )


def _run_program(program, sim_cls, install=(), seed=None, until=None):
    """Run ``program`` on ``sim_cls``; return everything observable."""
    sim = sim_cls()
    observers = [fn(sim) for fn in install]
    if seed is not None:
        sim.perturb_schedule(seed)
    cpu = CPUSet(sim, program["cores"], migration_overhead=GRID[1])
    dev = StorageDevice(sim, DeviceSpec("d", 1e6, 1e6, GRID[1], GRID[1], program["channels"]))
    locks = [Lock(sim, "l%d" % i) for i in range(N_SHARED)]
    queues = [FIFOQueue(sim, "q%d" % i) for i in range(N_SHARED)]
    shared = [sim.event() for _ in range(N_SHARED)]
    cond = Condition(sim)
    trace = []

    def child(name, dur):
        yield sim.timeout(GRID[dur])
        trace.append((sim.now, name, "child"))
        return dur

    def first_step(name, i, ctx):  # runs on its joiner's thread context
        yield from locks[i].acquire_now(None, "lk")
        trace.append((sim.now, name, "locked"))
        locks[i].release()
        yield from cpu.exec_now(ctx, GRID[0], "first")
        yield from Barrier(sim, 1).arrive_now()
        trace.append((sim.now, name, "passed"))

    n_all = sum(
        1 for _pin, ops in program["procs"]
        if ("barrier_all",) in ops or ("barrier_all_now",) in ops
    )
    barrier_all = Barrier(sim, max(1, n_all))
    arrived = set()
    finished = sim.spawn(child("finished", 0))
    def proc(name, ctx, ops):
        for step, op in enumerate(ops):
            kind, got = op[0], None
            if kind == "burst":
                yield cpu.exec(ctx, GRID[op[1]], "c%d" % op[1])
            elif kind == "timeout":
                yield sim.timeout(GRID[op[1]])
            elif kind == "io":
                yield dev.submit(op[1], op[2])
            elif kind == "lock":
                yield locks[op[1]].acquire(ctx, "lk")
                trace.append((sim.now, name, step, "locked"))
                yield cpu.exec(ctx, GRID[op[2]], "held")
                locks[op[1]].release()
            elif kind == "cond_wait":
                yield cond.wait(ctx, "cv")
            elif kind == "notify_all":
                cond.notify_all()
            elif kind == "barrier1":
                yield Barrier(sim, 1).arrive()
            elif kind == "barrier_all" and name not in arrived:
                arrived.add(name)
                yield barrier_all.arrive()
            elif kind == "burst_now":
                yield from cpu.exec_now(ctx, GRID[op[1]], "c%d" % op[1])
            elif kind == "lock_now":
                yield from locks[op[1]].acquire_now(ctx, "lk")
                trace.append((sim.now, name, step, "locked"))
                yield from cpu.exec_now(ctx, GRID[op[2]], "held")
                locks[op[1]].release()
            elif kind == "barrier1_now":
                yield from Barrier(sim, 1).arrive_now()
            elif kind == "barrier_all_now" and name not in arrived:
                arrived.add(name)
                yield from barrier_all.arrive_now()
            elif kind == "join_first_step":
                first = "%s/first%d" % (name, step)
                got = yield sim.spawn(first_step(first, op[1], ctx), name=first)
            elif kind == "put":
                queues[op[1]].put((name, step))
            elif kind == "get":
                got = yield queues[op[1]].get()
            elif kind == "all_of":
                got = yield sim.all_of(
                    [cpu.exec(ctx, GRID[op[1]], "j"), sim.timeout(GRID[op[2]]), dev.read(1)]
                )
            elif kind == "fail_self":
                try:
                    yield sim.event().fail(ValueError(name))
                except ValueError as exc:
                    got = repr(exc)
            elif kind == "wait_shared":
                try:
                    got = yield shared[op[1]]
                except ValueError as exc:
                    got = repr(exc)
            elif kind == "fire_shared" and not shared[op[1]].triggered:
                if op[2]:
                    shared[op[1]].succeed(name)
                else:
                    shared[op[1]].fail(ValueError(name))
            elif kind == "join_child":
                got = yield sim.spawn(child(name, op[1]))
            elif kind == "join_finished":
                got = yield finished
            elif kind == "crash":
                sim._crash(RuntimeError("%s step %d" % (name, step)))
            trace.append((sim.now, name, step, got))

    def sampler():
        for tick in range(program["sampler_ticks"]):
            yield sim.timeout_late(GRID[1])
            trace.append((sim.now, "sampler", tick, cpu.busy_cores(), dev.in_flight()))

    ctxs = []
    for i, (pin, ops) in enumerate(program["procs"]):
        pin = None if pin is None or pin >= program["cores"] else pin
        ctxs.append(cpu.new_thread("p%d" % i, pinned=pin))
        sim.spawn(proc("p%d" % i, ctxs[-1], ops), name="p%d" % i)
    sim.spawn(sampler(), name="sampler")
    try:
        sim.run(until=until)
        if until is not None:
            trace.append(("until", sim.now))
            sim.run()
        outcome = None
    except (RuntimeError, SimError) as exc:
        outcome = repr(exc)
    result = {
        "trace": trace,
        "outcome": outcome,
        "now": sim.now,
        "seq": sim._seq,
        #: the next rank a shuffled schedule would draw: same number of draws.
        "next_rank": None if seed is None else sim._perturb_rng.random(),
        "core_busy": list(cpu.core_busy_time),
        "busy_by_kind": dict(cpu.busy_by_kind),
        "threads": [
            (c.busy_time, dict(c.busy_by_category), dict(c.wait_by_category), c.last_core)
            for c in ctxs
        ],
        "io_count": dev.io_count.as_dict(),
        "bytes_by_kind": dev.bytes_by_kind.as_dict(),
        "busy_channel_time": dev.busy_channel_time,
    }
    for observer in observers:
        if isinstance(observer, Tracer):
            result["spans"] = [
                (s.name, s.cat, s.track, s.start, s.end) for s in observer.events
            ]
        elif isinstance(observer, HookRecorder):
            result["hooks"] = observer.calls
        elif isinstance(observer, EdgeLog):
            name = lambda p: getattr(p, "name", None)  # noqa: E731
            result["resumes"] = sorted(
                (p.name, t, seq, None if e is None else (
                    e.seq, e.kind, e.label, e.begin, e.queued_at, name(e.waker),
                    name(e.initiator), e.track,
                ))
                for p, hist in observer.history.items()
                for t, seq, e in zip(hist[0::3], hist[1::3], map(observer.edge, hist[2::3]))
            )
            result["bindings"] = {
                track: [(t, p.name) for t, p in hist]
                for track, hist in observer.track_bindings.items()
            }
            result["dropped"] = observer.dropped
        elif isinstance(observer, Sanitizer):
            # vector clocks, keyed by process name instead of id()
            name = lambda pid: observer._procs[pid].name  # noqa: E731
            result["clocks"] = sorted(
                (name(pid), sorted((name(q), n) for q, n in clock.items()))
                for pid, clock in observer._clocks.items()
            )
    return result


def _full_edgelog(sim):
    """An edge log that runs out of room within a few steps."""
    return install_edgelog(sim, max_records=3)


_OBSERVERS = [
    (),
    (install_tracer,),
    (install_edgelog,),
    (install_sanitizer,),
    (HookRecorder,),
    (_full_edgelog,),
    (install_tracer, install_edgelog, install_sanitizer),
]


def _pinned(*procs):
    return {"cores": 1, "channels": 1, "procs": [(None, list(p)) for p in procs], "sampler_ticks": 0}


@pytest.mark.no_sanitize
@settings(max_examples=300, deadline=None)
@given(_program, st.sampled_from(_OBSERVERS), st.one_of(st.none(), st.integers(0, 3)))
# One program per condition of the rule, so each keeps a case that fails
# without it: a completion that ties with a queued delivery ("strictly
# later").
@example(_pinned([("burst", 1)], [("timeout", 1)]), (), None)
# The same for can_continue(): a wait completed in place ties with an entry
# at its instant; two waiters of one event, the first going on to a free lock
# and a one-party barrier; an error pending; a shuffled schedule; and what an
# in-place wait owes the observers and _seq, first steps and a shared thread
# context included.
@example(_pinned([("timeout", 1), ("lock_now", 0, 0)], [("timeout", 1)]), (), None)
@example(_pinned([("timeout", 1), ("lock_now", 0, 0)]), (), 1)
@example(
    _pinned(
        [("wait_shared", 0), ("lock_now", 0, 0), ("barrier1_now",)],
        [("wait_shared", 0), ("lock_now", 1, 0), ("barrier1_now",)],
        [("timeout", 1), ("fire_shared", 0, True), ("timeout", 1)],
    ),
    (),
    None,
)
@example(_pinned([("timeout", 1), ("crash",), ("barrier1_now",)]), (), None)
# ... and the forms' own conditions: someone else waits at the barrier; the
# thread's core is busy.
@example(_pinned([("barrier_all_now",)], [("timeout", 1), ("barrier_all_now",)]), (), None)
@example(
    _pinned([("timeout", 1), ("burst", 3)], [("burst", 0), ("timeout", 2), ("burst_now", 0)]),
    (),
    None,
)
@example(
    _pinned([("burst", 1), ("burst_now", 0), ("lock_now", 0, 0), ("join_first_step", 0)]),
    _OBSERVERS[-1],
    None,
)
@example(
    _pinned([("burst", 1), ("burst_now", 0), ("lock_now", 0, 0), ("join_first_step", 0)]),
    (HookRecorder,),
    None,
)
# an edge log already full when a burst completes in place, in the dispatch
# loop and inside the step: both still count succeed()'s fallback as dropped
@example(
    _pinned([("timeout", 1), ("timeout", 1), ("timeout", 1), ("burst", 1), ("burst_now", 0)]),
    (_full_edgelog,),
    None,
)
# a pinned thread whose first burst is zero-length and taken in the step
@example(
    {"cores": 1, "channels": 1, "procs": [(0, [("burst_now", 0)])], "sampler_ticks": 0},
    (),
    None,
)
def test_same_dispatch_delivery_matches_the_queueing_kernel(program, install, seed):
    real = _run_program(program, Simulator, install, seed)
    assert real == _run_program(program, QueueingSimulator, install, seed)
    # ... and what observers see is all they change.
    plain = _run_program(program, Simulator, (), seed)
    assert {k: real[k] for k in plain} == plain


@pytest.mark.no_sanitize
@settings(max_examples=60, deadline=None)
@given(_program, st.integers(0, 6))
def test_run_until_matches_the_queueing_kernel(program, ticks):
    until = ticks * GRID[1]
    assert _run_program(program, Simulator, until=until) == _run_program(
        program, QueueingSimulator, until=until
    )


# ---------------------------------------------------------------------------
# Where it applies: p2KVS write groups (one worker per instance, so no
# followers) never suspend on a wait that cannot wait
# ---------------------------------------------------------------------------


def test_p2kvs_fill_write_groups_wait_in_step(monkeypatch):
    """One instance, one client thread, 300 puts = 300 write groups: the
    zero-length wake-up burst, the metadata lock and the one-party barrier of
    every group complete inside the leader's step — none falls back to its
    suspending form, so none leaves a no-op delivery (or a completion) on
    the heap."""
    from repro.engine import make_env
    from repro.harness import run_closed_loop
    from repro.systems import open_system
    from repro.workloads import fillrandom

    counts = collections.Counter()
    for cls, name in (
        (Simulator, "_resume_in_step"), (Lock, "acquire"), (Barrier, "arrive"), (CPUSet, "exec")
    ):
        def counted(self, *args, _form=getattr(cls, name), _name=name):
            caller = sys._getframe(1).f_code.co_name
            if caller.endswith("_now"):
                counts[caller, _name] += 1
            return _form(self, *args)

        monkeypatch.setattr(cls, name, counted)
    env = make_env(n_cores=8)
    system = open_system("p2kvs", env, workers=1)
    run_closed_loop(env, system, [list(fillrandom(300, value_size=112, seed=1))])
    assert counts == {
        ("exec_now", "_resume_in_step"): 300,
        ("acquire_now", "_resume_in_step"): 300,
        ("arrive_now", "_resume_in_step"): 300,
    }


def test_a_lock_taken_in_step_is_owned_like_a_granted_one():
    sim, seen = Simulator(), []
    lock = Lock(sim, "l")

    def proc():
        yield from lock.acquire_now()  # alone at t=0: taken in the step
        seen.append((lock.owner is sim.current_process, sim.current_process.held_locks))

    sim.spawn(proc(), name="holder")
    with pytest.raises(SimError, match="exited while holding"):
        sim.run()
    assert seen == [(True, [lock])]
