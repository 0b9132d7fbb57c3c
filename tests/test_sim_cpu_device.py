"""Tests for the CPU core model and storage device model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import install_sanitizer
from repro.errors import IOFailure, KVError, TimedOut
from repro.critpath import install_edgelog
from repro.sim import (
    Barrier,
    CPUSet,
    DeviceSpec,
    HDD_WD100EFAX,
    Lock,
    OPTANE_905P,
    SimError,
    Simulator,
    StorageDevice,
)
from repro.trace import install_tracer


def make_cpu(sim, n_cores, migration_overhead=0.0):
    return CPUSet(sim, n_cores, migration_overhead=migration_overhead)


class TestCPUSet:
    def test_single_core_serializes_bursts(self):
        sim = Simulator()
        cpu = make_cpu(sim, 1)
        done = []

        def proc(tag):
            ctx = cpu.new_thread(tag)
            yield cpu.exec(ctx, 1.0, "work")
            done.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_two_cores_run_in_parallel(self):
        sim = Simulator()
        cpu = make_cpu(sim, 2)
        done = []

        def proc(tag):
            ctx = cpu.new_thread(tag)
            yield cpu.exec(ctx, 1.0)
            done.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert done == [("a", 1.0), ("b", 1.0)]

    def test_pinned_threads_queue_on_their_core(self):
        sim = Simulator()
        cpu = make_cpu(sim, 4)
        done = []

        def proc(tag):
            ctx = cpu.new_thread(tag, pinned=0)
            yield cpu.exec(ctx, 1.0)
            done.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        # Both pinned to core 0: serialized even with 3 other free cores.
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_pin_out_of_range_rejected(self):
        sim = Simulator()
        cpu = make_cpu(sim, 2)
        with pytest.raises(SimError):
            cpu.new_thread("bad", pinned=5)

    def test_busy_accounting_per_category(self):
        sim = Simulator()
        cpu = make_cpu(sim, 1)
        ctx = cpu.new_thread("t")

        def proc():
            yield cpu.exec(ctx, 2.0, "wal")
            yield cpu.exec(ctx, 3.0, "memtable")

        sim.spawn(proc())
        sim.run()
        assert ctx.busy_by_category["wal"] == pytest.approx(2.0)
        assert ctx.busy_by_category["memtable"] == pytest.approx(3.0)
        assert ctx.busy_time == pytest.approx(5.0)

    def test_utilization(self):
        sim = Simulator()
        cpu = make_cpu(sim, 2)
        ctx = cpu.new_thread("t")

        def proc():
            yield cpu.exec(ctx, 4.0)

        sim.spawn(proc())
        sim.run(until=8.0)
        assert cpu.total_busy_time() / 8.0 == pytest.approx(0.5)
        assert cpu.core_busy_time[0] / 8.0 == pytest.approx(0.5)
        assert cpu.core_busy_time[1] == 0.0

    def test_migration_overhead_applies_when_switching_cores(self):
        sim = Simulator()
        cpu = make_cpu(sim, 2, migration_overhead=0.5)
        ctx = cpu.new_thread("hopper")
        blocker_ctx = cpu.new_thread("blocker")
        trace = []

        def blocker():
            # Occupy core 0 for a long time so the hopper's second burst
            # lands on core 1.
            yield cpu.exec(blocker_ctx, 10.0)

        def hopper():
            yield cpu.exec(ctx, 1.0)  # core 1 free? core 0 taken by blocker
            trace.append(sim.now)
            yield cpu.exec(ctx, 1.0)  # same core: no migration charge
            trace.append(sim.now)

        sim.spawn(blocker())
        sim.spawn(hopper())
        sim.run()
        # First burst may pay migration only if last_core differs; initially
        # last_core is None so no charge; second burst reuses the same core.
        assert trace[1] - trace[0] == pytest.approx(1.0)

    def test_queued_work_dispatches_when_core_frees(self):
        sim = Simulator()
        cpu = make_cpu(sim, 1)
        order = []

        def proc(tag, dur):
            ctx = cpu.new_thread(tag)
            yield cpu.exec(ctx, dur)
            order.append(tag)

        for i in range(4):
            sim.spawn(proc("t%d" % i, 1.0))
        sim.run()
        assert order == ["t0", "t1", "t2", "t3"]
        assert sim.now == pytest.approx(4.0)


def idle_io_time(spec, kind, nbytes, random=False):
    """How long one IO takes on an idle device of ``spec``."""
    sim = Simulator()
    StorageDevice(sim, spec).submit(kind, nbytes, random=random)
    sim.run()
    return sim.now


class TestDevice:
    def test_service_time_read_vs_write(self):
        spec = DeviceSpec("d", 100.0, 50.0, 1.0, 2.0, channels=1)
        assert idle_io_time(spec, "read", 100) == pytest.approx(2.0)
        assert idle_io_time(spec, "write", 100) == pytest.approx(4.0)

    def test_seek_time_applies_to_random_only(self):
        spec = HDD_WD100EFAX
        seq = idle_io_time(spec, "read", 4096, random=False)
        rnd = idle_io_time(spec, "read", 4096, random=True)
        assert rnd - seq == pytest.approx(spec.seek_time)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimError):
            idle_io_time(OPTANE_905P, "erase", 1)

    def test_single_channel_serializes(self):
        sim = Simulator()
        spec = DeviceSpec("d", 100.0, 100.0, 1.0, 1.0, channels=1)
        dev = StorageDevice(sim, spec)
        done = []

        def proc(tag):
            yield dev.write(100)  # 1.0 + 1.0 = 2.0 seconds
            done.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert done == [("a", 2.0), ("b", 4.0)]

    def test_channels_overlap_setup_but_share_bandwidth(self):
        """Per-IO setup latencies overlap across channels; byte transfers
        share one pipe per direction, so aggregate bytes never exceed the
        spec bandwidth."""
        sim = Simulator()
        spec = DeviceSpec("d", 100.0, 100.0, 1.0, 1.0, channels=4)
        dev = StorageDevice(sim, spec)
        done = []

        def proc(tag):
            yield dev.write(100)
            done.append((tag, sim.now))

        for i in range(4):
            sim.spawn(proc(i))
        sim.run()
        # All setups overlap (1s); transfers of 1s each serialize on the pipe.
        assert sorted(t for _, t in done) == [2.0, 3.0, 4.0, 5.0]

    def test_reads_and_writes_use_independent_pipes(self):
        sim = Simulator()
        spec = DeviceSpec("d", 100.0, 100.0, 1.0, 1.0, channels=4)
        dev = StorageDevice(sim, spec)
        done = []

        def proc(kind):
            yield dev.submit(kind, 100)
            done.append((kind, sim.now))

        sim.spawn(proc("read"))
        sim.spawn(proc("write"))
        sim.run()
        assert sorted(done) == [("read", 2.0), ("write", 2.0)]

    def test_failed_ios_move_and_account_only_their_prefix(self):
        """A failed IO burns its setup, moves only its completed prefix,
        counts as ``<kind>:fault``, still releases its channel to the next
        IO, and fails its event; one with no prefix accounts no bytes."""

        class Scripted:
            def __init__(self, decisions):
                self.decisions = list(decisions)
                self.injection_times = []

            def decide(self, kind, nbytes, category):
                return self.decisions.pop(0)

        sim = Simulator()
        tracer = install_tracer(sim)
        dev = StorageDevice(sim, DeviceSpec("d", 100.0, 100.0, 1.0, 1.0, channels=1))
        dev.fault_policy = Scripted(
            [TimedOut(), IOFailure(torn=True, completed_bytes=30), None]
        )
        outcomes = []

        def proc(nbytes, category):
            try:
                yield dev.write(nbytes, category=category)
                outcomes.append((sim.now, "ok"))
            except KVError as exc:
                outcomes.append((sim.now, exc.code))

        sim.spawn(proc(100, "flush"))
        sim.spawn(proc(100, "wal"))
        sim.spawn(proc(100, "wal"))
        sim.run()
        assert outcomes == [(1.0, "timed_out"), (2.3, "io_error"), (4.3, "ok")]
        assert dev.bytes_by_category() == {"wal": 130}
        assert dev.io_count() == {"write:fault": 2, "write": 1, "write:wal": 1}
        assert [(s.name, s.args) for s in tracer.spans("device")] == [
            ("write:flush", {"bytes": 0, "fault": "timed_out"}),
            ("write:wal", {"bytes": 30, "fault": "io_error"}),
            ("write:wal", {"bytes": 100}),
        ]

    @given(
        ios=st.lists(
            st.tuples(
                st.sampled_from(("read", "write", "ram_read")),
                st.integers(0, 4096),
                st.sampled_from(("wal", "flush", "compaction", "read")),
                st.sampled_from((None, None, "error", "torn")),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_views_equal_the_fold_of_the_trace(self, ios):
        """Differential: the device's derived views equal the per-IO
        booking folded from its ``device`` trace rows and the RAM reads
        issued, absent keys included (a failed IO that moved nothing books
        no bytes key)."""

        class Faults:
            """An error moves nothing; a torn write moves a third."""

            def __init__(self):
                self.outcomes = {}
                self.injection_times = []

            def decide(self, kind, nbytes, category):
                outcome = self.outcomes[(kind, nbytes, category)].pop(0)
                if outcome == "error" or (outcome == "torn" and kind == "read"):
                    return TimedOut()
                if outcome == "torn":
                    return IOFailure(torn=True, completed_bytes=nbytes // 3)
                return None

        sim = Simulator()
        tracer = install_tracer(sim)
        dev = StorageDevice(sim, DeviceSpec("d", 1e6, 1e6, 1e-4, 1e-4, channels=2))
        dev.fault_policy = policy = Faults()
        ram_reads = []

        def proc(kind, nbytes, category):
            try:
                if kind == "ram_read":
                    ram_reads.append(nbytes)
                    yield dev.ram_read(nbytes)
                else:
                    yield dev.submit(kind, nbytes, category=category)
            except KVError:
                pass

        for kind, nbytes, category, outcome in ios:
            policy.outcomes.setdefault((kind, nbytes, category), []).append(outcome)
            sim.spawn(proc(kind, nbytes, category))
        sim.run()

        io_count, by_kind, by_category = {}, {}, {}

        def add(view, key, amount):
            view[key] = view.get(key, 0.0) + amount

        rows = [(row.name, row.args) for row in tracer.spans("device")]
        for name, args in rows:
            kind, category = name.split(":")
            moved = args["bytes"]
            if "fault" in args:
                add(io_count, kind + ":fault", 1)
                if not moved:
                    continue
            else:
                add(io_count, kind, 1)
                add(io_count, name, 1)
            add(by_category, category, moved)
            add(by_kind, kind, moved)
            add(by_kind, name, moved)
        for nbytes in ram_reads:
            add(io_count, "ram_read", 1)
            add(by_kind, "ram", nbytes)
        assert dev.io_count() == io_count
        assert dev.bytes_by_kind() == by_kind
        assert dev.bytes_by_category() == by_category
        assert dev.io_total() == len(rows) + len(ram_reads) == len(ios)

    def test_small_ios_reach_high_iops_via_channels(self):
        sim = Simulator()
        spec = DeviceSpec("d", 1e9, 1e9, 1.0, 1.0, channels=8)
        dev = StorageDevice(sim, spec)
        done = []

        def proc(tag):
            yield dev.read(1)  # transfer time ~ 0: setup dominates
            done.append(sim.now)

        for i in range(8):
            sim.spawn(proc(i))
        sim.run()
        assert all(abs(t - 1.0) < 1e-6 for t in done)  # all overlap

    def test_byte_accounting_by_category(self):
        sim = Simulator()
        dev = StorageDevice(sim, OPTANE_905P)

        def proc():
            yield dev.write(1000, category="wal")
            yield dev.write(2000, category="compaction")
            yield dev.read(500, category="read")

        sim.spawn(proc())
        sim.run()
        assert dev.bytes_by_category().get("wal", 0.0) == 1000
        assert dev.bytes_by_category().get("compaction", 0.0) == 2000
        assert dev.bytes_by_category().get("read", 0.0) == 500
        assert dev.bytes_by_kind()["write"] == 3000
        assert sum(dev.bytes_by_category().values()) == 3500

    def test_bandwidth_utilization(self):
        """What ``Metrics.bandwidth_utilization`` divides: bytes moved over
        the write bandwidth times the window."""
        sim = Simulator()
        spec = DeviceSpec("d", 1000.0, 1000.0, 0.0, 0.0, channels=1)
        dev = StorageDevice(sim, spec)

        def proc():
            yield dev.write(500)

        sim.spawn(proc())
        sim.run(until=1.0)
        assert sum(dev.bytes_by_category().values()) / (spec.write_bandwidth * 1.0) == pytest.approx(0.5)
        assert dev.busy_channel_time == pytest.approx(0.5)

    def test_negative_io_rejected(self):
        sim = Simulator()
        dev = StorageDevice(sim, OPTANE_905P)
        with pytest.raises(SimError):
            dev.write(-1)


class TestObserverInvariance:
    """The hook contract: a run does the same accounting whoever watches."""

    @staticmethod
    def _account(install):
        sim = Simulator()
        if install is not None:
            install(sim)
        cpu = CPUSet(sim, 2)
        dev = StorageDevice(sim, DeviceSpec("d", 100.0, 100.0, 0.1, 0.1, channels=1))
        ctx = cpu.new_thread("t")

        def proc():
            yield sim.timeout(0.35)
            yield cpu.exec(ctx, 0.0, "noop")
            yield dev.read(10, category="read")
            yield dev.write(10, category="wal")
            yield cpu.exec(ctx, 0.25, "work")

        sim.spawn(proc())
        sim.run()
        return {
            "busy_time": list(cpu.core_busy_time),
            "busy_by_category": dict(ctx.busy_by_category),
            "io_count": dev.io_count(),
            "bytes_by_kind": dev.bytes_by_kind(),
            "seq": sim._seq,
        }

    def test_same_accounting_with_and_without_observers(self):
        plain = self._account(None)
        assert self._account(install_edgelog) == plain
        assert self._account(install_tracer) == plain

    @staticmethod
    def _both_paths(install):
        """Two threads on one core: t1's first burst ends with t2's delivery
        still queued at the same instant (queued path), every later
        completion is alone at its instant (delivered in place), and t2
        ends on an uncontended lock (followed in place)."""
        sim = Simulator()
        if install is not None:
            install(sim)
        cpu = CPUSet(sim, 1)
        dev = StorageDevice(sim, DeviceSpec("d", 100.0, 100.0, 0.1, 0.1, channels=1))
        lock = Lock(sim, "l")
        steps = []

        def proc(name, io):
            ctx = cpu.new_thread(name)
            yield cpu.exec(ctx, 0.25, "work")
            steps.append((sim.now, name, "burst"))
            yield dev.submit(io, 10, category=io)
            steps.append((sim.now, name, "io"))
            yield lock.acquire(ctx, "lk")
            steps.append((sim.now, name, "lock"))
            lock.release()

        def tie():  # a delivery queued at t=0.25, before t1's burst ends
            yield sim.timeout(0.25)
            steps.append((sim.now, "tie", "timeout"))

        sim.spawn(tie())
        sim.spawn(proc("t1", "read"))
        sim.spawn(proc("t2", "write"))
        sim.run()
        return {
            "steps": steps,
            "busy_time": list(cpu.core_busy_time),
            "busy_by_kind": dict(cpu.busy_by_kind),
            "waits": [dict(t.wait_by_category) for t in cpu.threads],
            "io_count": dev.io_count(),
            "busy_channel_time": dev.busy_channel_time,
            "seq": sim._seq,
        }

    def test_in_place_and_queued_deliveries_account_alike(self):
        plain = self._both_paths(None)
        assert [s for s in plain["steps"] if s[0] == 0.25] == [
            (0.25, "tie", "timeout"),
            (0.25, "t1", "burst"),
        ]
        assert self._both_paths(install_edgelog) == plain
        assert self._both_paths(install_tracer) == plain
        assert self._both_paths(install_sanitizer) == plain

    @staticmethod
    def _in_step(install, in_step):
        """A write group without followers, three times over: a burst, then
        the zero-length wake-up burst, the free metadata lock and the
        one-party barrier — completed inside the step (``in_step``, every
        one of them alone at its instant) or through the suspending forms."""
        sim = Simulator()
        observer = install(sim) if install is not None else None
        cpu = CPUSet(sim, 1)
        lock = Lock(sim, "meta")
        ctx = cpu.new_thread("t", pinned=0)
        returned = []

        def wait(now_form, suspending_form):
            events = now_form() if in_step else (suspending_form(),)
            returned.append(len(events))
            yield from events

        def proc():
            for _ in range(3):
                yield cpu.exec(ctx, 0.25, "work")
                yield from wait(
                    lambda: cpu.exec_now(ctx, 0.0, "wal_lock"),
                    lambda: cpu.exec(ctx, 0.0, "wal_lock"),
                )
                yield from wait(
                    lambda: lock.acquire_now(ctx, "memtable_lock"),
                    lambda: lock.acquire(ctx, "memtable_lock"),
                )
                yield cpu.exec(ctx, 0.1, "memtable")
                lock.release()
                barrier = Barrier(sim, 1)
                yield from wait(barrier.arrive_now, barrier.arrive)

        sim.spawn(proc())
        sim.run()
        if hasattr(observer, "events"):  # a tracer: its spans
            observed = [(s.name, s.cat, s.track, s.start, s.end) for s in observer.events]
        else:  # an edge log: how many records it had no room for
            observed = getattr(observer, "dropped", None)
        return returned, observed, {
            "now": sim.now,
            "busy_time": list(cpu.core_busy_time),
            "busy_by_kind": dict(cpu.busy_by_kind),
            "busy_by_category": dict(ctx.busy_by_category),
            "waits": dict(ctx.wait_by_category),
            "seq": sim._seq,
        }

    def test_waits_completed_in_step_account_alike(self):
        returned, _, suspending = self._in_step(None, in_step=False)
        assert returned == [1] * 9
        assert suspending["busy_by_category"]["wal_lock"] == 0.0  # the key exists
        for install in (None, install_edgelog, install_tracer, install_sanitizer):
            returned, _, accounting = self._in_step(install, in_step=True)
            assert returned == [0] * 9  # nothing left to wait on
            assert accounting == suspending
        # ... the tracer sees the zero-width core instants of both forms ...
        spans = self._in_step(install_tracer, in_step=True)[1]
        assert spans == self._in_step(install_tracer, in_step=False)[1]
        assert ("wal_lock", "core", "cores:core-0", 0.25, 0.25) in spans
        # ... and a full edge log is handed as many records by both.
        def full(sim):
            return install_edgelog(sim, max_records=0)

        dropped = self._in_step(full, in_step=True)[1]
        assert dropped == self._in_step(full, in_step=False)[1] > 0
