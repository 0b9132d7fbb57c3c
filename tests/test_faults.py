"""Tests for the fault plane: seeded device faults, crash-recovery
determinism, the shadow-map oracle, worker degradation, and the
zero-overhead off path."""

import json

import pytest

from repro.core import P2KVS
from repro.engine import LSMEngine, make_env, rocksdb_options
from repro.errors import Corruption, IOFailure, KVError, KVStatus, TimedOut
from repro.faults import (
    CrashPoint,
    CrashTriggered,
    FaultPolicy,
    ShadowMap,
    install_faults,
    restore_durable_state,
    snapshot_durable_state,
    uninstall_faults,
)
from repro.faults.retry import MAX_ATTEMPTS, retry_io
from repro.sim import OPTANE_905P, Simulator, StorageDevice
from repro.storage.vfs import DiskImage
from repro.systems import describe_options, open_system, system_names
from repro.tools.faultbench import SCENARIOS, run_scenario
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


# ---------------------------------------------------------------------------
# FaultPolicy: seeded, replayable decisions
# ---------------------------------------------------------------------------


class TestFaultPolicy:
    def test_same_seed_same_schedule(self):
        a = FaultPolicy(41, error_rate=0.2, torn_rate=0.1)
        b = FaultPolicy(41, error_rate=0.2, torn_rate=0.1)
        seq_a = [a.decide("write", 4096, "wal") for _ in range(200)]
        seq_b = [b.decide("write", 4096, "wal") for _ in range(200)]
        assert [repr(x) for x in seq_a] == [repr(x) for x in seq_b]
        assert a.injected == b.injected
        assert a.total_injected > 0

    def test_kind_and_category_filters(self):
        policy = FaultPolicy(1, error_rate=1.0, kinds=("write",),
                             categories=("wal",))
        assert policy.decide("read", 100, "wal") is None
        assert policy.decide("write", 100, "flush") is None
        assert policy.decide("write", 100, "wal") is not None

    def test_max_faults_caps_injection(self):
        policy = FaultPolicy(2, error_rate=1.0, max_faults=3)
        outcomes = [policy.decide("write", 100, "wal") for _ in range(10)]
        assert sum(1 for o in outcomes if o is not None) == 3
        assert policy.total_injected == 3

    def test_torn_writes_carry_a_completed_prefix(self):
        policy = FaultPolicy(3, torn_rate=1.0)
        exc = policy.decide("write", 1000, "wal")
        assert isinstance(exc, IOFailure) and exc.torn
        assert 0 <= exc.completed_bytes < 1000


# ---------------------------------------------------------------------------
# VFS under injected faults
# ---------------------------------------------------------------------------


class TestVfsFaults:
    def _disk(self, policy):
        sim = Simulator()
        device = StorageDevice(sim, OPTANE_905P)
        device.fault_policy = policy
        return sim, DiskImage(sim, device)

    def test_torn_flush_advances_durable_prefix(self):
        sim, disk = self._disk(FaultPolicy(5, torn_rate=1.0))
        f = disk.open_file("wal")
        f.append(b"x" * 1000)

        def attempt():
            try:
                yield from f.flush()
            except IOFailure as exc:
                return exc
            return None

        exc = run_process_sim(sim, attempt())
        assert exc is not None and exc.torn
        # The durable prefix advanced by exactly the completed bytes.
        assert f.flushed_len == exc.completed_bytes
        assert f.durable_content() == b"x" * exc.completed_bytes

    def test_transient_error_leaves_nothing_durable(self):
        sim, disk = self._disk(FaultPolicy(6, error_rate=1.0,
                                           timeout_share=0.0))
        f = disk.open_file("wal")
        f.append(b"y" * 100)

        def attempt():
            try:
                yield from f.flush()
            except IOFailure:
                return "failed"

        assert run_process_sim(sim, attempt()) == "failed"
        assert f.flushed_len == 0
        assert f.pending_bytes == 100


def run_process_sim(sim, gen):
    box = []

    def wrapper():
        box.append((yield from gen))

    sim.spawn(wrapper())
    sim.run()
    return box[0] if box else None


# ---------------------------------------------------------------------------
# retry_io
# ---------------------------------------------------------------------------


class TestRetryIO:
    def test_retries_until_success(self, env):
        calls = []

        def make():
            def gen():
                calls.append(1)
                if len(calls) < 3:
                    raise IOFailure("flaky", site="test")
                return "done"
                yield  # pragma: no cover

            return gen()

        result = run_process(env, retry_io(env, make, site="test"))
        assert result == "done"
        assert len(calls) == 3

    def test_exhaustion_reraises_with_attempts(self, env):
        def make():
            def gen():
                raise TimedOut("always", site="test")
                yield  # pragma: no cover

            return gen()

        def attempt():
            try:
                yield from retry_io(env, make, site="test")
            except TimedOut as exc:
                return exc

        exc = run_process(env, attempt())
        assert exc.details["attempts"] == MAX_ATTEMPTS

    def test_non_retryable_raises_immediately(self, env):
        calls = []

        def make():
            def gen():
                calls.append(1)
                raise Corruption("bad bytes", site="test")
                yield  # pragma: no cover

            return gen()

        def attempt():
            try:
                yield from retry_io(env, make, site="test")
            except Corruption as exc:
                return exc

        assert run_process(env, attempt()) is not None
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Crash plane
# ---------------------------------------------------------------------------


class TestCrashPlane:
    def test_crash_point_fires_on_nth_hit(self):
        env = make_env(n_cores=2)
        plane = install_faults(env, crash=CrashPoint("wal-append", 3), seed=1)
        for _ in range(2):
            plane.crash_site("wal-append")
        plane.crash_site("other-site")
        with pytest.raises(CrashTriggered) as excinfo:
            plane.crash_site("wal-append")
        assert excinfo.value.site == "wal-append"
        assert plane.snapshot is not None

    def test_crash_is_not_a_kverror(self):
        # Poison/retry paths catch KVError; a power loss must cut through.
        assert not issubclass(CrashTriggered, KVError)

    def test_snapshot_restore_roundtrip(self):
        sim = Simulator()
        disk = DiskImage(sim, StorageDevice(sim, OPTANE_905P))
        f = disk.open_file("a/wal")
        f.append(b"durable")
        run_process_sim(sim, f.flush())
        f.append(b"volatile-tail")
        disk.put_blob("a/sst-1", ("table",), 128)
        disk.commit_blob("a/sst-1")
        disk.put_blob("a/sst-2", ("orphan",), 64)  # never committed

        snapshot = snapshot_durable_state(disk)
        sim2 = Simulator()
        disk2 = DiskImage(sim2, StorageDevice(sim2, OPTANE_905P))
        restore_durable_state(disk2, snapshot)
        assert disk2.open_file("a/wal").durable_content() == b"durable"
        assert disk2.open_file("a/wal").pending_bytes == 0
        assert disk2.blob_exists("a/sst-1")
        assert not disk2.blob_exists("a/sst-2")

    def test_uninstall_restores_the_off_path(self):
        env = make_env(n_cores=2)
        install_faults(env, policy=FaultPolicy(1, error_rate=0.5), seed=1)
        assert env.faults is not None
        assert env.device.fault_policy is not None
        uninstall_faults(env)
        assert env.faults is None
        assert env.device.fault_policy is None


# ---------------------------------------------------------------------------
# The shadow-map oracle itself
# ---------------------------------------------------------------------------


class TestShadowMapOracle:
    def test_clean_history_passes(self):
        shadow = ShadowMap()
        t1 = shadow.begin([(b"k", b"v1")])
        shadow.ack(t1)
        t2 = shadow.begin([(b"k", b"v2")])
        shadow.ack(t2)
        assert shadow.verify({b"k": b"v2"}) == []

    def test_lost_ack_detected(self):
        shadow = ShadowMap()
        shadow.ack(shadow.begin([(b"k", b"v1")]))
        assert any("lost-ack" in v for v in shadow.verify({b"k": None}))

    def test_stale_ack_detected(self):
        shadow = ShadowMap()
        shadow.ack(shadow.begin([(b"k", b"v1")]))
        shadow.ack(shadow.begin([(b"k", b"v2")]))
        assert any("stale-ack" in v for v in shadow.verify({b"k": b"v1"}))

    def test_phantom_detected(self):
        shadow = ShadowMap()
        shadow.ack(shadow.begin([(b"k", b"v1")]))
        assert any("phantom" in v for v in shadow.verify({b"k": b"zzz"}))

    def test_unacked_single_may_go_either_way(self):
        shadow = ShadowMap()
        shadow.begin([(b"k", b"v1")])  # in flight at the crash
        assert shadow.verify({b"k": b"v1"}) == []
        assert shadow.verify({b"k": None}) == []

    def test_torn_group_detected(self):
        shadow = ShadowMap()
        token = shadow.begin([(b"g1", b"v1"), (b"g2", b"v2")])
        shadow.ack(token)
        violations = shadow.verify({b"g1": b"v1", b"g2": None})
        assert any("torn-group" in v for v in violations)
        assert shadow.verify({b"g1": b"v1", b"g2": b"v2"}) == []


# ---------------------------------------------------------------------------
# Crash-recovery determinism (the ISSUE's acceptance bar): crash sites x
# devices, each run twice — report and fingerprint byte-identical.
# ---------------------------------------------------------------------------


CRASH_MATRIX = [
    spec for spec in SCENARIOS
    if "crash" in spec and spec["store"] == "engine"
    and spec["crash"][0] in ("wal-append", "wal-flush", "memtable-switch")
]


class TestCrashRecoveryDeterminism:
    @pytest.mark.parametrize(
        "spec", CRASH_MATRIX, ids=[s["name"] for s in CRASH_MATRIX]
    )
    def test_crash_reopen_twice_is_byte_identical(self, spec):
        # 3 crash sites x 2 devices (see CRASH_MATRIX): the whole
        # run -> crash -> restore -> reopen -> read-back cycle must be a
        # pure function of the scenario and the fault seed.
        first = run_scenario(spec, fault_seed=7)
        second = run_scenario(spec, fault_seed=7)
        assert first["violations"] == []
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["crashed"] and first["crash_site"] == spec["crash"][0]

    def test_different_seed_different_schedule(self):
        spec = next(s for s in SCENARIOS
                    if s["name"] == "engine-nvme-transient")
        a = run_scenario(spec, fault_seed=7)
        b = run_scenario(spec, fault_seed=8)
        assert a["violations"] == [] and b["violations"] == []
        assert a["seed"] != b["seed"]

    def test_transient_faults_never_lose_acked_writes(self):
        # Regression for the pipelined-write WAL lifetime bug: a group's
        # records can land in segment N while its memtable inserts land
        # after a switch; N must survive until that memtable flushes.
        spec = next(s for s in SCENARIOS
                    if s["name"] == "engine-nvme-transient")
        report = run_scenario(spec, fault_seed=7)
        assert report["violations"] == []
        assert report["shadow"]["acked"] > 0


# ---------------------------------------------------------------------------
# Degradation: a poisoned request fails one request, not the worker
# ---------------------------------------------------------------------------


class TestWorkerDegradation:
    def test_poisoned_write_leaves_worker_alive(self, env):
        from repro.core import adapter_factory

        # sync_wal so every put reaches the device (and can be failed).
        kvs = run_process(env, P2KVS.open(
            env, n_workers=1,
            adapter_open=adapter_factory("rocksdb", sync_wal=True),
        ))
        ctx = env.cpu.new_thread("u")

        def warm():
            yield from kvs.put(ctx, b"before", b"1")

        run_process(env, warm())
        # Every WAL write now fails permanently: the put is poisoned.
        install_faults(
            env,
            policy=FaultPolicy(9, error_rate=1.0, timeout_share=0.0,
                               kinds=("write",), categories=("wal",)),
            seed=9,
        )

        def poisoned():
            try:
                yield from kvs.put(ctx, b"victim", b"2")
            except KVError as exc:
                return exc
            return None

        exc = run_process(env, poisoned())
        assert isinstance(exc, IOFailure)
        # The worker loop survived: lift the faults and keep operating.
        uninstall_faults(env)

        def after():
            yield from kvs.put(ctx, b"after", b"3")
            return (yield from kvs.get(ctx, b"after"))

        assert run_process(env, after()) == b"3"
        worker = kvs.workers[0]
        assert worker.counters.get("poisoned_requests") >= 1
        assert worker._proc.triggered is False  # loop still running

    @staticmethod
    def _cold_p2kvs(policy):
        """One p2KVS worker over 3 000 flushed records with caches too small
        to hold them, so a point read reaches the device; the traced env
        then gets ``policy``."""
        from repro.core import adapter_factory
        from repro.trace import install_tracer

        env = make_env(page_cache_bytes=16384)
        tracer = install_tracer(env)
        kvs = run_process(env, P2KVS.open(
            env, n_workers=1,
            adapter_open=adapter_factory(
                "rocksdb", block_cache_bytes=4096, write_buffer_size=65536,
                target_file_size=65536,
            ),
        ))
        ctx = env.cpu.new_thread("u")

        def load():
            for i in range(3000):
                yield from kvs.put(ctx, key(i), b"v" * 112)
            yield from kvs.workers[0].engine.flush(ctx)

        run_process(env, load())
        install_faults(env, policy=policy, seed=policy.seed)
        return env, tracer, kvs, ctx

    @staticmethod
    def _retries(tracer):
        return [
            s.args["attempt"] for s in tracer.events if s.name == "retry:GET"
        ]

    def test_a_failed_read_is_retried(self):
        """A read is idempotent: the worker re-dispatches it after a
        transient device error, and the retry returns the value."""
        env, tracer, kvs, ctx = self._cold_p2kvs(FaultPolicy(
            5, error_rate=1.0, timeout_share=0.0, kinds=("read",),
            categories=("read",), max_faults=1,
        ))
        value = run_process(env, kvs.get(ctx, key(17)))
        assert value == b"v" * 112
        worker = kvs.workers[0]
        assert worker.counters.get("request_retries") == 1
        assert worker.counters.get("poisoned_requests") == 0
        assert self._retries(tracer) == [1]

    def test_a_read_that_keeps_failing_is_poisoned(self):
        """Bounded: after ``MAX_BATCH_RETRIES`` re-dispatches the read fails
        with its typed error, and the worker loop lives on."""
        env, tracer, kvs, ctx = self._cold_p2kvs(FaultPolicy(
            5, error_rate=1.0, timeout_share=0.0, kinds=("read",),
            categories=("read",),
        ))

        def read():
            try:
                yield from kvs.get(ctx, key(2900))
            except KVError as exc:
                return exc
            return None

        assert isinstance(run_process(env, read()), IOFailure)
        worker = kvs.workers[0]
        assert worker.counters.get("request_retries") == 2
        assert worker.counters.get("poisoned_requests") == 1
        assert self._retries(tracer) == [1, 2]
        assert worker._proc.triggered is False


# ---------------------------------------------------------------------------
# Zero-overhead off path + status API + registry
# ---------------------------------------------------------------------------


class TestOffPath:
    def test_no_fault_run_touches_no_fault_instruments(self, env):
        assert env.faults is None
        assert env.device.fault_policy is None
        engine = run_process(env, LSMEngine.open(env, "db", rocksdb_options()))
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(32):
                yield from engine.put(ctx, key(i), b"v")
            return (yield from engine.get(ctx, key(7)))

        assert run_process(env, work()) == b"v"
        names = env.metrics.counter_values()
        assert not any(n.startswith("faults.") for n in names)
        assert not any("io_retries" in n for n in names)


class TestStatusAPI:
    def test_status_states(self):
        ok = KVStatus.ok(b"v")
        assert ok.is_ok and ok.value == b"v" and ok.value_or(None) == b"v"
        missing = KVStatus.not_found()
        assert missing.is_not_found and missing.value_or(b"d") == b"d"
        err = KVStatus.from_error(IOFailure("boom", site="x"))
        assert err.is_error
        with pytest.raises(IOFailure):
            err.raise_for_error()
        with pytest.raises(IOFailure):
            err.value_or(None)

    def test_every_registered_system_reports_statuses(self, env):
        assert {"rocksdb", "leveldb", "pebblesdb", "multi", "p2kvs",
                "kvell", "wiredtiger"} <= set(system_names())

    @pytest.mark.parametrize("name", ["rocksdb", "p2kvs", "kvell",
                                      "wiredtiger"])
    def test_open_system_round_trips_ops(self, name):
        env = make_env(n_cores=8)
        # open_system is strict: only pass workers where it is declared.
        opts = {"workers": 2} if "workers" in describe_options(name) else {}
        system = open_system(name, env, **opts)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from system.execute(ctx, ("insert", b"k", b"v"))
            yield from system.execute(ctx, ("read", b"k", None))

        run_process(env, work())
        assert system.user_bytes_written() > 0
