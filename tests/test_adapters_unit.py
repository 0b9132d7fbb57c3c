"""Unit tests for the worker protocol (``repro.core.adapters``): every
backend a p2KVS worker drives, its capability flags, the engine openers and
the worker's one read path for engines without a native multiget."""

import pytest

from repro.baselines import wiredtiger_adapter_factory
from repro.core import P2KVS, adapter_factory
from repro.core.requests import OP_GET, Request
from repro.engine import WriteBatch
from repro.errors import KVStatus
from repro.storage.wal import RECORD_TXN
from tests.conftest import run_process

OPENERS = {
    "rocksdb": adapter_factory("rocksdb"),
    "leveldb": adapter_factory("leveldb"),
    "wiredtiger": wiredtiger_adapter_factory(),
}

#: flavor -> (supports_batch_write, supports_multiget, supports_snapshots)
CAPABILITIES = {
    "rocksdb": (True, True, True),
    "leveldb": (True, False, True),
    "wiredtiger": (False, False, False),
}


def key(i):
    return b"user%08d" % i


def open_engine(env, flavor, name="db"):
    return run_process(env, OPENERS[flavor](env, name, None))


def open_worker(env, adapter_open, name="p2kvs"):
    """The only worker of a fresh one-worker deployment."""
    kvs = run_process(
        env, P2KVS.open(env, n_workers=1, adapter_open=adapter_open, name=name)
    )
    return kvs.workers[0]


def load(env, engine, n):
    ctx = env.cpu.new_thread("loader")

    def work():
        for i in range(n):
            yield from engine.put(ctx, key(i), b"v%d" % i)

    run_process(env, work())


def read_batch(env, worker, keys):
    """Queue one GET per key before the worker runs, so OBM serves them as
    one batch; return ``(code, value)`` per key and the sim time it took."""
    requests = [Request(OP_GET, key=k) for k in keys]
    for request in requests:
        request.future = env.sim.event()
        worker.submit(request)
    start = env.sim.now
    env.sim.run()
    statuses = [r.future.value for r in requests]
    return [(s.code, s.value) for s in statuses], env.sim.now - start


class TestCapabilities:
    @pytest.mark.parametrize("flavor", sorted(CAPABILITIES))
    def test_capability_matrix(self, env, flavor):
        engine = open_engine(env, flavor)
        flags = (
            engine.supports_batch_write,
            engine.supports_multiget,
            engine.supports_snapshots,
        )
        assert flags == CAPABILITIES[flavor]

    def test_factory_rejects_unknown_flavor(self):
        with pytest.raises(ValueError):
            adapter_factory("berkeleydb")


class TestOperations:
    def test_write_and_get(self, env):
        ctx = env.cpu.new_thread("u")
        for flavor in OPENERS:
            engine = open_engine(env, flavor, name=flavor)

            def work():
                yield from engine.write(ctx, WriteBatch().put(b"k", b"v"))
                return (yield from engine.get_status(ctx, b"k", None))

            assert run_process(env, work()).value == b"v", flavor

    def test_scan_and_range(self, env):
        ctx = env.cpu.new_thread("u")
        for flavor in OPENERS:
            engine = open_engine(env, flavor, name=flavor)
            load(env, engine, 30)

            def work():
                s = yield from engine.scan(ctx, key(5), 3)
                r = yield from engine.range_query(ctx, key(10), key(11))
                return s, r

            s, r = run_process(env, work())
            assert [k for k, _ in s] == [key(5), key(6), key(7)], flavor
            assert [k for k, _ in r] == [key(10), key(11)], flavor

    def test_counters_and_memory_exposed(self, env):
        for flavor in OPENERS:
            engine = open_engine(env, flavor, name=flavor)
            load(env, engine, 1)
            assert engine.counters.get("records_written") == 1, flavor
            assert engine.memory_bytes() > 0, flavor

    def test_record_filter_passed_through_factory(self, env):
        factory = adapter_factory("rocksdb")
        engine = run_process(env, factory(env, "db", None))
        ctx = env.cpu.new_thread("u")

        def work():
            yield from engine.write(
                ctx, WriteBatch().put(b"t", b"1"), gsn=9, rtype=RECORD_TXN
            )
            yield from engine.close()

        run_process(env, work())
        env.disk.crash()

        def drop_all_txn(rtype, gsn):
            return rtype != RECORD_TXN

        engine2 = run_process(env, factory(env, "db", drop_all_txn))
        ctx2 = env.cpu.new_thread("u2")

        def check():
            return (yield from engine2.get(ctx2, b"t"))

        assert run_process(env, check()) is None

    # The worker's OBM read batches: native multiget, or one process per key
    # on engines without it (forced on a RocksDB instance by clearing its
    # ``supports_multiget``).

    def test_concurrent_gets_overlap_io(self, env):
        """The no-multiget path must overlap lookups, not serialize them."""
        worker = open_worker(env, adapter_factory("leveldb", block_cache_bytes=1024))
        engine = worker.engine
        ctx = env.cpu.new_thread("u")

        def fill():
            for i in range(64):
                yield from engine.put(ctx, key(i), b"v" * 100)
            yield from engine.flush(ctx)

        run_process(env, fill())
        # Force cold reads so IO time matters.
        env.disk.page_cache = type(env.disk.page_cache)(0)
        keys = [key(i * 7) for i in range(8)]
        t_serial = sum(read_batch(env, worker, [k])[1] for k in keys)
        assert worker.counters.get("obm_read_batches") == 0
        _, t_batched = read_batch(env, worker, keys)
        assert worker.counters.get("obm_read_batches") == 1
        # Half, not just less: one batch also saves per-request dispatch,
        # which alone would beat the serial reads by a few percent.
        assert t_batched < t_serial / 2

    def test_multiget_native_vs_fallback_same_results(self, env):
        keys = [key(3), b"missing", key(7)]
        expected = [
            (KVStatus.ok().code, b"v3"),
            (KVStatus.not_found().code, None),
            (KVStatus.ok().code, b"v7"),
        ]
        cases = [
            ("rocksdb", True),
            ("rocksdb", False),
            ("leveldb", False),
            ("wiredtiger", False),
        ]
        for i, (flavor, multiget) in enumerate(cases):
            worker = open_worker(env, OPENERS[flavor], name="p2kvs-%d" % i)
            load(env, worker.engine, 20)
            worker.engine.supports_multiget = multiget
            assert read_batch(env, worker, keys)[0] == expected, (flavor, multiget)
            assert worker.counters.get("obm_read_batches") == 1

    def test_multiget_with_snapshot(self, env):
        """A read-committed snapshot reaches both read paths."""
        worker = open_worker(env, OPENERS["rocksdb"])
        engine = worker.engine
        ctx = env.cpu.new_thread("u")
        keys = [b"k", b"missing"]

        def put(value):
            run_process(env, engine.put(ctx, b"k", value))

        put(b"v1")
        worker.txn_snapshots[1] = engine.snapshot()
        put(b"v2")
        shadowed = [(KVStatus.ok().code, b"v1"), (KVStatus.not_found().code, None)]
        assert read_batch(env, worker, keys)[0] == shadowed
        engine.supports_multiget = False
        assert read_batch(env, worker, keys)[0] == shadowed
        engine.release_snapshot(worker.txn_snapshots.pop(1))
        assert read_batch(env, worker, keys)[0][0] == (KVStatus.ok().code, b"v2")
