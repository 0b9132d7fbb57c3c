"""Tests for the paper's future-work extensions we implemented:
read-committed snapshot isolation (Section 4.5) and runtime worker scaling
(Section 4.2)."""

import pytest

from repro.baselines import wiredtiger_adapter_factory
from repro.core import P2KVS, adapter_factory
from repro.engine import WriteBatch
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


def open_p2kvs(env, **kwargs):
    kwargs.setdefault("n_workers", 4)
    return run_process(env, P2KVS.open(env, **kwargs))


def multi_instance_batch(kvs, items):
    batch = WriteBatch()
    for k, v in items:
        batch.put(k, v)
    assert len({kvs.router.route(k) for k, _ in items}) > 1
    return batch


class TestReadCommitted:
    def test_committed_updates_become_visible(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        items = [(key(i), b"v%d" % i) for i in range(12)]

        def work():
            yield from kvs.write_batch(
                ctx, multi_instance_batch(kvs, items), isolation="read_committed"
            )
            out = []
            for k, _ in items:
                out.append((yield from kvs.get(ctx, k)))
            return out

        assert run_process(env, work()) == [v for _, v in items]

    def test_reader_does_not_see_dirty_uncommitted_writes(self, env):
        """A reader racing the transaction either sees all-old or all-new,
        never a mix (no dirty reads)."""
        kvs = open_p2kvs(env)
        writer_ctx = env.cpu.new_thread("writer")
        reader_ctx = env.cpu.new_thread("reader")
        items = [(key(i), b"new") for i in range(12)]

        def setup():
            for k, _ in items:
                yield from kvs.put(writer_ctx, k, b"old")

        run_process(env, setup())

        observations = []

        def txn():
            yield from kvs.write_batch(
                ctx=writer_ctx,
                batch=multi_instance_batch(kvs, items),
                isolation="read_committed",
            )

        def reader():
            # Poll the keys repeatedly while the transaction runs.
            for _ in range(30):
                snapshot = []
                for k, _ in items:
                    snapshot.append((yield from kvs.get(reader_ctx, k)))
                observations.append(tuple(snapshot))
                yield env.sim.timeout(2e-6)

        env.sim.spawn(txn())
        env.sim.spawn(reader())
        env.sim.run()
        for snap in observations:
            assert set(snap) in ({b"old"}, {b"new"}), snap
        # The final state must be the committed one.
        assert observations[-1] == tuple(b"new" for _ in items)

    def test_snapshots_released_after_commit(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        items = [(key(i), b"x") for i in range(12)]

        def work():
            yield from kvs.write_batch(
                ctx, multi_instance_batch(kvs, items), isolation="read_committed"
            )

        run_process(env, work())
        for worker in kvs.workers:
            assert worker.txn_snapshots == {}
            assert worker.engine.snapshots == []

    def test_rejects_unknown_isolation(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvs.write_batch(
                ctx, WriteBatch().put(b"a", b"1"), isolation="serializable"
            )

        with pytest.raises(ValueError):
            run_process(env, work())

    def test_rejects_read_committed_on_wiredtiger(self, env):
        kvs = open_p2kvs(env, adapter_open=wiredtiger_adapter_factory())
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvs.write_batch(
                ctx, WriteBatch().put(b"a", b"1"), isolation="read_committed"
            )

        with pytest.raises(ValueError, match="snapshot-capable"):
            run_process(env, work())


class TestRuntimeScaling:
    def test_add_worker_preserves_all_data(self, env):
        kvs = open_p2kvs(env, n_workers=3)
        ctx = env.cpu.new_thread("u")
        n = 120

        def load():
            for i in range(n):
                yield from kvs.put(ctx, key(i), b"v%d" % i)

        run_process(env, load())

        def grow():
            return (yield from kvs.add_worker(ctx))

        moved = run_process(env, grow())
        assert len(kvs.workers) == 4
        assert kvs.router.n_workers == 4
        assert moved > 0  # some keys had to migrate

        def verify():
            out = []
            for i in range(n):
                out.append((yield from kvs.get(ctx, key(i))))
            return out

        assert run_process(env, verify()) == [b"v%d" % i for i in range(n)]

    def test_new_worker_receives_traffic(self, env):
        kvs = open_p2kvs(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def load():
            for i in range(60):
                yield from kvs.put(ctx, key(i), b"x")

        run_process(env, load())
        run_process(env, kvs.add_worker(ctx))

        def more():
            for i in range(60, 180):
                yield from kvs.put(ctx, key(i), b"y")

        run_process(env, more())
        new_worker = kvs.workers[-1]
        assert new_worker.counters.get("requests") > 0

    def test_range_query_correct_after_scaling(self, env):
        kvs = open_p2kvs(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def load():
            for i in range(80):
                yield from kvs.put(ctx, key(i), b"v%d" % i)

        run_process(env, load())
        run_process(env, kvs.add_worker(ctx))

        def query():
            return (yield from kvs.range_query(ctx, key(10), key(19)))

        pairs = run_process(env, query())
        assert pairs == [(key(i), b"v%d" % i) for i in range(10, 20)]

    def test_add_worker_opens_like_the_deployment(self, env):
        """The new instance is named, pinned and configured like the
        deployment's others, not like a default RocksDB deployment."""
        kvs = open_p2kvs(
            env,
            n_workers=2,
            name="svc",
            pin_base=4,
            adapter_open=adapter_factory("leveldb", write_buffer_size=4096),
        )
        run_process(env, kvs.add_worker(env.cpu.new_thread("u")))
        worker = kvs.workers[-1]
        assert worker.counters.prefix == "svc.worker-2"
        assert "p2kvs.worker-2" not in env.metrics.groups
        assert worker.ctx.pinned == 6
        assert worker.engine.name == "svc/db-2"
        assert worker.engine.options.write_buffer_size == 4096
        assert not worker.engine.supports_multiget

    def test_add_worker_requires_hash_router(self, env):
        from repro.core import RangeRouter

        kvs = open_p2kvs(env, n_workers=3, router=RangeRouter([key(10), key(20)]))
        ctx = env.cpu.new_thread("u")

        def grow():
            yield from kvs.add_worker(ctx)

        with pytest.raises(ValueError, match="hash router"):
            run_process(env, grow())
