"""Behavioral tests for the p2KVS worker loop itself."""

import pytest

from repro.core import P2KVS, adapter_factory
from repro.core.requests import OP_GET, OP_PUT, OP_SCAN, OP_WRITEBATCH, Request
from repro.core.worker import Worker
from repro.engine import WriteBatch, make_env
from repro.baselines import wiredtiger_adapter_factory
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


def open_p2kvs(env, **kwargs):
    kwargs.setdefault("n_workers", 2)
    return run_process(env, P2KVS.open(env, **kwargs))


class TestWorkerExecution:
    def test_worker_counts_batches_and_requests(self, env):
        kvs = open_p2kvs(env, n_workers=1)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(20):
                yield from kvs.put(ctx, key(i), b"v")

        run_process(env, work())
        worker = kvs.workers[0]
        assert worker.counters.get("requests") == 20
        assert worker.counters.get("batches") <= 20
        assert worker.batch_sizes.count == worker.counters.get("batches")

    def test_obm_write_merge_counters(self, env):
        kvs = open_p2kvs(env, n_workers=1)
        ctx = env.cpu.new_thread("u")

        def work():
            # Async floods the queue so merges actually form.
            for i in range(64):
                yield from kvs.put_async(ctx, key(i), b"v")

        run_process(env, work())
        env.sim.run()
        worker = kvs.workers[0]
        assert worker.counters.get("obm_write_batches") > 0
        assert worker.counters.get("obm_write_merged") > worker.counters.get(
            "obm_write_batches"
        )

    def test_shutdown_stops_the_loop(self, env):
        kvs = open_p2kvs(env, n_workers=1)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvs.put(ctx, b"k", b"v")
            yield from kvs.close()

        run_process(env, work())
        worker = kvs.workers[0]
        assert worker._proc.triggered  # loop exited

    def test_writebatch_request_through_worker(self, env):
        kvs = open_p2kvs(env, n_workers=1)
        worker = kvs.workers[0]
        batch = WriteBatch().put(b"a", b"1").put(b"b", b"2")
        request = Request(OP_WRITEBATCH, batch=batch)
        request.future = env.sim.event()
        worker.submit(request)
        env.sim.run()
        assert request.future.triggered
        ctx = env.cpu.new_thread("u")

        def check():
            return (yield from kvs.get(ctx, b"a"))

        assert run_process(env, check()) == b"1"

    def test_unbatched_writes_on_wiredtiger_adapter(self, env):
        """No batch-write support: OBM must execute writes one by one."""
        kvs = open_p2kvs(
            env, n_workers=1, adapter_open=wiredtiger_adapter_factory()
        )
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(32):
                yield from kvs.put_async(ctx, key(i), b"v")

        run_process(env, work())
        env.sim.run()
        worker = kvs.workers[0]
        # Merged write batches never form without engine support.
        assert worker.counters.get("obm_write_batches") == 0
        assert worker.engine.counters.get("records_written") == 32

    def test_scan_request_executes_alone(self, env):
        kvs = open_p2kvs(env, n_workers=1)
        ctx = env.cpu.new_thread("u")

        def load():
            for i in range(10):
                yield from kvs.put(ctx, key(i), b"v")

        run_process(env, load())
        worker = kvs.workers[0]
        scan = Request(OP_SCAN, begin=key(0), count=5)
        scan.future = env.sim.event()
        get = Request(OP_GET, key=key(1))
        get.future = env.sim.event()
        worker.submit(scan)
        worker.submit(get)
        env.sim.run()
        assert scan.future.triggered and get.future.triggered
        assert len(scan.future.value.value) == 5  # future carries a KVStatus

    def test_worker_pinned_to_requested_core(self, env):
        kvs = open_p2kvs(env, n_workers=2, pin_workers=True)
        cores = [w.ctx.pinned for w in kvs.workers]
        assert cores == [0, 1]

    def test_unpinned_workers_option(self, env):
        kvs = open_p2kvs(env, n_workers=2, pin_workers=False)
        assert all(w.ctx.pinned is None for w in kvs.workers)


class TestFrameworkIntrospection:
    def test_queue_depths_and_obm_stats(self, env):
        kvs = open_p2kvs(env, n_workers=2)
        assert kvs.queue_depths() == [0, 0]
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(16):
                yield from kvs.put(ctx, key(i), b"v")

        run_process(env, work())
        stats = kvs.obm_stats()
        assert stats["requests"] == 16
        assert stats["avg_batch"] >= 1.0

    def test_memory_accounting_positive(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(64):
                yield from kvs.put(ctx, key(i), b"v" * 100)

        run_process(env, work())
        assert kvs.memory_bytes() > 0
