"""GSN transactions and cross-instance crash consistency (Section 4.5)."""

from repro.core import P2KVS
from repro.engine import WriteBatch
from repro.engine.env import make_env
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


def open_p2kvs(env, **kwargs):
    kwargs.setdefault("n_workers", 4)
    return run_process(env, P2KVS.open(env, **kwargs))


def multi_instance_batch(kvs, items):
    """Build a batch guaranteed to span more than one instance."""
    batch = WriteBatch()
    for k, v in items:
        batch.put(k, v)
    workers = {kvs.router.route(k) for k, _ in items}
    assert len(workers) > 1, "test keys must span instances"
    return batch


class TestTransactions:
    def test_cross_instance_batch_applies_atomically(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        items = [(key(i), b"txn-%d" % i) for i in range(16)]

        def work():
            yield from kvs.write_batch(ctx, multi_instance_batch(kvs, items))
            out = []
            for k, _ in items:
                out.append((yield from kvs.get(ctx, k)))
            return out

        assert run_process(env, work()) == [v for _, v in items]

    def test_single_instance_batch_skips_txn_protocol(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        # All records on one key -> one instance.
        batch = WriteBatch().put(key(1), b"a").put(key(1), b"b")

        def work():
            yield from kvs.write_batch(ctx, batch)
            return (yield from kvs.get(ctx, key(1)))

        assert run_process(env, work()) == b"b"
        # No BEGIN/COMMIT records were needed.
        assert kvs.txn_log.vfile.size == 0

    def test_committed_txn_survives_crash(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        items = [(key(i), b"persist-%d" % i) for i in range(16)]

        def work():
            yield from kvs.write_batch(ctx, multi_instance_batch(kvs, items))
            yield from kvs.close()

        run_process(env, work())
        env.disk.crash()
        kvs2 = open_p2kvs(env)
        ctx2 = env.cpu.new_thread("u2")

        def check():
            out = []
            for k, _ in items:
                out.append((yield from kvs2.get(ctx2, k)))
            return out

        assert run_process(env, check()) == [v for _, v in items]

    def test_uncommitted_txn_rolled_back_after_crash(self, env):
        """Kill between sub-batch application and the COMMIT record: all
        fragments of the transaction must disappear at recovery."""
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        items = [(key(i), b"partial-%d" % i) for i in range(16)]
        batch = multi_instance_batch(kvs, items)

        # Apply the sub-batches exactly as write_batch would, but crash
        # before the commit record.
        from repro.core.requests import OP_WRITEBATCH, Request
        from repro.storage.wal import RECORD_TXN

        def work():
            by_worker = {}
            for vtype, k, v in batch:
                sub = by_worker.setdefault(kvs.router.route(k), WriteBatch())
                sub._records.append((vtype, k, v))
            gsn = kvs.gsn.allocate()
            yield from kvs.txn_log.log_begin(gsn)
            futures = []
            for worker_id, sub in by_worker.items():
                request = Request(
                    OP_WRITEBATCH, batch=sub, gsn=gsn, rtype=RECORD_TXN, no_merge=True
                )
                request.future = env.sim.event()
                kvs.workers[worker_id].submit(request)
                futures.append(request.future)
            yield env.sim.all_of(futures)
            # Make the instance WALs durable so the fragments *would* be
            # recoverable — the missing COMMIT must still roll them back.
            for engine in kvs.engines:
                yield from engine.log_writer.flush("wal")
            # ... crash happens here: no commit record.

        run_process(env, work())
        env.disk.crash()
        kvs2 = open_p2kvs(env)
        ctx2 = env.cpu.new_thread("u2")

        def check():
            out = []
            for k, _ in items:
                out.append((yield from kvs2.get(ctx2, k)))
            return out

        assert run_process(env, check()) == [None] * len(items)

    def test_committed_txn_plus_uncommitted_txn(self, env):
        """Figure 11's example: Tx A committed, Tx B applied-not-committed,
        Tx C incomplete.  Recovery keeps A, drops B and C."""
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        a_items = [(key(100 + i), b"A%d" % i) for i in range(8)]
        b_items = [(key(200 + i), b"B%d" % i) for i in range(8)]

        from repro.core.requests import OP_WRITEBATCH, Request
        from repro.storage.wal import RECORD_TXN

        def work():
            # Tx A: full protocol.
            yield from kvs.write_batch(ctx, multi_instance_batch(kvs, a_items))
            # Tx B: applied but not committed.
            gsn = kvs.gsn.allocate()
            yield from kvs.txn_log.log_begin(gsn)
            by_worker = {}
            for k, v in b_items:
                sub = by_worker.setdefault(kvs.router.route(k), WriteBatch())
                sub.put(k, v)
            futures = []
            for worker_id, sub in by_worker.items():
                request = Request(
                    OP_WRITEBATCH, batch=sub, gsn=gsn, rtype=RECORD_TXN, no_merge=True
                )
                request.future = env.sim.event()
                kvs.workers[worker_id].submit(request)
                futures.append(request.future)
            yield env.sim.all_of(futures)
            for engine in kvs.engines:
                yield from engine.log_writer.flush("wal")

        run_process(env, work())
        env.disk.crash()
        kvs2 = open_p2kvs(env)
        ctx2 = env.cpu.new_thread("u2")

        def check():
            a = []
            b = []
            for k, _ in a_items:
                a.append((yield from kvs2.get(ctx2, k)))
            for k, _ in b_items:
                b.append((yield from kvs2.get(ctx2, k)))
            return a, b

        a, b = run_process(env, check())
        assert a == [v for _, v in a_items]
        assert b == [None] * len(b_items)

    def test_gsn_strictly_increasing_and_recovered(self, env):
        kvs = open_p2kvs(env)
        gsns = [kvs.gsn.allocate() for _ in range(5)]
        assert gsns == sorted(gsns)
        assert len(set(gsns)) == 5
        ctx = env.cpu.new_thread("u")
        items = [(key(i), b"x") for i in range(16)]

        def work():
            yield from kvs.write_batch(ctx, multi_instance_batch(kvs, items))
            yield from kvs.close()

        run_process(env, work())
        env.disk.crash()
        kvs2 = open_p2kvs(env)
        # New GSNs continue above everything recorded in the txn log.
        assert kvs2.gsn.next_gsn > 1
