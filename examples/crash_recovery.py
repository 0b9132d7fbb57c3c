#!/usr/bin/env python
"""Crash consistency walk-through (paper Section 4.5 / Figure 11).

Three transactions against a 4-worker p2KVS deployment:

* Tx A — committed (BEGIN + sub-batches + COMMIT all durable);
* Tx B — applied to every instance WAL but the COMMIT record never lands;
* Tx C — only partially applied before the crash.

After killing the "process" (dropping every unsynced buffer), recovery
replays the instance WALs through the GSN filter: A survives intact, B and
C vanish entirely — no partial transaction is ever visible.

Run:  python examples/crash_recovery.py
"""

from repro import P2KVS, WriteBatch, make_env
from repro.core.requests import OP_WRITEBATCH, Request
from repro.storage.wal import RECORD_TXN


def split_by_worker(kvs, batch):
    by_worker = {}
    for vtype, key, value in batch:
        sub = by_worker.setdefault(kvs.router.route(key), WriteBatch())
        sub._records.append((vtype, key, value))
    return by_worker


def apply_without_commit(env, kvs, batch, partial=False):
    """Run the transaction protocol but 'crash' before the COMMIT record."""

    def work():
        gsn = kvs.gsn.allocate()
        yield from kvs.txn_log.log_begin(gsn)
        by_worker = split_by_worker(kvs, batch)
        items = list(by_worker.items())
        if partial:
            items = items[: max(1, len(items) // 2)]  # Tx C: incomplete
        futures = []
        for worker_id, sub in items:
            request = Request(
                OP_WRITEBATCH, batch=sub, gsn=gsn, rtype=RECORD_TXN, no_merge=True
            )
            request.future = env.sim.event()
            kvs.workers[worker_id].submit(request)
            futures.append(request.future)
        yield env.sim.all_of(futures)
        # Make the instance WALs durable: the fragments WOULD be
        # recoverable — only the missing COMMIT rolls them back.
        for engine in kvs.engines:
            yield from engine.log_writer.flush("wal")

    env.sim.spawn(work())
    env.sim.run()


def read_keys(env, kvs, keys):
    out = {}

    def work():
        ctx = env.cpu.new_thread("reader")
        for key in keys:
            out[key] = yield from kvs.get(ctx, key)

    env.sim.spawn(work())
    env.sim.run()
    return out


def main():
    env = make_env(n_cores=8)

    def setup():
        kvs = yield from P2KVS.open(env, n_workers=4)
        ctx = env.cpu.new_thread("app")
        # Tx A: full commit through the public API.
        batch_a = WriteBatch()
        for i in range(8):
            batch_a.put(b"A:%d" % i, b"committed")
        yield from kvs.write_batch(ctx, batch_a)
        return kvs

    box = []

    def runner():
        box.append((yield from setup()))

    env.sim.spawn(runner())
    env.sim.run()
    kvs = box[0]

    # Tx B: applied everywhere, never committed.
    batch_b = WriteBatch()
    for i in range(8):
        batch_b.put(b"B:%d" % i, b"uncommitted")
    apply_without_commit(env, kvs, batch_b)

    # Tx C: crash mid-flight (only some instances saw it).
    batch_c = WriteBatch()
    for i in range(8):
        batch_c.put(b"C:%d" % i, b"incomplete")
    apply_without_commit(env, kvs, batch_c, partial=True)

    print("before crash:")
    state = read_keys(env, kvs, [b"A:0", b"B:0", b"C:0"])
    for key, value in state.items():
        print("  %-6s -> %r" % (key.decode(), value))

    print("\n*** CRASH: dropping all unsynced state ***\n")
    env.disk.crash()

    def reopen():
        box.append((yield from P2KVS.open(env, n_workers=4)))

    env.sim.spawn(reopen())
    env.sim.run()
    recovered = box[1]

    print("after recovery (GSN rollback):")
    keys = [b"A:%d" % i for i in range(8)] + [b"B:0", b"C:0"]
    state = read_keys(env, recovered, keys)
    a_ok = all(state[b"A:%d" % i] == b"committed" for i in range(8))
    print("  Tx A intact:      ", a_ok)
    print("  Tx B rolled back: ", state[b"B:0"] is None)
    print("  Tx C rolled back: ", state[b"C:0"] is None)
    assert a_ok and state[b"B:0"] is None and state[b"C:0"] is None
    print("\nconsistent: committed transactions survive, partial ones vanish.")


if __name__ == "__main__":
    main()
