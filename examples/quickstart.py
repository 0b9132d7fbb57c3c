#!/usr/bin/env python
"""Quickstart: the p2KVS public API in five minutes.

Builds the simulated machine, opens a p2KVS deployment with 4 workers,
and exercises the standard KV interface: PUT/GET/DELETE, the asynchronous
write interface, cross-instance WriteBatch transactions, RANGE and SCAN.

Run:  python examples/quickstart.py

Pass ``--trace`` to also record a request-level trace of the whole run and
write it to ``quickstart-trace.json`` — load that file in
https://ui.perfetto.dev to see every request, queue residency, WAL flush and
CPU burst on a timeline (the annotated tour is in docs/TRACING.md).

Pass ``--schedule-seed N`` to randomize same-time event delivery with seed
N: the printed output must be byte-identical for every N — ``make
smoke`` checks exactly that (see docs/ANALYSIS.md).
"""

import sys

from repro import P2KVS, WriteBatch, make_env
from repro.harness.report import format_qps


def main():
    # One simulated machine: 16 cores, an Optane-class NVMe SSD, 64 GB RAM.
    env = make_env(n_cores=16)

    tracer = None
    if "--trace" in sys.argv:
        from repro.trace import install_tracer

        tracer = install_tracer(env)

    if "--schedule-seed" in sys.argv:
        seed = int(sys.argv[sys.argv.index("--schedule-seed") + 1])
        env.sim.perturb_schedule(seed)

    def app():
        # --- open a deployment: 4 workers, each pinned to its own core ---
        kvs = yield from P2KVS.open(env, n_workers=4)
        ctx = env.cpu.new_thread("app")

        # --- basic KV operations ---
        yield from kvs.put(ctx, b"user:1", b"alice")
        yield from kvs.put(ctx, b"user:2", b"bob")
        value = yield from kvs.get(ctx, b"user:1")
        print("GET user:1          ->", value)

        yield from kvs.delete(ctx, b"user:2")
        gone = yield from kvs.get(ctx, b"user:2")
        print("GET deleted user:2  ->", gone)

        # --- asynchronous writes (Put(K, V, callback)) ---
        done = []
        for i in range(1000):
            yield from kvs.put_async(
                ctx,
                b"item:%06d" % i,
                b"payload-%d" % i,
                callback=lambda _result: done.append(1),
            )

        # --- a cross-instance atomic WriteBatch (GSN transaction) ---
        batch = WriteBatch()
        batch.put(b"account:alice", b"90")
        batch.put(b"account:bob", b"110")
        yield from kvs.write_batch(ctx, batch)
        print("txn alice ->", (yield from kvs.get(ctx, b"account:alice")))
        print("txn bob   ->", (yield from kvs.get(ctx, b"account:bob")))

        # --- range queries across the hash partitions ---
        pairs = yield from kvs.range_query(ctx, b"item:000010", b"item:000014")
        print("RANGE item:10..14   ->", [k.decode() for k, _ in pairs])

        pairs = yield from kvs.scan(ctx, b"item:000500", 5)
        print("SCAN 5 from item:500->", [k.decode() for k, _ in pairs])

        print("async writes completed:", len(done), "of 1000")
        started = env.sim.now
        n_bench = 5000
        for i in range(n_bench):
            yield from kvs.put_async(ctx, b"bench:%06d" % i, b"x" * 112)
        yield from kvs.close()
        elapsed = env.sim.now - started
        print(
            "simulated write throughput:",
            format_qps(n_bench / elapsed),
            "(simulated time: %.1f ms)" % (elapsed * 1e3),
        )

    env.sim.spawn(app())
    env.sim.run()

    if tracer is not None:
        from repro.trace import write_chrome_trace

        path = write_chrome_trace(tracer, "quickstart-trace.json")
        print("wrote trace:", path, "(open in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
