#!/usr/bin/env python
"""Portability demo (paper Section 4.6): one framework, three engines.

Runs the same workload through p2KVS deployed over the RocksDB-like engine,
the LevelDB-like engine (no multiget: OBM reads fall back to concurrent
gets) and the WiredTiger-like B+-tree engine (no batch write: OBM-write
disabled), and prints each configuration's capabilities and throughput.
Each worker drives its engine directly: the capability columns are the
engine's own ``supports_batch_write`` / ``supports_multiget`` flags.

Run:  python examples/portability.py
"""

from repro import P2KVS, adapter_factory, make_env, wiredtiger_adapter_factory
from repro.harness.report import format_qps, format_table
from repro.workloads import fillrandom, make_key, readrandom, split_stream

N_WRITES = 6000
N_READS = 6000
N_WORKERS = 4
N_THREADS = 8

FLAVORS = {
    "RocksDB-like": adapter_factory("rocksdb"),
    "LevelDB-like": adapter_factory("leveldb"),
    "WiredTiger-like": wiredtiger_adapter_factory(),
}


def run_flavor(name, adapter_open):
    env = make_env(n_cores=16)
    box = []

    def opener():
        kvs = yield from P2KVS.open(env, n_workers=N_WORKERS, adapter_open=adapter_open)
        box.append(kvs)

    env.sim.spawn(opener())
    env.sim.run()
    kvs = box[0]
    engine = kvs.engines[0]

    def phase(ops, n_threads):
        streams = split_stream(ops, n_threads)
        procs = []
        start = env.sim.now

        def worker(ctx, stream):
            for verb, key, payload in stream:
                if verb == "insert":
                    yield from kvs.put(ctx, key, payload)
                else:
                    yield from kvs.get(ctx, key)

        for i, stream in enumerate(streams):
            procs.append(
                env.sim.spawn(worker(env.cpu.new_thread("u%d" % i), stream))
            )
        env.sim.run()
        return (sum(len(s) for s in streams)) / (env.sim.now - start)

    write_qps = phase(list(fillrandom(N_WRITES)), N_THREADS)
    read_qps = phase(list(readrandom(N_READS, N_WRITES)), N_THREADS)

    # Functional spot check: the framework behaves identically everywhere.
    result = []

    def check():
        ctx = env.cpu.new_thread("check")
        result.append((yield from kvs.get(ctx, make_key(42))))
        result.append((yield from kvs.range_query(ctx, make_key(10), make_key(12))))

    env.sim.spawn(check())
    env.sim.run()
    assert result[0] is not None and len(result[1]) == 3

    return [
        name,
        "yes" if engine.supports_batch_write else "no (OBM-write off)",
        "yes" if engine.supports_multiget else "no (concurrent gets)",
        format_qps(write_qps),
        format_qps(read_qps),
    ]


def main():
    rows = [run_flavor(name, factory) for name, factory in FLAVORS.items()]
    print("p2KVS over three different storage engines (same workload):")
    print(
        format_table(
            ["engine", "batch write", "multiget", "write QPS", "read QPS"],
            rows,
        )
    )
    print()
    print("The framework only needs open/submit/close from the engine;")
    print("OBM adapts to whatever batching the engine offers (Section 4.6).")


if __name__ == "__main__":
    main()
