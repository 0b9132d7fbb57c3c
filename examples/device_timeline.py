#!/usr/bin/env python
"""Render the paper's Figure 4 dynamics: IO bandwidth over time while one
user thread inserts continuously, split by category (WAL / flush /
compaction), as terminal sparklines.

Run:  python examples/device_timeline.py
"""

from repro.engine import LSMEngine, make_env, rocksdb_options
from repro.harness.timeline import render_stacked
from repro.systems import BENCH_SHAPE
from repro.workloads import fillrandom


def run_case(value_size: int, n_ops: int):
    env = make_env(n_cores=16, series_bin=0.002)
    box = []

    def opener():
        engine = yield from LSMEngine.open(env, "db", rocksdb_options(**BENCH_SHAPE))
        box.append(engine)

    env.sim.spawn(opener())
    env.sim.run()
    engine = box[0]
    ctx = env.cpu.new_thread("writer")

    def writer():
        for _verb, key, value in fillrandom(n_ops, value_size):
            yield from engine.put(ctx, key, value)

    env.sim.spawn(writer())
    env.sim.run()
    series = {
        label: env.device.bandwidth_series[label].rates()
        for label in ("wal", "flush", "compaction")
        if label in env.device.bandwidth_series
    }
    return env, series


def main():
    for label, value_size, n_ops in (("128-byte KVs", 112, 12000), ("1 KB KVs", 1008, 5000)):
        env, series = run_case(value_size, n_ops)
        print("%s — one continuously-inserting user thread" % label)
        print("  simulated duration: %.1f ms" % (env.sim.now * 1e3))
        print(render_stacked(series))
        busy = env.cpu.busy_by_kind
        print(
            "  user CPU %.0f%%   background CPU %.0f%%"
            % (
                100 * busy.get("user", 0) / env.sim.now,
                100 * busy.get("background", 0) / env.sim.now,
            )
        )
        print()
    print("128-byte writes barely touch the device (CPU-bound user thread);")
    print("1 KB writes hand the device over to periodic compaction bursts.")


if __name__ == "__main__":
    main()
