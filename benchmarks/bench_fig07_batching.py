"""Figure 7: effect of the write-request batching mechanism on the WAL.

The paper batches several 128-byte KVs into WriteBatches of 256 B..16 KB
(async logging enabled) and shows bandwidth rising and CPU-per-byte falling
with batch size: request-level batching improves both IO efficiency and
software overhead.
"""

from benchmarks.common import assert_shapes, open_case, once, report
from repro.engine import WriteBatch, make_env
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import make_key, make_value

#: records per WriteBatch: ~256 B .. ~16 KB of user payload at 128 B/record.
BATCH_SIZES = [1, 2, 4, 8, 32, 128]
TOTAL_RECORDS = 12000


def run_batch_size(records_per_batch: int):
    # Registry-built, hand-driven: the probe submits WriteBatches of a chosen
    # size to the engine directly, below the System verbs run_case drives.
    # WAL stage only, as in the paper's probe (no memtable/indexing).
    system, env = open_case(
        "rocksdb", env=make_env(n_cores=8), engine={"enable_memtable": False}
    )
    engine = system.engine
    ctx = env.cpu.new_thread("writer")
    n_batches = TOTAL_RECORDS // records_per_batch

    def writer():
        i = 0
        for _ in range(n_batches):
            batch = WriteBatch()
            for _ in range(records_per_batch):
                batch.put(make_key(i), make_value(i, 112))
                i += 1
            yield from engine.write(ctx, batch)

    env.sim.spawn(writer())
    env.sim.run()
    elapsed = env.sim.now
    wal_bytes = env.device.bytes_by_category.get("wal")
    return {
        "bandwidth": wal_bytes / elapsed,
        "cpu_per_record": ctx.busy_time / (n_batches * records_per_batch),
        "qps": (n_batches * records_per_batch) / elapsed,
    }


def run_fig07():
    return {k: run_batch_size(k) for k in BATCH_SIZES}


def test_fig07_write_batching(benchmark):
    out = once(benchmark, run_fig07)
    rows = [
        [
            k,
            "%d B" % (k * 128),
            "%.1f MB/s" % (r["bandwidth"] / 1e6),
            "%.2f us" % (r["cpu_per_record"] * 1e6),
            "%.0f KQPS" % (r["qps"] / 1e3),
        ]
        for k, r in out.items()
    ]
    report(
        "fig07",
        "Figure 7: WriteBatch size vs WAL bandwidth and CPU\n"
        + format_table(
            ["records/batch", "batch size", "WAL bandwidth", "CPU us/record", "records/s"],
            rows,
        ),
    )
    bw_gain = out[128]["bandwidth"] / out[1]["bandwidth"]
    cpu_drop = out[1]["cpu_per_record"] / out[128]["cpu_per_record"]
    assert_shapes(
        "fig07",
        [
            ShapeCheck("batching raises WAL bandwidth", ">2x", bw_gain, 2.0),
            ShapeCheck("batching cuts CPU per record", ">1.5x", cpu_drop, 1.5),
            ShapeCheck(
                "bandwidth grows monotonically with batch size",
                "monotone",
                float(
                    all(
                        out[BATCH_SIZES[i]]["bandwidth"]
                        <= out[BATCH_SIZES[i + 1]]["bandwidth"] * 1.05
                        for i in range(len(BATCH_SIZES) - 1)
                    )
                ),
                1.0,
                1.0,
            ),
        ],
    )
