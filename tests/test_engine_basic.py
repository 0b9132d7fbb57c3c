"""Functional tests of the LSM engine: point ops, batches, scans, MVCC."""

import pytest

from repro.engine import LSMEngine, WriteBatch, rocksdb_options, leveldb_options
from repro.storage import bloom
from repro.storage.bloom import BloomFilter
from tests.conftest import run_process


def key(i):
    return b"key%08d" % i


def value(i):
    return b"value%08d" % i


def open_engine(env, name="db", options=None):
    return run_process(env, LSMEngine.open(env, name, options))


def user(env, name="user"):
    return env.cpu.new_thread(name)


class TestPointOps:
    def test_put_then_get(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"hello", b"world")
            return (yield from engine.get(ctx, b"hello"))

        assert run_process(env, work()) == b"world"

    def test_get_missing_returns_none(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            return (yield from engine.get(ctx, b"nope"))

        assert run_process(env, work()) is None

    def test_overwrite(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"k", b"v1")
            yield from engine.put(ctx, b"k", b"v2")
            return (yield from engine.get(ctx, b"k"))

        assert run_process(env, work()) == b"v2"

    def test_delete(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"k", b"v")
            yield from engine.delete(ctx, b"k")
            return (yield from engine.get(ctx, b"k"))

        assert run_process(env, work()) is None

    def test_time_advances_with_writes(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            for i in range(100):
                yield from engine.put(ctx, key(i), value(i))

        run_process(env, work())
        # 100 writes at ~5 us each should land in the 0.1 ms - 10 ms range.
        assert 1e-4 < env.sim.now < 1e-2


class TestWriteBatch:
    def test_batch_applies_atomically(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            batch = WriteBatch()
            for i in range(10):
                batch.put(key(i), value(i))
            batch.delete(key(5))
            yield from engine.write(ctx, batch)
            out = []
            for i in range(10):
                out.append((yield from engine.get(ctx, key(i))))
            return out

        out = run_process(env, work())
        assert out[5] is None
        assert out[3] == value(3)

    def test_batch_roundtrip_encoding(self):
        batch = WriteBatch().put(b"a", b"1").delete(b"b").put(b"c", b"3")
        decoded = WriteBatch.decode(batch.encode())
        assert list(decoded) == list(batch)

    def test_empty_batch_is_noop(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.write(ctx, WriteBatch())

        run_process(env, work())
        assert engine.counters.get("write_requests") == 0


class TestMultiGet:
    def test_multiget_returns_in_order(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            for i in range(20):
                yield from engine.put(ctx, key(i), value(i))
            statuses = yield from engine.multiget_status(
                ctx, [key(3), b"missing", key(7)]
            )
            return [status.value_or(None) for status in statuses]

        assert run_process(env, work()) == [value(3), None, value(7)]

    def test_multiget_duplicate_keys(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"k", b"v")
            statuses = yield from engine.multiget_status(ctx, [b"k", b"k"])
            return [status.value_or(None) for status in statuses]

        assert run_process(env, work()) == [b"v", b"v"]


class TestFlushAndCompaction:
    def test_writes_trigger_flush_to_l0(self, env):
        options = rocksdb_options(write_buffer_size=4096)
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            for i in range(500):
                yield from engine.put(ctx, key(i), value(i))

        run_process(env, work())
        assert engine.counters.get("flushes") > 0
        assert env.device.bytes_by_category().get("flush", 0.0) > 0

    def test_data_survives_flush(self, env):
        options = rocksdb_options(write_buffer_size=4096)
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            for i in range(500):
                yield from engine.put(ctx, key(i), value(i))
            out = []
            for i in (0, 123, 499):
                out.append((yield from engine.get(ctx, key(i))))
            return out

        assert run_process(env, work()) == [value(0), value(123), value(499)]

    def test_compaction_happens_under_load(self, env):
        options = rocksdb_options(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=8192,
            l0_compaction_trigger=2,
        )
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            for i in range(2000):
                yield from engine.put(ctx, key(i % 700), value(i))

        run_process(env, work())
        assert engine.counters.get("compactions") > 0
        assert env.device.bytes_by_category().get("compaction", 0.0) > 0

    def test_reads_correct_after_compaction(self, env):
        options = rocksdb_options(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=8192,
            l0_compaction_trigger=2,
        )
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            for round_no in range(3):
                for i in range(400):
                    yield from engine.put(ctx, key(i), b"round%d-%d" % (round_no, i))
            out = []
            for i in (0, 57, 399):
                out.append((yield from engine.get(ctx, key(i))))
            return out

        out = run_process(env, work())
        assert out == [b"round2-0", b"round2-57", b"round2-399"]

    def test_deleted_keys_stay_deleted_through_compaction(self, env):
        options = rocksdb_options(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=8192,
            l0_compaction_trigger=2,
        )
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            for i in range(300):
                yield from engine.put(ctx, key(i), value(i))
            for i in range(0, 300, 2):
                yield from engine.delete(ctx, key(i))
            # More churn to force flush/compaction of the tombstones.
            for i in range(300, 600):
                yield from engine.put(ctx, key(i), value(i))
            out = []
            for i in (0, 2, 1, 3, 299):
                out.append((yield from engine.get(ctx, key(i))))
            return out

        out = run_process(env, work())
        assert out[0] is None and out[1] is None
        assert out[2] == value(1) and out[3] == value(3) and out[4] == value(299)


class TestScans:
    def test_scan_returns_sorted_pairs(self, env):
        engine = open_engine(env, options=rocksdb_options(write_buffer_size=4096))
        ctx = user(env)

        def work():
            for i in range(200):
                yield from engine.put(ctx, key(i), value(i))
            return (yield from engine.scan(ctx, key(50), 10))

        pairs = run_process(env, work())
        assert pairs == [(key(i), value(i)) for i in range(50, 60)]

    def test_scan_skips_deleted(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            for i in range(20):
                yield from engine.put(ctx, key(i), value(i))
            yield from engine.delete(ctx, key(5))
            return (yield from engine.scan(ctx, key(4), 3))

        pairs = run_process(env, work())
        assert pairs == [(key(4), value(4)), (key(6), value(6)), (key(7), value(7))]

    def test_scan_sees_newest_version(self, env):
        engine = open_engine(env, options=rocksdb_options(write_buffer_size=2048))
        ctx = user(env)

        def work():
            for i in range(100):
                yield from engine.put(ctx, key(i), b"old")
            for i in range(100):
                yield from engine.put(ctx, key(i), b"new")
            return (yield from engine.scan(ctx, key(0), 5))

        pairs = run_process(env, work())
        assert all(v == b"new" for _, v in pairs)

    def test_range_query_bounds_inclusive(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            for i in range(30):
                yield from engine.put(ctx, key(i), value(i))
            return (yield from engine.range_query(ctx, key(10), key(12)))

        pairs = run_process(env, work())
        assert [k for k, _ in pairs] == [key(10), key(11), key(12)]

    def test_scan_past_end(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"a", b"1")
            return (yield from engine.scan(ctx, b"z", 5))

        assert run_process(env, work()) == []


class TestSnapshots:
    def test_snapshot_isolates_reads(self, env):
        engine = open_engine(env)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"k", b"v1")
            snap = engine.snapshot()
            yield from engine.put(ctx, b"k", b"v2")
            at_snap = yield from engine.get(ctx, b"k", snapshot_seq=snap)
            latest = yield from engine.get(ctx, b"k")
            engine.release_snapshot(snap)
            return at_snap, latest

        assert run_process(env, work()) == (b"v1", b"v2")

    def test_snapshot_survives_flush_and_compaction(self, env):
        options = rocksdb_options(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=8192,
            l0_compaction_trigger=2,
        )
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            yield from engine.put(ctx, b"pinned", b"v1")
            snap = engine.snapshot()
            for i in range(1000):
                yield from engine.put(ctx, key(i % 100), value(i))
            yield from engine.put(ctx, b"pinned", b"v2")
            for i in range(1000):
                yield from engine.put(ctx, key(i % 100), value(i))
            at_snap = yield from engine.get(ctx, b"pinned", snapshot_seq=snap)
            latest = yield from engine.get(ctx, b"pinned")
            engine.release_snapshot(snap)
            return at_snap, latest

        assert run_process(env, work()) == (b"v1", b"v2")


class TestLevelDBPreset:
    def test_leveldb_options_work_end_to_end(self, env):
        engine = open_engine(env, options=leveldb_options(write_buffer_size=4096))
        ctx = user(env)

        def work():
            for i in range(300):
                yield from engine.put(ctx, key(i), value(i))
            return (yield from engine.get(ctx, key(250)))

        assert run_process(env, work()) == value(250)


class TestTableFilters:
    """A table's bloom filter is built at its first probe, sized beforehand
    from the table's distinct-key count, and probed with one hash a lookup."""

    def test_fill_builds_no_filter_and_sizes_are_the_eager_ones(self, env):
        options = rocksdb_options(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=8192,
            l0_compaction_trigger=2,
        )
        engine = open_engine(env, options=options)
        ctx = user(env)

        def work():
            for i in range(2000):
                yield from engine.put(ctx, key(i % 700), value(i))

        run_process(env, work())
        assert engine.counters.get("compactions") > 0
        version = engine.versions.current
        tables = [
            table
            for level in range(len(version.levels))
            for table in version.levels[level]
        ]
        assert tables and all(table._bloom is None for table in tables)
        # memory_bytes() as it was when every table held a built filter.
        eager = engine.memtable.approximate_size + engine.block_cache.used_bytes
        eager += sum(mt.approximate_size for mt, _ in engine.immutables)
        for table in tables:
            keys = {e[0] for block in table.blocks for e in block.entries}
            eager += len(BloomFilter.from_keys(keys)._bits) + 24 * len(table.blocks)
        assert engine.memory_bytes() == eager

    def test_a_lookup_across_overlapping_l0_files_hashes_once(self, env, monkeypatch):
        options = rocksdb_options(
            write_buffer_size=2048,
            l0_compaction_trigger=100,
            l0_slowdown_trigger=100,
            l0_stop_trigger=100,
        )
        engine = open_engine(env, options=options)
        ctx = user(env)

        def fill():
            # Round r writes keys r, r+5, r+10, ...: every flush spans the range.
            for r in range(5):
                for i in range(0, 300, 5):
                    yield from engine.put(ctx, key(i + r), value(i + r))
            yield from engine.flush(ctx)

        run_process(env, fill())
        l0 = engine.versions.current.levels[0]
        assert len(l0) >= 3 and all(m.smallest <= key(150) <= m.largest for m in l0)
        calls = []
        real = bloom.fnv1a
        monkeypatch.setattr(bloom, "fnv1a", lambda data: calls.append(data) or real(data))
        # key(150) is in the oldest file only: every L0 filter is probed.
        assert run_process(env, engine.get(ctx, key(150))) == value(150)
        assert calls == [key(150)]
        assert all(m._bloom is not None for m in l0)
