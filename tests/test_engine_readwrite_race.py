"""Concurrency-correctness tests: readers racing writers, flushes and
compactions must always see consistent MVCC state."""

import pytest

from repro.engine import LSMEngine, WriteBatch, rocksdb_options
from repro.engine.env import make_env
from tests.conftest import run_process

TINY = dict(
    write_buffer_size=2048,
    target_file_size=2048,
    max_bytes_for_level_base=8192,
    l0_compaction_trigger=2,
)


def key(i):
    return b"user%08d" % i


def open_engine(env):
    return run_process(env, LSMEngine.open(env, "db", rocksdb_options(**TINY)))


class TestReadersVsWriters:
    def test_reader_sees_monotonic_versions(self):
        """A key is updated with increasing version stamps; any concurrent
        reader must observe a non-decreasing sequence of stamps."""
        env = make_env(n_cores=8)
        engine = open_engine(env)
        writer_ctx = env.cpu.new_thread("writer")
        reader_ctx = env.cpu.new_thread("reader")
        seen = []

        def writer():
            for version in range(200):
                yield from engine.put(writer_ctx, b"hot", b"%06d" % version)
                # interleave other traffic to force flushes/compactions
                yield from engine.put(writer_ctx, key(version), b"x" * 64)

        def reader():
            for _ in range(150):
                value = yield from engine.get(reader_ctx, b"hot")
                if value is not None:
                    seen.append(int(value))
                yield env.sim.timeout(1e-6)

        env.sim.spawn(writer())
        env.sim.spawn(reader())
        env.sim.run()
        assert seen, "reader never observed the key"
        assert seen == sorted(seen), "versions went backwards"

    def test_batch_atomicity_under_concurrent_reads(self):
        """Readers must never observe half of a WriteBatch: the two keys are
        always equal when read inside one snapshot."""
        env = make_env(n_cores=8)
        engine = open_engine(env)
        writer_ctx = env.cpu.new_thread("writer")
        reader_ctx = env.cpu.new_thread("reader")
        anomalies = []

        def writer():
            for version in range(150):
                stamp = b"%06d" % version
                batch = WriteBatch().put(b"left", stamp).put(b"right", stamp)
                yield from engine.write(writer_ctx, batch)

        def reader():
            for _ in range(120):
                snap = engine.snapshot()
                left = yield from engine.get(reader_ctx, b"left", snapshot_seq=snap)
                right = yield from engine.get(reader_ctx, b"right", snapshot_seq=snap)
                engine.release_snapshot(snap)
                if left != right:
                    anomalies.append((left, right))
                yield env.sim.timeout(1e-6)

        env.sim.spawn(writer())
        env.sim.spawn(reader())
        env.sim.run()
        assert anomalies == []

    def test_scan_consistency_during_writes(self):
        """A snapshot scan running concurrently with writes returns exactly
        the keys visible at the snapshot."""
        env = make_env(n_cores=8)
        engine = open_engine(env)
        ctx = env.cpu.new_thread("u")

        def setup():
            for i in range(100):
                yield from engine.put(ctx, key(i), b"base")

        run_process(env, setup())
        snap = engine.snapshot()
        results = []
        writer_ctx = env.cpu.new_thread("w")
        reader_ctx = env.cpu.new_thread("r")

        def writer():
            for i in range(100, 250):
                yield from engine.put(writer_ctx, key(i), b"after")
            for i in range(0, 40):
                yield from engine.delete(writer_ctx, key(i))

        def scanner():
            yield env.sim.timeout(50e-6)  # land mid-write-storm
            pairs = yield from engine.scan(
                reader_ctx, key(0), 1000, snapshot_seq=snap
            )
            results.append(pairs)

        env.sim.spawn(writer())
        env.sim.spawn(scanner())
        env.sim.run()
        engine.release_snapshot(snap)
        pairs = results[0]
        assert [k for k, _ in pairs] == [key(i) for i in range(100)]
        assert all(v == b"base" for _, v in pairs)

    def test_cold_scans_racing_inserts_see_their_snapshot(self):
        """Every block load suspends the scan (no block cache, 1-byte page
        cache) while a writer inserts keys *below* the memtable cursor's
        position, shifting the arrays under it; each scan must still return
        exactly the keys visible at its snapshot — the active memtable's last
        entry included."""
        env = make_env(n_cores=8, page_cache_bytes=1)
        options = rocksdb_options(**dict(TINY, block_cache_bytes=0, block_size=128))
        engine = run_process(env, LSMEngine.open(env, "db", options))
        ctx = env.cpu.new_thread("u")

        def setup():
            for i in range(100, 400):  # mostly on disk, the tail in memtable
                yield from engine.put(ctx, key(i), b"base")

        run_process(env, setup())
        assert not engine.memtable.empty
        writer_ctx = env.cpu.new_thread("w")
        reader_ctx = env.cpu.new_thread("r")
        wrong = []

        def writer():
            for i in range(99, 39, -1):
                yield from engine.put(writer_ctx, key(i), b"racing")

        def scanner():
            for _ in range(6):
                snap = engine.snapshot()
                pairs = yield from engine.scan(
                    reader_ctx, key(0), 1000, snapshot_seq=snap
                )
                engine.release_snapshot(snap)
                got = [k for k, _ in pairs]
                raced = [k for k in got if k < key(100)]
                if got[len(raced):] != [key(i) for i in range(100, 400)]:
                    wrong.append(got)
                if raced != sorted(set(raced)):
                    wrong.append(raced)

        env.sim.spawn(writer())
        env.sim.spawn(scanner())
        env.sim.run()
        assert wrong == []
        assert env.device.io_count().get("read", 0.0) > 100  # the scans did suspend

    def test_many_concurrent_writers_never_lose_a_write(self):
        env = make_env(n_cores=16)
        engine = open_engine(env)
        n_threads, per_thread = 8, 60

        def writer(tid):
            ctx = env.cpu.new_thread("w%d" % tid)
            for i in range(per_thread):
                yield from engine.put(ctx, key(tid * 1000 + i), b"t%d" % tid)

        for tid in range(n_threads):
            env.sim.spawn(writer(tid))
        env.sim.run()
        ctx = env.cpu.new_thread("checker")

        def check():
            missing = 0
            for tid in range(n_threads):
                for i in range(per_thread):
                    got = yield from engine.get(ctx, key(tid * 1000 + i))
                    if got != b"t%d" % tid:
                        missing += 1
            return missing

        assert run_process(env, check()) == 0

    def test_seqno_unique_and_dense_under_concurrency(self):
        env = make_env(n_cores=8)
        engine = open_engine(env)

        def writer(tid):
            ctx = env.cpu.new_thread("w%d" % tid)
            for i in range(50):
                yield from engine.put(ctx, key(tid * 100 + i), b"v")

        for tid in range(4):
            env.sim.spawn(writer(tid))
        env.sim.run()
        assert engine.seq == 200  # no gaps, no duplicates
