"""Tests for the engine admin APIs and KVell slab-scan recovery."""

import pytest

from repro.baselines import KVellLike
from repro.engine import LSMEngine, rocksdb_options
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


def value(i):
    return b"value%08d" % i


TINY = dict(
    write_buffer_size=2048,
    target_file_size=2048,
    max_bytes_for_level_base=8192,
    l0_compaction_trigger=2,
)


class TestEngineAdmin:
    def _open(self, env):
        return run_process(env, LSMEngine.open(env, "db", rocksdb_options(**TINY)))

    def test_manual_flush_empties_memtable(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(30):
                yield from engine.put(ctx, key(i), value(i))
            yield from engine.flush(ctx)

        run_process(env, work())
        assert engine.memtable.empty
        assert engine.immutables == []
        assert engine.counters.get("flushes") >= 1

    def test_flush_on_empty_memtable_is_noop(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")
        run_process(env, engine.flush(ctx))
        assert engine.counters.get("flushes") == 0

    def test_compact_all_quiesces_the_tree(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(1000):
                yield from engine.put(ctx, key(i % 300), value(i))
            yield from engine.compact_all(ctx)

        run_process(env, work())
        from repro.engine.compaction import pick_compaction

        assert pick_compaction(engine) is None
        l0 = len(engine.versions.current.levels[0])
        assert l0 < engine.options.l0_compaction_trigger

    def test_reads_correct_after_compact_all(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(600):
                yield from engine.put(ctx, key(i % 200), value(i))
            yield from engine.compact_all(ctx)
            return (yield from engine.get(ctx, key(150)))

        assert run_process(env, work()) == value(550)

    def test_describe_reports_tree_shape(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(500):
                yield from engine.put(ctx, key(i), value(i))

        run_process(env, work())
        info = engine.describe()
        assert info["name"] == "db"
        assert info["last_seq"] == 500
        assert sum(level["files"] for level in info["levels"]) > 0
        assert info["counters"]["write_requests"] == 500
        assert info["memory_bytes"] > 0


class TestKVellRecovery:
    def test_committed_data_survives_crash(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(100):
                yield from kvell.put(ctx, key(i), value(i))

        run_process(env, work())
        env.disk.crash()
        recovered = run_process(env, KVellLike.recover(env, n_workers=2))
        ctx2 = env.cpu.new_thread("u2")

        def check():
            out = []
            for i in (0, 50, 99):
                out.append((yield from recovered.get(ctx2, key(i))))
            return out

        assert run_process(env, check()) == [value(0), value(50), value(99)]

    def test_recovery_charges_slab_scan_io(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(100):
                yield from kvell.put(ctx, key(i), value(i))

        run_process(env, work())
        env.disk.crash()
        before = env.device.bytes_by_category().get("recovery", 0.0)
        run_process(env, KVellLike.recover(env, n_workers=2))
        assert env.device.bytes_by_category().get("recovery", 0.0) > before

    def test_deletes_respected_after_recovery(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvell.put(ctx, b"keep", b"1")
            yield from kvell.put(ctx, b"drop", b"2")
            yield from kvell.delete(ctx, b"drop")

        run_process(env, work())
        env.disk.crash()
        recovered = run_process(env, KVellLike.recover(env, n_workers=2))
        ctx2 = env.cpu.new_thread("u2")

        def check():
            a = yield from recovered.get(ctx2, b"keep")
            b = yield from recovered.get(ctx2, b"drop")
            return a, b

        assert run_process(env, check()) == (b"1", None)

    def test_writes_continue_after_recovery(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(50):
                yield from kvell.put(ctx, key(i), value(i))

        run_process(env, work())
        env.disk.crash()
        recovered = run_process(env, KVellLike.recover(env, n_workers=2))
        ctx2 = env.cpu.new_thread("u2")

        def more():
            yield from recovered.put(ctx2, key(0), b"post-crash")
            yield from recovered.put(ctx2, key(999), b"brand-new")
            a = yield from recovered.get(ctx2, key(0))
            b = yield from recovered.get(ctx2, key(999))
            return a, b

        assert run_process(env, more()) == (b"post-crash", b"brand-new")

    def test_recover_into_fewer_workers_rejected(self, env):
        kvell = KVellLike(env, n_workers=4)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(100):
                yield from kvell.put(ctx, key(i), value(i))

        run_process(env, work())
        env.disk.crash()
        with pytest.raises(ValueError):
            run_process(env, KVellLike.recover(env, n_workers=1))
