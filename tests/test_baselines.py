"""Functional tests for the PebblesDB, KVell and WiredTiger baselines."""

import pytest

from repro.baselines import KVellLike, WiredTigerLike, wiredtiger_adapter_factory
from repro.core import P2KVS
from repro.engine import LSMEngine, pebblesdb_options
from repro.engine.env import make_env
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


def value(i):
    return b"value%08d" % i


class TestPebblesDB:
    def _open(self, env, **overrides):
        options = pebblesdb_options(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=8192,
            l0_compaction_trigger=2,
            **overrides,
        )
        return run_process(env, LSMEngine.open(env, "pebbles", options))

    def test_flsm_round_trip_under_compaction(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(1500):
                yield from engine.put(ctx, key(i % 500), value(i))
            out = []
            for i in (0, 250, 499):
                out.append((yield from engine.get(ctx, key(i))))
            return out

        out = run_process(env, work())
        assert out == [value(1000), value(1250), value(1499)]
        assert engine.counters.get("compactions") > 0

    def test_flsm_levels_hold_overlapping_runs(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(2000):
                yield from engine.put(ctx, key(i % 600), value(i))

        run_process(env, work())
        version = engine.versions.current
        # Some level beyond L0 accumulated more than one (overlapping) run.
        multi_run_levels = [
            level
            for level in range(1, len(version.levels))
            if len(version.levels[level]) > 1
        ]
        assert multi_run_levels, version.levels

    def test_flsm_has_lower_write_amp_than_leveled(self):
        """The reason PebblesDB exists (paper Fig 12b).

        Uses mostly-unique keys like the paper's random-load workload:
        heavy overwrites would instead favor leveled compaction's eager
        dedup, which is not the regime PebblesDB targets.
        """
        import random

        from repro.engine import rocksdb_options

        def write_amp(options):
            env = make_env(n_cores=8)
            engine = run_process(env, LSMEngine.open(env, "db", options))
            ctx = env.cpu.new_thread("u")

            def work():
                ids = list(range(6000))
                random.Random(1).shuffle(ids)
                for i in ids:
                    yield from engine.put(ctx, key(i), b"v" * 100)

            run_process(env, work())
            user = engine.counters.get("user_bytes_written")
            device = env.device.bytes_by_kind().get("write", 0.0)
            return device / user

        shape = dict(
            write_buffer_size=2048,
            target_file_size=2048,
            max_bytes_for_level_base=4096,
            l0_compaction_trigger=2,
        )
        wa_leveled = write_amp(rocksdb_options(**shape))
        wa_flsm = write_amp(pebblesdb_options(**shape))
        assert wa_flsm < wa_leveled

    def test_scan_correct_over_overlapping_runs(self, env):
        engine = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(1200):
                yield from engine.put(ctx, key(i % 400), value(i))
            return (yield from engine.scan(ctx, key(10), 5))

        pairs = run_process(env, work())
        assert [k for k, _ in pairs] == [key(i) for i in range(10, 15)]
        # Values must be the newest version of each key.
        assert pairs[0][1] == value(810)


class TestKVell:
    def test_put_get(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(100):
                yield from kvell.put(ctx, key(i), value(i))
            out = []
            for i in (0, 50, 99):
                out.append((yield from kvell.get(ctx, key(i))))
            return out

        assert run_process(env, work()) == [value(0), value(50), value(99)]

    def test_get_missing(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            return (yield from kvell.get(ctx, b"nope"))

        assert run_process(env, work()) is None

    def test_delete(self, env):
        kvell = KVellLike(env, n_workers=2)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvell.put(ctx, b"k", b"v")
            yield from kvell.delete(ctx, b"k")
            return (yield from kvell.get(ctx, b"k"))

        assert run_process(env, work()) is None

    def test_scan_merges_partitions_sorted(self, env):
        kvell = KVellLike(env, n_workers=4)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(200):
                yield from kvell.put(ctx, key(i), value(i))
            return (yield from kvell.scan(ctx, key(20), 10))

        pairs = run_process(env, work())
        assert pairs == [(key(i), value(i)) for i in range(20, 30)]

    def test_inserts_coalesce_into_pages(self, env):
        """Concurrent inserts fill the open slab page and share page IOs."""
        kvell = KVellLike(env, n_workers=1)

        def writer(tid):
            ctx = env.cpu.new_thread("u%d" % tid)
            for i in range(40):
                yield from kvell.put(ctx, key(tid * 1000 + i), b"v" * 100)

        for tid in range(8):
            env.sim.spawn(writer(tid))
        env.sim.run()
        page_writes = env.device.io_count().get("write", 0.0)
        assert page_writes < 320  # 320 items coalesced into fewer page IOs

    def test_index_memory_dominates(self, env):
        kvell = KVellLike(env, n_workers=2, page_cache_bytes=64 * 1024)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(2000):
                yield from kvell.put(ctx, key(i), b"v" * 100)

        run_process(env, work())
        assert kvell.index_memory_bytes() > kvell.page_cache.used_bytes


class TestWiredTiger:
    def _open(self, env, name="wt"):
        return run_process(env, WiredTigerLike.open(env, name))

    def test_put_get_delete(self, env):
        wt = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from wt.put(ctx, b"k", b"v")
            got = yield from wt.get(ctx, b"k")
            yield from wt.delete(ctx, b"k")
            gone = yield from wt.get(ctx, b"k")
            return got, gone

        assert run_process(env, work()) == (b"v", None)

    def test_scan_and_range(self, env):
        wt = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(100):
                yield from wt.put(ctx, key(i), value(i))
            s = yield from wt.scan(ctx, key(10), 5)
            r = yield from wt.range_query(ctx, key(20), key(22))
            return s, r

        s, r = run_process(env, work())
        assert s == [(key(i), value(i)) for i in range(10, 15)]
        assert r == [(key(i), value(i)) for i in range(20, 23)]

    def test_recovery_from_wal(self, env):
        wt = self._open(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(50):
                yield from wt.put(ctx, key(i), value(i))
            yield from wt.close()

        run_process(env, work())
        env.disk.crash()
        wt2 = self._open(env)
        ctx2 = env.cpu.new_thread("u2")

        def check():
            return (yield from wt2.get(ctx2, key(49)))

        assert run_process(env, check()) == value(49)

    def test_recovery_from_checkpoint_plus_wal(self, env):
        wt = run_process(env, WiredTigerLike.open(env, "wt"))
        wt.checkpoint_bytes = 2048  # force checkpoints
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(200):
                yield from wt.put(ctx, key(i), value(i))
            yield from wt.close()

        run_process(env, work())
        assert wt.counters.get("checkpoints") > 0
        env.disk.crash()
        wt2 = run_process(env, WiredTigerLike.open(env, "wt"))
        ctx2 = env.cpu.new_thread("u2")

        def check():
            out = []
            for i in (0, 100, 199):
                out.append((yield from wt2.get(ctx2, key(i))))
            return out

        assert run_process(env, check()) == [value(0), value(100), value(199)]

    def test_p2kvs_on_wiredtiger(self, env):
        kvs = run_process(
            env,
            P2KVS.open(env, n_workers=4, adapter_open=wiredtiger_adapter_factory()),
        )
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(100):
                yield from kvs.put(ctx, key(i), value(i))
            got = yield from kvs.get(ctx, key(42))
            pairs = yield from kvs.range_query(ctx, key(10), key(12))
            return got, pairs

        got, pairs = run_process(env, work())
        assert got == value(42)
        assert [k for k, _ in pairs] == [key(10), key(11), key(12)]
