"""Functional tests for the p2KVS framework: routing, OBM, ranges, async."""

import collections
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import P2KVS, HashRouter, RangeRouter, adapter_factory
from repro.core.range_query import merge_sorted_results
from repro.core.router import ROUTE_CACHE_MAX
from repro.engine import WriteBatch
from repro.engine.env import make_env
from repro.storage.bloom import fnv1a
from tests.conftest import run_process


def key(i):
    return b"user%012d" % i


def value(i):
    return b"value%08d" % i


def open_p2kvs(env, **kwargs):
    kwargs.setdefault("n_workers", 4)
    return run_process(env, P2KVS.open(env, **kwargs))


class TestRouter:
    def test_hash_router_is_deterministic_and_in_range(self):
        router = HashRouter(8)
        for i in range(1000):
            w = router.route(key(i))
            assert 0 <= w < 8
            assert router.route(key(i)) == w

    def test_hash_router_balances_uniform_keys(self):
        router = HashRouter(8)
        tally = collections.Counter(router.route(key(i)) for i in range(8000))
        counts = [tally[w] for w in range(8)]
        assert min(counts) > 0.7 * (8000 / 8)
        assert max(counts) < 1.3 * (8000 / 8)

    def test_hash_router_memo_is_bounded(self):
        """A stream of distinct keys longer than the bound (a fill) routes as
        the bare hash does and never holds more than the bound."""
        router = HashRouter(8)
        peak = 0
        for i in range(2 * ROUTE_CACHE_MAX + 10):
            assert router.route(key(i)) == fnv1a(key(i)) % 8
            peak = max(peak, len(router._route_cache))
        assert peak == ROUTE_CACHE_MAX
        assert router.route(key(3)) == fnv1a(key(3)) % 8  # re-memoised after a clear

    def test_hash_router_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            HashRouter(0)

    def test_range_router(self):
        router = RangeRouter([b"g", b"p"])
        assert router.route(b"apple") == 0
        assert router.route(b"grape") == 1
        assert router.route(b"zebra") == 2

    def test_range_router_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RangeRouter([b"p", b"g"])


class TestBasicOps:
    def test_put_get_roundtrip(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(50):
                yield from kvs.put(ctx, key(i), value(i))
            out = []
            for i in range(50):
                out.append((yield from kvs.get(ctx, key(i))))
            return out

        assert run_process(env, work()) == [value(i) for i in range(50)]

    def test_delete(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvs.put(ctx, b"k", b"v")
            yield from kvs.delete(ctx, b"k")
            return (yield from kvs.get(ctx, b"k"))

        assert run_process(env, work()) is None

    def test_get_missing(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")

        def work():
            return (yield from kvs.get(ctx, b"missing"))

        assert run_process(env, work()) is None

    def test_keys_distributed_across_instances(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(200):
                yield from kvs.put(ctx, key(i), value(i))

        run_process(env, work())
        per_instance = [
            e.counters.get("records_written") for e in kvs.engines
        ]
        assert all(count > 0 for count in per_instance)
        assert sum(per_instance) == 200

    def test_put_async_with_callback(self, env):
        kvs = open_p2kvs(env)
        ctx = env.cpu.new_thread("u")
        completions = []

        def work():
            for i in range(10):
                yield from kvs.put_async(
                    ctx, key(i), value(i), callback=completions.append
                )
            # async: returns before completion; run() drains the workers

        run_process(env, work())
        env.sim.run()
        assert len(completions) == 10


class TestOBM:
    def test_obm_merges_concurrent_writes(self, env):
        kvs = open_p2kvs(env, n_workers=2)
        procs = []

        def writer(tid):
            ctx = env.cpu.new_thread("u%d" % tid)
            for i in range(50):
                yield from kvs.put(ctx, key(tid * 1000 + i), value(i))

        for t in range(8):
            procs.append(env.sim.spawn(writer(t)))
        env.sim.run()
        stats = kvs.obm_stats()
        assert stats["requests"] == 400
        assert stats["avg_batch"] > 1.2  # batching actually happened

    def test_obm_disabled_never_batches(self, env):
        kvs = open_p2kvs(env, n_workers=2, obm=False)

        def writer(tid):
            ctx = env.cpu.new_thread("u%d" % tid)
            for i in range(25):
                yield from kvs.put(ctx, key(tid * 1000 + i), value(i))

        for t in range(4):
            env.sim.spawn(writer(t))
        env.sim.run()
        stats = kvs.obm_stats()
        assert stats["avg_batch"] == 1.0

    def test_obm_cap_respected(self, env):
        kvs = open_p2kvs(env, n_workers=1, obm_cap=4)
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(64):
                yield from kvs.put_async(ctx, key(i), value(i))

        run_process(env, work())
        env.sim.run()
        worker = kvs.workers[0]
        assert worker.batch_sizes.max <= 4

    def test_obm_does_not_merge_across_classes(self, env):
        """A GET between PUTs bounds the write batch (order preserved)."""
        kvs = open_p2kvs(env, n_workers=1)
        worker = kvs.workers[0]
        ctx = env.cpu.new_thread("u")
        results = []

        def work():
            # Enqueue PUT, PUT, GET, PUT without letting the worker drain.
            yield from kvs.put_async(ctx, b"a", b"1")
            yield from kvs.put_async(ctx, b"b", b"2")
            request_get = yield from self_get_async(kvs, ctx, b"a", results)
            yield from kvs.put_async(ctx, b"a", b"3")

        def self_get_async(kvs, ctx, k, sink):
            from repro.core.requests import OP_GET, Request

            request = Request(OP_GET, key=k, callback=sink.append)
            yield from kvs._submit_async(ctx, request, kvs.router.route(k))
            return request

        run_process(env, work())
        env.sim.run()
        # The GET must observe b"1" (submitted before the second PUT of "a").
        # Callbacks receive the uniform KVStatus.
        assert [status.value for status in results] == [b"1"]


class TestRangeQueries:
    def _load(self, env, kvs, n=200):
        ctx = env.cpu.new_thread("loader")

        def work():
            for i in range(n):
                yield from kvs.put(ctx, key(i), value(i))

        run_process(env, work())

    def test_range_query_merges_across_instances(self, env):
        kvs = open_p2kvs(env)
        self._load(env, kvs)
        ctx = env.cpu.new_thread("u")

        def work():
            return (yield from kvs.range_query(ctx, key(10), key(19)))

        pairs = run_process(env, work())
        assert pairs == [(key(i), value(i)) for i in range(10, 20)]

    def test_scan_parallel_strategy(self, env):
        kvs = open_p2kvs(env, scan_strategy="parallel")
        self._load(env, kvs)
        ctx = env.cpu.new_thread("u")

        def work():
            return (yield from kvs.scan(ctx, key(50), 20))

        pairs = run_process(env, work())
        assert pairs == [(key(i), value(i)) for i in range(50, 70)]

    def test_scan_serial_strategy(self, env):
        kvs = open_p2kvs(env, scan_strategy="serial")
        self._load(env, kvs)
        ctx = env.cpu.new_thread("u")

        def work():
            return (yield from kvs.scan(ctx, key(50), 20))

        pairs = run_process(env, work())
        assert pairs == [(key(i), value(i)) for i in range(50, 70)]

    def test_scan_beyond_data_returns_short(self, env):
        kvs = open_p2kvs(env)
        self._load(env, kvs, n=10)
        ctx = env.cpu.new_thread("u")

        def work():
            return (yield from kvs.scan(ctx, key(5), 100))

        pairs = run_process(env, work())
        assert pairs == [(key(i), value(i)) for i in range(5, 10)]

    @given(
        lengths=st.lists(st.integers(0, 12), min_size=1, max_size=8),
        shuffle=st.randoms(use_true_random=False),
        limit=st.none() | st.integers(0, 100),
        entries=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    # one list holds the answer
    @example(lengths=[4, 4], shuffle=None, limit=4, entries=True)
    def test_merge_sorts_only_what_it_returns_but_returns_the_same(
        self, lengths, shuffle, limit, entries
    ):
        """1-8 disjoint sorted lists of uneven length (empty ones, ones shorter
        than ceil(limit / k), limits from 0 to past everything) against the
        sort of the whole concatenation.  The lists hold rows: pairs, or LSM
        entries ``(key, seq, vtype, value)``; the merge returns pairs."""
        owners = [i for i, n in enumerate(lengths) for _ in range(n)]
        if shuffle is not None:
            shuffle.shuffle(owners)
        results = [[] for _ in lengths]
        pairs = []
        for k, owner in enumerate(owners):
            pairs.append((key(k), value(k)))
            results[owner].append(
                (key(k), 100 - k, 1, value(k)) if entries else pairs[-1]
            )
        before = [list(rows) for rows in results]
        expected = sorted(pairs)
        merged = merge_sorted_results(results, limit)
        assert merged == (expected if limit is None else expected[:limit])
        assert all(type(pair) is tuple and len(pair) == 2 for pair in merged)
        assert results == before  # the callers' lists are not cut in place

    def test_parallel_and_serial_strategies_agree_on_a_churned_dataset(self):
        """p2KVS-8 over small memtables (flushes and compactions under the
        scans), keys overwritten and deleted: both SCAN strategies and RANGE
        return the pairs a dict model predicts."""
        answers = []
        for strategy in ("parallel", "serial"):
            env = make_env(n_cores=16)
            kvs = open_p2kvs(
                env, n_workers=8, scan_strategy=strategy,
                adapter_open=adapter_factory("rocksdb", write_buffer_size=768),
            )
            ctx = env.cpu.new_thread("u")

            def work():
                for i in range(400):
                    yield from kvs.put(ctx, key(i), value(i))
                for i in range(0, 400, 3):
                    yield from kvs.put(ctx, key(i), value(i + 1000))
                for i in range(0, 400, 7):
                    yield from kvs.delete(ctx, key(i))
                scans = []
                for begin, count in ((0, 50), (120, 1), (203, 64), (390, 50)):
                    scans.append((yield from kvs.scan(ctx, key(begin), count)))
                scans.append((yield from kvs.range_query(ctx, key(40), key(95))))
                return scans

            answers.append(run_process(env, work()))
        live = [
            (key(i), value(i + 1000 if i % 3 == 0 else i))
            for i in range(400) if i % 7
        ]

        def from_key(begin):
            return [pair for pair in live if pair[0] >= key(begin)]

        assert answers[0] == answers[1] == [
            from_key(0)[:50], from_key(120)[:1], from_key(203)[:64],
            from_key(390)[:50],
            [pair for pair in from_key(40) if pair[0] <= key(95)],
        ]


class TestLevelDBFlavor:
    def test_p2kvs_on_leveldb_adapter(self, env):
        kvs = open_p2kvs(env, adapter_open=adapter_factory("leveldb"))
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(50):
                yield from kvs.put(ctx, key(i), value(i))
            return (yield from kvs.get(ctx, key(25)))

        assert run_process(env, work()) == value(25)
