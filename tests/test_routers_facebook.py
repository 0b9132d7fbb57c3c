"""Tests for the PrefixRouter and the Facebook mixed-size workload."""

import pytest

from repro.core import P2KVS, PrefixRouter
from repro.engine import make_env
from repro.workloads import FacebookValueSizes, facebook_mixed_workload, make_key
from tests.conftest import run_process


class TestPrefixRouter:
    def test_routes_known_columns(self):
        router = PrefixRouter({b"users": 0, b"posts": 1}, n_workers=4)
        assert router.route(b"users:42") == 0
        assert router.route(b"posts:7") == 1

    def test_unknown_prefix_falls_back_to_spare_workers(self):
        router = PrefixRouter({b"users": 0, b"posts": 1}, n_workers=4)
        for key in (b"misc:1", b"misc:2", b"noseparator"):
            assert router.route(key) in (2, 3)

    def test_fallback_is_deterministic(self):
        router = PrefixRouter({b"a": 0}, n_workers=3)
        assert router.route(b"x:1") == router.route(b"x:1")

    def test_all_workers_mapped_fallback_uses_all(self):
        router = PrefixRouter({b"a": 0, b"b": 1}, n_workers=2)
        assert router.route(b"other:9") in (0, 1)

    def test_column_of(self):
        router = PrefixRouter({b"a": 0}, n_workers=2)
        assert router.column_of(b"users:42") == b"users"
        assert router.column_of(b"plainkey") == b""

    def test_rejects_bad_mapping(self):
        with pytest.raises(ValueError):
            PrefixRouter({}, n_workers=2)
        with pytest.raises(ValueError):
            PrefixRouter({b"a": 5}, n_workers=2)

    def test_histogram(self):
        router = PrefixRouter({b"hot": 0}, n_workers=3)
        counts = router.histogram([b"hot:%d" % i for i in range(10)])
        assert counts[0] == 10

    def test_p2kvs_with_prefix_router_end_to_end(self, env):
        router = PrefixRouter({b"users": 0, b"posts": 1}, n_workers=3)
        kvs = run_process(env, P2KVS.open(env, n_workers=3, router=router))
        ctx = env.cpu.new_thread("u")

        def work():
            yield from kvs.put(ctx, b"users:1", b"alice")
            yield from kvs.put(ctx, b"posts:1", b"hello")
            yield from kvs.put(ctx, b"misc:1", b"other")
            a = yield from kvs.get(ctx, b"users:1")
            b = yield from kvs.get(ctx, b"posts:1")
            c = yield from kvs.get(ctx, b"misc:1")
            return a, b, c

        assert run_process(env, work()) == (b"alice", b"hello", b"other")
        # Column traffic landed on the mapped workers.
        assert kvs.workers[0].counters.get("requests") >= 2  # users put+get
        assert kvs.workers[1].counters.get("requests") >= 2  # posts put+get


class TestFacebookWorkload:
    def test_size_distribution_matches_citation(self):
        """Cao et al.: ~90% of KVs under 1 KB, mean value size small."""
        sizes = FacebookValueSizes(seed=1)
        assert sizes.fraction_below(1024) >= 0.85
        samples = [sizes.sample() for _ in range(20000)]
        mean = sum(samples) / len(samples)
        assert mean < 600  # small-dominated

    def test_sampler_deterministic_per_seed(self):
        a = FacebookValueSizes(seed=3)
        b = FacebookValueSizes(seed=3)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            FacebookValueSizes(buckets=[(0.5, 1, 10)])

    def test_workload_mix_ratios(self):
        import collections

        verbs = collections.Counter(
            v for v, _, _ in facebook_mixed_workload(5000, key_space=1000, seed=2)
        )
        assert 0.7 < verbs["read"] / 5000 < 0.86
        assert 0.12 < verbs["update"] / 5000 < 0.26
        assert verbs["scan"] > 0

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            list(facebook_mixed_workload(10, 100, get_ratio=0.9, put_ratio=0.2))

    def test_runs_through_harness(self, env):
        from repro.harness import preload, run_closed_loop
        from repro.systems import open_system
        from repro.workloads import fillrandom, split_stream

        system = open_system("rocksdb", env)
        preload(env, system, fillrandom(500), n_threads=2)
        ops = list(facebook_mixed_workload(300, key_space=500, seed=4))
        metrics = run_closed_loop(env, system, split_stream(ops, 2))
        assert metrics.n_ops == 300
        assert metrics.qps > 0
