"""Tests for the Facebook mixed-size workload."""

import pytest

from repro.workloads import FacebookValueSizes, facebook_mixed_workload


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
