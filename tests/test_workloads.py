"""Tests for key generators, distributions and the YCSB workload mixes."""

import collections

import pytest

from repro.core.router import HashRouter
from repro.workloads import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    WORKLOADS,
    YCSBWorkload,
    ZipfianGenerator,
    fillrandom,
    fillseq,
    make_key,
    make_value,
    overwrite,
    readrandom,
    scans,
)


class TestKeyGen:
    def test_keys_sort_by_id(self):
        keys = [make_key(i) for i in (0, 9, 10, 99, 100)]
        assert keys == sorted(keys)

    def test_value_size_exact(self):
        for size in (1, 16, 112, 1024):
            assert len(make_value(7, size)) == size

    def test_uniform_covers_space(self):
        gen = UniformGenerator(100, seed=1)
        seen = {gen.next_id() for _ in range(5000)}
        assert len(seen) > 90

    def test_uniform_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)

    def test_zipfian_is_skewed(self):
        gen = ZipfianGenerator(1000, seed=2)
        counts = collections.Counter(gen.next_id() for _ in range(20000))
        top = counts.most_common(10)
        top_share = sum(c for _, c in top) / 20000
        assert top_share > 0.3  # hot head
        assert all(0 <= i < 1000 for i in counts)

    def test_zipfian_rank0_hottest(self):
        gen = ZipfianGenerator(1000, seed=3)
        counts = collections.Counter(gen.next_id() for _ in range(20000))
        assert counts.most_common(1)[0][0] == 0

    def test_scrambled_zipfian_spreads_hot_keys(self):
        """Hot items land in different hash partitions (Section 4.2)."""
        gen = ScrambledZipfianGenerator(100000, seed=4)
        router = HashRouter(8)
        tally = collections.Counter(
            router.route(make_key(gen.next_id())) for _ in range(20000)
        )
        counts = [tally[w] for w in range(8)]
        assert min(counts) > 0.5 * (20000 / 8)
        assert max(counts) < 2.0 * (20000 / 8)

    def test_latest_prefers_recent(self):
        gen = LatestGenerator(1000, seed=5)
        samples = [gen.next_id() for _ in range(5000)]
        recent = sum(1 for s in samples if s >= 900)
        assert recent / 5000 > 0.4
        assert all(0 <= s < 1000 for s in samples)

    def test_latest_advance_extends_range(self):
        gen = LatestGenerator(10, seed=6)
        new_id = gen.advance()
        assert new_id == 10
        assert gen.count == 11


class TestYCSB:
    def test_table1_ratios(self):
        """The specs must match the paper's Table 1."""
        assert WORKLOADS["A"].update_ratio == 0.5
        assert WORKLOADS["B"].read_ratio == 0.95
        assert WORKLOADS["C"].read_ratio == 1.0
        assert WORKLOADS["D"].distribution == "latest"
        assert WORKLOADS["E"].scan_ratio == 0.95
        assert WORKLOADS["F"].rmw_ratio == 0.5
        assert WORKLOADS["LOAD"].insert_ratio == 1.0
        assert WORKLOADS["LOAD"].distribution == "uniform"

    def test_bad_spec_rejected(self):
        from repro.workloads import WorkloadSpec

        with pytest.raises(ValueError):
            WorkloadSpec("bad", read_ratio=0.5, update_ratio=0.6)

    def test_load_ops_insert_everything_once(self):
        wl = YCSBWorkload("LOAD", record_count=100)
        ops = list(wl.load_ops())
        assert len(ops) == 100
        assert all(v == "insert" for v, _, _ in ops)
        assert len({k for _, k, _ in ops}) == 100

    def test_mix_proportions_roughly_match(self):
        wl = YCSBWorkload("A", record_count=1000, seed=7)
        verbs = collections.Counter(v for v, _, _ in wl.ops(4000))
        assert 0.4 < verbs["read"] / 4000 < 0.6
        assert 0.4 < verbs["update"] / 4000 < 0.6

    def test_workload_e_scan_lengths_bounded(self):
        wl = YCSBWorkload("E", record_count=1000, seed=8)
        for verb, _key, payload in wl.ops(500):
            if verb == "scan":
                assert 1 <= payload <= 100

    def test_workload_d_inserts_grow_keyspace(self):
        wl = YCSBWorkload("D", record_count=100, seed=9)
        inserted = [k for v, k, _ in wl.ops(2000) if v == "insert"]
        assert inserted
        assert all(k >= make_key(100) for k in inserted)

    def test_split_round_robin(self):
        wl = YCSBWorkload("C", record_count=100, seed=10)
        streams = wl.split(100, 4)
        assert [len(s) for s in streams] == [25, 25, 25, 25]

    def test_deterministic_given_seed(self):
        a = list(YCSBWorkload("A", 500, seed=11).ops(200))
        b = list(YCSBWorkload("A", 500, seed=11).ops(200))
        assert a == b


class TestMicrobench:
    def test_fillseq_is_sorted(self):
        keys = [k for _, k, _ in fillseq(100)]
        assert keys == sorted(keys)

    def test_fillrandom_is_permutation(self):
        keys = [k for _, k, _ in fillrandom(100)]
        assert sorted(keys) == [make_key(i) for i in range(100)]
        assert keys != sorted(keys)

    def test_overwrite_stays_in_keyspace(self):
        keys = {k for _, k, _ in overwrite(500, key_space=50)}
        assert keys <= {make_key(i) for i in range(50)}

    def test_readrandom_verbs(self):
        ops = list(readrandom(50, key_space=100))
        assert all(v == "read" for v, _, _ in ops)

    def test_scan_ops_carry_size(self):
        ops = list(scans(20, key_space=1000, scan_size=10))
        assert all(v == "scan" and payload == 10 for v, _, payload in ops)
