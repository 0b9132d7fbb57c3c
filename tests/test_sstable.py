"""Tests for SSTable build, point lookup, cursors, bloom and block cache."""

import zlib
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import OPTANE_905P, Simulator, StorageDevice
from repro.storage.block_cache import BlockCache
from repro.storage.bloom import N_PROBES, BloomFilter, fnv1a, fnv1a_many, probe_pair
from repro.storage.memtable import DELETED, FOUND, MAX_SEQ, NOT_FOUND, VTYPE_DELETE, VTYPE_VALUE
from repro.storage.sstable import (
    SSTableBuilder, TableCursor, _internal_key, lower_bound,
)


def key(i):
    return b"key%08d" % i


def build_table(n=100, number=1, block_target=256):
    builder = SSTableBuilder(number, block_target=block_target)
    for i in range(n):
        builder.add(key(i), 1, VTYPE_VALUE, b"value%d" % i)
    return builder.finish()


def cursor_over(table, device):
    """A cursor over the run of one table, through a block cache that holds
    nothing (every block is read)."""
    return TableCursor([table], [table.largest], BlockCache(0), device)


def run(gen):
    sim = Simulator()
    device = StorageDevice(sim, OPTANE_905P)
    results = []

    def wrapper():
        value = yield from gen(device)
        results.append(value)

    sim.spawn(wrapper())
    sim.run()
    return results[0], device


class TestBloom:
    def test_no_false_negatives(self):
        keys = [key(i) for i in range(1000)]
        bf = BloomFilter.from_keys(keys)
        assert all(bf.may_contain(probe_pair(k)) for k in keys)

    def test_low_false_positive_rate(self):
        bf = BloomFilter.from_keys([key(i) for i in range(1000)])
        fps = sum(bf.may_contain(probe_pair(key(i))) for i in range(10000, 20000))
        assert fps / 10000 < 0.05

    def test_fnv1a_reference_vectors(self):
        # Published 64-bit FNV-1a test vectors.
        assert fnv1a(b"") == 0xCBF29CE484222325
        assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a(b"foobar") == 0x85944171F73967E8

    @given(
        st.integers(0, 40).flatmap(
            lambda width: st.lists(st.binary(min_size=width, max_size=width), max_size=50)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_batched_fnv1a_is_the_scalar_one(self, keys):
        assert list(fnv1a_many(keys)) == [fnv1a(k) for k in keys]

    @given(st.lists(st.binary(max_size=24), max_size=80))
    @example([b"k"])  # one key: the 64-bit floor
    @example([b"same", b"same", b"other", b"same"])  # duplicates
    @example([b"", b"a", b"ab", b"abc" * 8, b"a"])
    @settings(max_examples=200, deadline=None)
    def test_from_keys_sets_the_bits_add_sets(self, keys):
        # Mixed key lengths: from_keys hashes each length group in one batch.
        assert BloomFilter.from_keys(keys)._bits == oracle_bits(keys)


def oracle_bits(keys):
    """The scalar build ``from_keys`` replaced, one key and one probe at a
    time (``BloomFilter.add``/``_set_bits`` before the batched build)."""
    bf = BloomFilter(len(keys))
    for k in keys:
        h1, h2 = zlib.crc32(k) & 0xFFFFFFFF, fnv1a(k) | 1
        for i in range(N_PROBES):
            pos = (h1 + i * h2) % bf.n_bits
            bf._bits[pos >> 3] |= 1 << (pos & 7)
    return bf._bits


class TestBlockCache:
    def test_hit_miss_and_eviction(self):
        cache = BlockCache(100)
        assert cache.get("a") is None
        cache.put("a", "blockA", 60)
        cache.put("b", "blockB", 60)  # evicts a
        assert cache.get("a") is None
        assert cache.get("b") == "blockB"
        assert cache.misses == 2 and cache.hits == 1

    def test_lru_order_updated_on_get(self):
        cache = BlockCache(100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        cache.get("a")  # a is now most recent
        cache.put("c", "C", 40)  # evicts b
        assert cache.get("a") == "A"
        assert cache.get("b") is None

    def test_oversized_item_not_cached(self):
        cache = BlockCache(100)
        cache.put("big", "x", 500)
        assert "big" not in cache


class TestSSTable:
    def test_builder_requires_sorted_input(self):
        builder = SSTableBuilder(1)
        builder.add(b"b", 1, VTYPE_VALUE, b"")
        with pytest.raises(ValueError):
            builder.add(b"a", 1, VTYPE_VALUE, b"")

    def test_builder_rejects_empty(self):
        with pytest.raises(ValueError):
            SSTableBuilder(1).finish()

    def test_metadata(self):
        table = build_table(50)
        assert table.smallest == key(0)
        assert table.largest == key(49)
        assert table.entry_count == 50
        assert table.file_size > 0
        assert len(table.blocks) > 1  # small block target splits blocks

    def test_overlap(self):
        table = build_table(50)
        assert table.overlaps(key(10), key(20))
        assert table.overlaps(None, key(0))
        assert table.overlaps(key(49), None)
        assert not table.overlaps(key(50), key(99))

    def test_get_found(self):
        table = build_table(100)
        (state, value), device = run(
            lambda dev: table.get(key(42), MAX_SEQ, BlockCache(0), dev)
        )
        assert (state, value) == (FOUND, b"value42")
        assert device.bytes_by_kind().get("read", 0.0) > 0

    def test_get_absent_key_in_range_costs_at_most_one_block(self):
        table = build_table(100)
        # key not present but inside [smallest, largest]; bloom usually stops it
        (state, _), device = run(
            lambda dev: table.get(b"key00000042x", MAX_SEQ, BlockCache(0), dev)
        )
        assert state == NOT_FOUND

    def test_get_out_of_range_is_free(self):
        table = build_table(100)
        (state, _), device = run(
            lambda dev: table.get(b"zzz", MAX_SEQ, BlockCache(0), dev)
        )
        assert state == NOT_FOUND
        assert sum(device.bytes_by_category().values()) == 0

    def test_tombstone_read(self):
        builder = SSTableBuilder(1)
        builder.add(b"a", 2, VTYPE_DELETE, b"")
        builder.add(b"a", 1, VTYPE_VALUE, b"old")
        table = builder.finish()
        (state, _), _ = run(lambda dev: table.get(b"a", MAX_SEQ, BlockCache(0), dev))
        assert state == DELETED

    def test_snapshot_get_sees_old_version(self):
        builder = SSTableBuilder(1)
        builder.add(b"a", 5, VTYPE_VALUE, b"new")
        builder.add(b"a", 2, VTYPE_VALUE, b"old")
        table = builder.finish()
        (state, value), _ = run(lambda dev: table.get(b"a", 3, BlockCache(0), dev))
        assert (state, value) == (FOUND, b"old")
        (state, value), _ = run(
            lambda dev: table.get(b"a", MAX_SEQ, BlockCache(0), dev)
        )
        assert (state, value) == (FOUND, b"new")

    def test_block_cache_avoids_repeat_io(self):
        table = build_table(100)
        cache = BlockCache(1 << 20)

        def double_get(dev):
            yield from table.get(key(10), MAX_SEQ, cache, dev)
            first = sum(dev.bytes_by_category().values())
            yield from table.get(key(10), MAX_SEQ, cache, dev)
            return first, sum(dev.bytes_by_category().values())

        (first, second), _ = run(double_get)
        assert second == first  # second get served from cache

    def test_cursor_full_scan(self):
        table = build_table(30)

        def scan(dev):
            cur = cursor_over(table, dev)
            yield from cur.seek(None)
            out = []
            while cur.current is not None:
                out.append(cur.current[0])
                yield from cur.advance()
            return out

        keys, _ = run(scan)
        assert keys == [key(i) for i in range(30)]

    def test_cursor_seek_midway(self):
        table = build_table(30)

        def scan(dev):
            cur = cursor_over(table, dev)
            yield from cur.seek(key(25))
            out = []
            while cur.current is not None:
                out.append(cur.current[0])
                yield from cur.advance()
            return out

        keys, _ = run(scan)
        assert keys == [key(i) for i in range(25, 30)]

    def test_cursor_seek_past_end(self):
        table = build_table(10)

        def scan(dev):
            cur = cursor_over(table, dev)
            yield from cur.seek(b"zzzz")
            return cur.current

        current, _ = run(scan)
        assert current is None

    def test_read_all_entries_charges_sequential_read(self):
        table = build_table(100)
        entries, device = run(lambda dev: table.read_all_entries(dev))
        assert len(entries) == 100
        assert device.bytes_by_category().get("compaction", 0.0) == table.file_size

    @given(st.sets(st.integers(0, 5000), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_every_inserted_key_is_found(self, key_ids):
        builder = SSTableBuilder(1, block_target=512)
        for i in sorted(key_ids):
            builder.add(key(i), 1, VTYPE_VALUE, b"v%d" % i)
        table = builder.finish()

        def check(dev):
            for i in sorted(key_ids):
                state, value = yield from table.get(key(i), MAX_SEQ, BlockCache(0), dev)
                assert (state, value) == (FOUND, b"v%d" % i)
            return True

        ok, _ = run(check)
        assert ok


_VERSIONS = st.sets(
    st.tuples(st.integers(0, 12), st.integers(1, 30)), min_size=1, max_size=60
)
_SNAPSHOT = st.integers(0, 31) | st.just(MAX_SEQ)


def versioned_entries(versions):
    """Internal order (key asc, seq desc); every fourth seq is a tombstone."""
    return [
        (key(i), seq, VTYPE_VALUE if seq % 4 else VTYPE_DELETE, b"v%d@%d" % (i, seq))
        for i, seq in sorted(versions, key=lambda v: (v[0], -v[1]))
    ]


class TestBisectWithoutACallbackPerProbe:
    @given(versions=_VERSIONS, probe=st.integers(-1, 13), seq=_SNAPSHOT)
    @settings(max_examples=300, deadline=None)
    def test_lower_bound_is_the_internal_key_bisect(self, versions, probe, seq):
        entries = versioned_entries(versions)
        for lo in range(len(entries) + 1):
            assert lower_bound(entries, key(probe), seq, lo) == bisect_left(
                entries, (key(probe), MAX_SEQ - seq), lo, key=_internal_key
            )

    @given(versions=_VERSIONS, snapshot=_SNAPSHOT)
    @settings(max_examples=100, deadline=None)
    def test_get_and_seek_over_multi_version_blocks(self, versions, snapshot):
        """Two entries a block, so a key's versions straddle blocks and a probe
        past a block's last version falls through to the next block's head."""
        entries = versioned_entries(versions)
        builder = SSTableBuilder(1, block_target=48)
        for entry in entries:
            builder.add(*entry)
        table = builder.finish()

        def probe_all(dev):
            got = []
            for i in range(-1, 14):
                got.append((yield from table.get(key(i), snapshot, BlockCache(0), dev)))
                cursor = cursor_over(table, dev)
                yield from cursor.seek(key(i))
                got.append(cursor.current)
            return got

        expected = []
        for i in range(-1, 14):
            visible = [e for e in entries if e[0] == key(i) and e[1] <= snapshot]
            if not visible:
                expected.append((NOT_FOUND, None))
            elif visible[0][2] == VTYPE_DELETE:
                expected.append((DELETED, None))
            else:
                expected.append((FOUND, visible[0][3]))
            expected.append(next((e for e in entries if e[0] >= key(i)), None))
        got, _ = run(probe_all)
        assert got == expected


class TestFilterBuiltAtFirstProbe:
    @given(
        versions=_VERSIONS,
        block_target=st.sampled_from([48, 256, 4096]),
    )
    @settings(max_examples=100, deadline=None)
    def test_lazy_filter_is_the_eager_one(self, versions, block_target):
        """Several versions a key and tombstones, so the distinct-key count
        (what the filter is sized and built from) is below the entry count."""
        entries = versioned_entries(versions)
        builder = SSTableBuilder(1, block_target=block_target)
        for entry in entries:
            builder.add(*entry)
        table = builder.finish()
        eager = BloomFilter.from_keys({e[0] for e in entries})
        assert table._bloom is None
        # The size an eagerly built filter gave the file, before any build.
        index_bytes = 24 * len(table.blocks)
        assert table.file_size == (
            sum(b.nbytes for b in table.blocks) + len(eager._bits) + index_bytes
        )
        run(lambda dev: table.get(entries[-1][0], MAX_SEQ, BlockCache(0), dev))
        assert table._bloom._bits == eager._bits
        assert len(table._bloom._bits) == table.filter_bytes
