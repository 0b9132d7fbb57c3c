"""Unit tests for the VersionSet/manifest and the merging iterator."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import P2KVS, adapter_factory
from repro.engine.env import make_env
from repro.engine.iterator import MemTableCursor, MergingIterator
from repro.engine.options import EngineOptions
from repro.engine.version import VersionEdit, VersionSet
from repro.storage.block_cache import BlockCache
from repro.storage.memtable import MAX_SEQ, MemTable, VTYPE_DELETE, VTYPE_VALUE
from repro.storage.sstable import SSTableBuilder, TableCursor
from tests.conftest import run_process


def key(i):
    return b"key%06d" % i


def run_cursor(cache, device, *tables):
    """A cursor over the sorted run of ``tables`` (one: an L0 file; several:
    a level's files, in key order)."""
    return TableCursor(list(tables), [t.largest for t in tables], cache, device)


def build_table(number, ids, seq=1, vtype=VTYPE_VALUE):
    builder = SSTableBuilder(number, block_target=256)
    for i in sorted(ids):
        builder.add(key(i), seq, vtype, b"t%d-%d" % (number, i))
    return builder.finish()


class TestVersionSet:
    def make_versions(self, env):
        return VersionSet(env, "db", EngineOptions())

    def test_apply_edit_adds_and_sorts(self, env):
        versions = self.make_versions(env)
        t1 = build_table(1, range(10, 20))
        t2 = build_table(2, range(0, 10))

        def work():
            yield from versions.log_and_apply(
                VersionEdit(added=[(1, t1)])
            )
            yield from versions.log_and_apply(
                VersionEdit(added=[(1, t2)])
            )

        run_process(env, work())
        files = versions.current.levels[1]
        assert [f.number for f in files] == [2, 1]  # sorted by smallest key

    def test_l0_sorted_newest_first(self, env):
        versions = self.make_versions(env)

        def work():
            for number in (1, 2, 3):
                table = build_table(number, range(5))
                yield from versions.log_and_apply(
                    VersionEdit(added=[(0, table)])
                )

        run_process(env, work())
        assert [f.number for f in versions.current.levels[0]] == [3, 2, 1]

    def test_delete_edit_removes(self, env):
        versions = self.make_versions(env)
        table = build_table(7, range(5))

        def work():
            yield from versions.log_and_apply(
                VersionEdit(added=[(0, table)])
            )
            yield from versions.log_and_apply(VersionEdit(deleted=[(0, 7)]))

        run_process(env, work())
        assert versions.current.levels[0] == []

    def test_recover_rebuilds_from_manifest(self, env):
        """Three L0 tables, two level-1 tables added out of key order and one
        level-2 table: the recovered tree is the live one, table for table
        and run for run, in the one order of both install paths."""
        versions = self.make_versions(env)
        tables = {
            number: build_table(number, ids)
            for number, ids in (
                (1, range(5)), (2, range(3, 9)), (3, range(2, 6)),
                (4, range(20, 30)), (5, range(10, 20)), (6, range(8)),
            )
        }
        for number, table in tables.items():
            blob = versions.blob_name(number)
            env.disk.put_blob(blob, table, table.file_size)
            env.disk.commit_blob(blob)

        def work():
            for number in (1, 2, 3):
                yield from versions.log_and_apply(
                    VersionEdit(added=[(0, tables[number])])
                )
            yield from versions.log_and_apply(
                VersionEdit(added=[(1, tables[4]), (1, tables[5])])
            )
            yield from versions.log_and_apply(
                VersionEdit(added=[(2, tables[6])], log_number=9)
            )

        run_process(env, work())
        env.disk.crash()
        fresh = VersionSet(env, "db", EngineOptions())

        def recover():
            yield from fresh.recover()

        run_process(env, recover())

        def shape(version):
            levels = [[t.number for t in level] for level in version.levels]
            runs = [
                ([t.number for t in run], largest) for run, largest in version.runs
            ]
            return levels, runs

        assert shape(fresh.current) == shape(versions.current)
        levels, runs = shape(fresh.current)
        assert levels[:3] == [[3, 2, 1], [5, 4], [6]]
        assert [numbers for numbers, _ in runs] == [[3], [2], [1], [5, 4], [6]]
        assert fresh.log_number == 9
        assert fresh.next_file_number == 7

    def test_recover_gc_deletes_orphan_blobs(self, env):
        versions = self.make_versions(env)
        orphan = build_table(5, range(3))
        env.disk.put_blob(versions.blob_name(5), orphan, orphan.file_size)
        env.disk.commit_blob(versions.blob_name(5))

        def recover():
            yield from versions.recover()

        run_process(env, recover())
        assert not env.disk.blob_exists(versions.blob_name(5))

    def test_overlapping_query(self, env):
        versions = self.make_versions(env)
        t = build_table(1, range(10, 20))

        def work():
            yield from versions.log_and_apply(
                VersionEdit(added=[(1, t)])
            )

        run_process(env, work())
        version = versions.current
        assert version.overlapping(1, key(15), key(30)) != []
        assert version.overlapping(1, key(25), key(30)) == []
        assert version.level_bytes(1) == t.file_size
        assert sum(len(tables) for tables in version.levels) == 1


class TestMergingIterator:
    def run_iterator(self, env, cursors, begin=None, snapshot=MAX_SEQ, limit=100):
        iterator = MergingIterator(cursors, snapshot)

        def work():
            yield from iterator.seek(begin)
            out = []
            while len(out) < limit:
                pair = yield from iterator.next_user()
                if pair is None:
                    break
                out.append(pair)
            return out

        return run_process(env, work())

    def test_merges_memtable_and_table(self, env):
        memtable = MemTable()
        memtable.add(10, VTYPE_VALUE, key(1), b"mem1")
        table = build_table(1, [0, 2], seq=1)
        cursors = [
            MemTableCursor(memtable),
            run_cursor(BlockCache(0), env.device, table),
        ]
        pairs = self.run_iterator(env, cursors)
        assert [k for k, _ in pairs] == [key(0), key(1), key(2)]

    def test_newest_version_wins_across_sources(self, env):
        memtable = MemTable()
        memtable.add(10, VTYPE_VALUE, key(0), b"newer")
        table = build_table(1, [0], seq=1)
        cursors = [MemTableCursor(memtable),
                   run_cursor(BlockCache(0), env.device, table)]
        pairs = self.run_iterator(env, cursors)
        assert pairs == [(key(0), b"newer")]

    def test_tombstone_hides_older_table_entry(self, env):
        memtable = MemTable()
        memtable.add(10, VTYPE_DELETE, key(0), b"")
        table = build_table(1, [0, 1], seq=1)
        cursors = [MemTableCursor(memtable),
                   run_cursor(BlockCache(0), env.device, table)]
        pairs = self.run_iterator(env, cursors)
        assert [k for k, _ in pairs] == [key(1)]

    def test_snapshot_filters_new_entries(self, env):
        memtable = MemTable()
        memtable.add(5, VTYPE_VALUE, key(0), b"old")
        memtable.add(10, VTYPE_VALUE, key(0), b"new")
        pairs = self.run_iterator(env, [MemTableCursor(memtable)], snapshot=7)
        assert pairs == [(key(0), b"old")]

    def test_seek_positions_all_sources(self, env):
        t1 = build_table(1, range(0, 10))
        t2 = build_table(2, range(10, 20))
        cursors = [run_cursor(BlockCache(0), env.device, t)
                   for t in (t1, t2)]
        pairs = self.run_iterator(env, cursors, begin=key(8), limit=4)
        assert [k for k, _ in pairs] == [key(8), key(9), key(10), key(11)]


class TestMemTableCursor:
    def test_insert_below_a_suspended_cursor(self):
        """A writer inserting a smaller key while the scan is suspended (on
        another source's block load) must neither replay nor drop an entry."""
        memtable = MemTable()
        for seq, k in enumerate((b"b", b"c", b"d"), start=1):
            memtable.add(seq, VTYPE_VALUE, k, b"")
        cursor = MemTableCursor(memtable)
        list(cursor.seek(b"b"))
        memtable.add(4, VTYPE_VALUE, b"a", b"")
        assert [e[0] for e in cursor.run(None, 2)] == [b"b", b"c"]
        assert cursor.skip(2) and cursor.current[0] == b"d"
        memtable.add(5, VTYPE_VALUE, b"aa", b"")
        assert [e[0] for e in cursor.run(None, None)] == [b"d"]
        assert cursor.skip(1) and cursor.current is None

    def test_insert_ahead_of_a_suspended_cursor_is_visited(self):
        memtable = MemTable()
        memtable.add(1, VTYPE_VALUE, b"b", b"")
        memtable.add(2, VTYPE_VALUE, b"d", b"")
        cursor = MemTableCursor(memtable)
        list(cursor.seek(None))
        memtable.add(3, VTYPE_VALUE, b"c", b"")
        assert [e[:2] for e in cursor.run(None, None)] == [
            (b"b", 1), (b"c", 3), (b"d", 2)
        ]
        assert cursor.skip(1) and cursor.current[:2] == (b"c", 3)
        assert cursor.skip(1) and cursor.current[:2] == (b"d", 2)
        assert cursor.skip(1) and cursor.current is None

    def test_run_stops_strictly_before_the_bound_but_never_empty(self):
        memtable = MemTable()
        for seq, k in enumerate((b"a", b"b", b"b", b"c"), start=1):
            memtable.add(seq, VTYPE_VALUE, k, b"")
        cursor = MemTableCursor(memtable)
        list(cursor.seek(None))
        # bounds are heap entries: (user key, -seq, cursor index)
        assert [e[:2] for e in cursor.run((b"b", -2, 9), None)] == [
            (b"a", 1), (b"b", 3)
        ]
        assert [e[:2] for e in cursor.run((b"a", -1, 9), None)] == [(b"a", 1)]
        assert [e[:2] for e in cursor.run((b"c", -9, 9), 2)] == [
            (b"a", 1), (b"b", 3)
        ]


class RecordingCache:
    """A block cache that always misses and logs every (table, block) asked;
    ``on_load(n)`` runs inside the n-th lookup, i.e. while the scan that asked
    is about to suspend on the block load."""

    def __init__(self, on_load=None):
        self.loads = []
        self.on_load = on_load

    def get(self, cache_key):
        if self.on_load is not None:
            self.on_load(len(self.loads))
        self.loads.append(cache_key)
        return None

    def put(self, cache_key, block, nbytes):
        pass


def oracle_merge(cursors, begin, snapshot, limit, end, grow_at=None, grow=None):
    """The per-entry merge (heappop, advance(), heappush for every entry) that
    ``MergingIterator.collect`` replaced, kept as the reference.  ``grow()``
    runs once, before the next entry is taken after ``grow_at`` pairs."""
    heap, out, scanned, last = [], [], 0, None

    def push(i):
        entry = cursors[i].current
        if entry is not None:
            heapq.heappush(heap, ((entry[0], MAX_SEQ - entry[1]), i))

    for i, cursor in enumerate(cursors):
        yield from cursor.seek(begin)
        push(i)
    while heap and (limit is None or len(out) < limit):
        if len(out) == grow_at:
            grow()
            grow_at = None
        _, i = heapq.heappop(heap)
        k, seq, vtype, value = cursors[i].current
        yield from cursors[i].advance()
        push(i)
        scanned += 1
        if seq > snapshot or k == last:
            continue
        last = k
        if vtype == VTYPE_DELETE:
            continue
        if end is not None and k > end:
            break
        out.append((k, value))
    return out, scanned


def collected(step):
    """For ``yield from``: what ``MergingIterator.collect`` gave — the list,
    when every block was cached, or its generator's result after a miss."""
    if type(step) is list:
        return step
    return (yield from step)


def pairs_of(entries):
    """``collect`` returns entries ``(key, seq, vtype, value)``; the oracle pairs."""
    return [(entry[0], entry[3]) for entry in entries]


def collect_merge(cursors, begin, snapshot, limit, end):
    iterator = MergingIterator(cursors, snapshot)
    yield from iterator.seek(begin)
    out = yield from collected(iterator.collect(limit, end))
    return pairs_of(out), iterator.entries_scanned


def collect_twice(split):
    """``collect`` up to ``split`` pairs, then a second ``collect`` on the same
    iterator for the rest: ``last``, the heap and every cursor carry over."""

    def merge(cursors, begin, snapshot, limit, end):
        iterator = MergingIterator(cursors, snapshot)
        yield from iterator.seek(begin)
        first = split if limit is None else min(split, limit)
        out = yield from collected(iterator.collect(first, end))
        if len(out) == first:  # stopped by the limit, not by ``end``
            out += yield from collected(iterator.collect(
                None if limit is None else limit - first, end
            ))
        return pairs_of(out), iterator.entries_scanned

    return merge


def next_user_merge(cursors, begin, snapshot, limit, end):
    """The serial strategy's access pattern: one ``collect(limit=1)`` per pair."""
    assert end is None
    iterator = MergingIterator(cursors, snapshot)
    yield from iterator.seek(begin)
    out = []
    while limit is None or len(out) < limit:
        pair = yield from iterator.next_user()
        if pair is None:
            break
        out.append(pair)
    return out, iterator.entries_scanned


_KEY_IDS = st.integers(0, 24)
_BOUND = st.none() | _KEY_IDS.map(key)
_SOURCES = st.integers(0, 3)


class TestCollectMatchesPerEntryMerge:
    @staticmethod
    def build_cursors(writes, env, cache, plain=(), block_target=48, ties=1,
                      bands=1):
        """Sources 0-1: memtables; 2: one multi-block SSTable; 3: a level of
        two files (one cursor over their run).  ``writes[n] = (source, key
        id, is_delete)`` has seq ``n // ties + 1`` (``ties=2``: neighbours
        share a seq, so two sources can hold the same internal key).  A
        source in ``plain`` keeps one version per key and no delete.
        ``bands`` folds the key ids into that many disjoint ranges shared by
        4 / bands sources each (4: every source has its own, so runs are
        long; 1: all interleave).  Returns the cursors and the two
        memtables."""
        by_source = {0: {}, 1: {}, 2: {}, 3: {}}
        width = 24 // bands
        for n, (source, key_id, is_delete) in enumerate(writes):
            seq = n // ties + 1
            key_id = source * bands // 4 * width + key_id % width
            entries = by_source[source]
            if source in plain:
                if any(k == key(key_id) for k, _ in entries):
                    continue
                is_delete = False
            entries.setdefault(
                (key(key_id), seq),
                (VTYPE_DELETE if is_delete else VTYPE_VALUE,
                 b"s%d-%d" % (source, n)),
            )
        by_source = {
            source: [(k, seq, vtype, value) for (k, seq), (vtype, value)
                     in sorted(entries.items(), key=lambda e: (e[0][0], -e[0][1]))]
            for source, entries in by_source.items()
        }
        cursors, memtables = [], []
        for source in (0, 1):
            memtable = MemTable()
            for k, seq, vtype, value in by_source[source]:
                memtable.add(seq, vtype, k, value)
            memtables.append(memtable)
            cursors.append(MemTableCursor(memtable))

        def table(number, entries):
            builder = SSTableBuilder(number, block_target=block_target)
            for k, seq, vtype, value in entries:
                builder.add(k, seq, vtype, value)
            return builder.finish()

        if by_source[2]:
            cursors.append(run_cursor(cache, env.device, table(2, by_source[2])))
        halves = [
            [e for e in by_source[3] if e[0] < key(12)],
            [e for e in by_source[3] if e[0] >= key(12)],
        ]
        files = [table(3 + n, half) for n, half in enumerate(halves) if half]
        cursors.append(run_cursor(cache, env.device, *files))
        return cursors, memtables

    @given(
        writes=st.lists(st.tuples(_SOURCES, _KEY_IDS, st.booleans()), max_size=80),
        begin=_BOUND,
        end=_BOUND,
        limit=st.none() | st.integers(0, 30),
        snapshot=st.integers(0, 80) | st.just(MAX_SEQ),
        plain=st.sets(_SOURCES),
        block_target=st.sampled_from((48, 200, 4096)),
        ties=st.sampled_from((1, 1, 2)),
        bands=st.sampled_from((1, 2, 4)),
        split=st.integers(0, 10),
        late=st.lists(st.tuples(st.integers(0, 1), _KEY_IDS, st.booleans()), max_size=4),
        late_at=st.integers(0, 6),
    )
    @settings(max_examples=300, deadline=None)
    # (a) a tombstone past ``end`` does not end the scan, so the shadowed first
    # entry of the next plain run lies past ``end`` (alone, and followed).
    @example(writes=[(2, 1, False), (0, 1, True)], begin=None, end=key(0),
             limit=None, snapshot=MAX_SEQ, plain={2}, block_target=4096, ties=1,
             bands=1, split=0, late=[], late_at=0)
    @example(writes=[(2, 1, False), (0, 1, True), (2, 2, False), (2, 3, False)],
             begin=None, end=key(0), limit=None, snapshot=MAX_SEQ, plain={2},
             block_target=4096, ties=1, bands=1, split=0, late=[], late_at=0)
    # (b) a run ending exactly at a block edge (two entries a block) with the
    # limit reached on its last pair: the next block is still loaded.
    @example(writes=[(2, 0, False), (2, 1, False), (2, 2, False), (2, 3, False)],
             begin=None, end=None, limit=2, snapshot=MAX_SEQ, plain={2},
             block_target=48, ties=1, bands=1, split=1, late=[], late_at=0)
    # (c) an internal-key tie across two sources, the later source first in
    # key order: its run must stop before the tie, not at it.
    @example(writes=[(3, 4, False), (0, 20, False), (3, 5, False), (2, 5, False)],
             begin=None, end=None, limit=None, snapshot=MAX_SEQ, plain={2, 3},
             block_target=4096, ties=2, bands=1, split=1, late=[], late_at=0)
    # (d) a memtable that grows (below, at and ahead of its cursor) while the
    # scan is suspended on the second block load.
    @example(writes=[(0, 3, False), (0, 9, False), (2, 1, False), (2, 2, False),
                     (2, 5, False), (2, 6, False)],
             begin=None, end=None, limit=None, snapshot=MAX_SEQ, plain={2},
             block_target=48, ties=1, bands=1, split=2,
             late=[(0, 0, False), (0, 3, False), (0, 7, False), (0, 9, True)],
             late_at=1)
    # (g) the runner-up is the heap's *second* child: after heapify the heap
    # is [key 0 (source 0), key 9 (source 1), key 3 (source 2)].
    @example(writes=[(0, 0, False), (0, 5, False), (1, 9, False), (2, 3, False)],
             begin=None, end=None, limit=None, snapshot=MAX_SEQ, plain=set(),
             block_target=4096, ties=1, bands=1, split=0, late=[], late_at=0)
    # (e) a plain table newer than the snapshot must still be filtered, and
    # (f) a run in one large block must stop at the room the limit leaves.
    @example(writes=[(2, 0, False), (2, 1, False), (2, 2, False)], begin=None,
             end=None, limit=None, snapshot=1, plain={2}, block_target=4096,
             ties=1, bands=1, split=0, late=[], late_at=0)
    @example(writes=[(2, 0, False), (2, 1, False), (2, 2, False), (2, 3, False),
                     (2, 4, False)], begin=None, end=None, limit=3,
             snapshot=MAX_SEQ, plain={2}, block_target=4096, ties=1, bands=1,
             split=1, late=[], late_at=0)
    def test_same_pairs_charges_and_block_loads(
        self, writes, begin, end, limit, snapshot, plain, block_target, ties,
        bands, split, late, late_at,
    ):
        merges = [oracle_merge, collect_merge, collect_twice(split)]
        if end is None:
            merges.append(next_user_merge)
        outcomes = []
        for merge in merges:
            env = make_env(n_cores=2)
            cache = RecordingCache()
            cursors, memtables = self.build_cursors(
                writes, env, cache, plain, block_target, ties, bands
            )

            def grow(n, memtables=memtables):
                if n == late_at:
                    for m, (source, key_id, is_delete) in enumerate(late):
                        memtables[source].add(
                            len(writes) + 1 + m,
                            VTYPE_DELETE if is_delete else VTYPE_VALUE,
                            key(key_id), b"late%d" % m,
                        )

            cache.on_load = grow
            pairs, scanned = run_process(
                env, merge(cursors, begin, snapshot, limit, end)
            )
            outcomes.append(
                (pairs, scanned, cache.loads, env.device.io_count().get("read", 0.0),
                 env.sim.now, [cursor.current for cursor in cursors])
            )
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]

    @given(
        writes=st.lists(st.tuples(_SOURCES, _KEY_IDS, st.booleans()), max_size=60),
        begin=_BOUND,
        end=_BOUND,
        snapshot=st.integers(0, 150) | st.just(MAX_SEQ),
        plain=st.sets(_SOURCES),
        split=st.integers(0, 10),
        late=st.lists(
            st.tuples(st.integers(0, 1), _KEY_IDS, st.booleans(), st.integers(100, 140)),
            unique_by=lambda add: add[3], max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    # A plain memtable ahead of its cursor takes a newer version of a key
    # (it lands before the older one), an older one (after), a tombstone, and
    # an entry above the snapshot, then one below it: each time the rest of
    # its run must not be sliced.
    @example(writes=[(0, 1, False), (0, 5, False), (0, 9, False)], begin=None,
             end=None, snapshot=MAX_SEQ, plain={0}, split=1,
             late=[(0, 9, False, 130)])
    @example(writes=[(0, 1, False), (0, 5, False), (0, 9, False)], begin=None,
             end=None, snapshot=MAX_SEQ, plain={0}, split=1,
             late=[(0, 7, False, 130), (0, 7, False, 110)])
    @example(writes=[(0, 1, False), (0, 5, False), (0, 9, False)], begin=None,
             end=None, snapshot=MAX_SEQ, plain={0}, split=1,
             late=[(0, 7, True, 130)])
    @example(writes=[(0, 1, False), (0, 5, False), (0, 9, False)], begin=None,
             end=None, snapshot=120, plain={0}, split=1,
             late=[(0, 6, False, 130), (0, 7, False, 110)])
    def test_a_memtable_growing_between_collects_merges_like_the_oracle(
        self, writes, begin, end, snapshot, plain, split, late
    ):
        """``collect`` up to ``split`` pairs, then memtables take ``late``
        adds (duplicates, tombstones, seqs on either side of the snapshot and
        out of order), then ``collect`` the rest: the oracle, given the same
        adds at the same point, returns the same pairs and entries scanned."""
        outcomes = []
        for oracle in (True, False):
            env = make_env(n_cores=2)
            cursors, memtables = self.build_cursors(writes, env, BlockCache(0), plain)

            def grow(memtables=memtables):
                for source, key_id, is_delete, seq in late:
                    memtables[source].add(
                        seq, VTYPE_DELETE if is_delete else VTYPE_VALUE,
                        key(key_id), b"late%d" % seq,
                    )

            if oracle:
                merge = oracle_merge(cursors, begin, snapshot, None, end, split, grow)
            else:
                merge = self.collect_grow_collect(cursors, begin, snapshot, end,
                                                  split, grow)
            outcomes.append(run_process(env, merge))
        assert outcomes[0] == outcomes[1]

    @staticmethod
    def collect_grow_collect(cursors, begin, snapshot, end, split, grow):
        iterator = MergingIterator(cursors, snapshot)
        yield from iterator.seek(begin)
        out = yield from collected(iterator.collect(split, end))
        if len(out) == split:  # stopped by the limit, not by ``end``
            grow()
            out += yield from collected(iterator.collect(None, end))
        return pairs_of(out), iterator.entries_scanned

    def test_the_strategy_reaches_both_paths(self):
        """Sanity of the generator above: a plain source builds a plain table
        (which a covering snapshot lets ``collect`` slice), a delete or a
        second version does not."""
        env = make_env(n_cores=2)
        writes = [(2, 1, False), (2, 1, False), (3, 2, True), (3, 13, False)]
        cursors, _ = self.build_cursors(writes, env, BlockCache(0), plain={2})
        run_process(env, cursors[2].seek(None))
        assert cursors[2].table.plain and cursors[2].table.max_seq == 1
        cursors, _ = self.build_cursors(writes, env, BlockCache(0))
        run_process(env, cursors[2].seek(None))
        assert not cursors[2].table.plain
        level = cursors[3]
        run_process(env, level.seek(None))
        assert not level.table.plain  # the file with the tombstone
        run_process(env, level.seek(key(12)))
        assert level.table.plain  # ... and the cursor follows the file


def walk(cursor, begin, cache):
    """Seek, then advance one entry a step to the end; returns the entries and,
    per step, whether it returned a generator and whether its own call (before
    anything ran) missed the block cache."""
    entries, steps = [], []
    misses = cache.misses
    step = cursor.seek(begin)
    while True:
        steps.append((bool(step), cache.misses > misses))
        yield from step
        if cursor.current is None:
            return entries, steps
        entries.append(cursor.current)
        misses = cache.misses
        step = cursor.advance()


def source_entries(cursors, memtables):
    """Per cursor of ``build_cursors`` (the first two over its memtables),
    every entry it stands over, in internal-key order."""
    sources = [list(memtable.entries()) for memtable in memtables]
    for cursor in cursors[2:]:
        sources.append(
            [e for t in cursor._tables for block in t.blocks for e in block.entries]
        )
    return sources


class TestCachedStepsMatchTheOracle:
    """A cursor step is a plain call that returns ``()`` while every block it
    touches is in the block cache, and a generator from its first miss on.
    With a warm cache and with one too small to hold a scan's blocks, every
    cursor kind walks its source, and ``MergingIterator.seek``/``collect`` and
    the p2KVS SCAN give the oracle's pairs, ``entries_scanned``, block-cache
    hits and misses, and device reads and bytes."""

    KINDS = ("warm", "small")

    @staticmethod
    def prepared(writes, plain, block_target, kind):
        """A fresh env and cursors; ``warm``: over a cache every block was
        read into, ``small``: over one that holds two blocks."""
        env = make_env(n_cores=2)
        cache = BlockCache(1 << 30 if kind == "warm" else 2 * block_target)
        build = TestCollectMatchesPerEntryMerge.build_cursors
        if kind == "warm":
            for cursor in build(writes, env, cache, plain, block_target)[0]:
                run_process(env, walk(cursor, None, cache))
        cursors, memtables = build(writes, env, cache, plain, block_target)
        return env, cache, cursors, memtables

    @staticmethod
    def charged(env, cache):
        return [cache.hits, cache.misses, env.device.io_count().get("read", 0.0),
                env.device.bytes_by_kind().get("read", 0.0)]

    @staticmethod
    def delta(before, after):
        return [b - a for a, b in zip(before, after)]

    @given(
        writes=st.lists(st.tuples(_SOURCES, _KEY_IDS, st.booleans()), max_size=80),
        begin=_BOUND,
        plain=st.sets(_SOURCES),
        block_target=st.sampled_from((48, 200)),
        kind=st.sampled_from(KINDS),
    )
    @settings(max_examples=150, deadline=None)
    # A table and a level of many small blocks, two of them cached at a time.
    @example(writes=[(source, k, False) for source in (2, 3) for k in range(24)],
             begin=key(5), plain={2, 3}, block_target=48, kind="small")
    def test_every_cursor_kind_steps_synchronously_until_a_miss(
        self, writes, begin, plain, block_target, kind
    ):
        env, cache, cursors, memtables = self.prepared(
            writes, plain, block_target, kind
        )
        for cursor, source in zip(cursors, source_entries(cursors, memtables)):
            before = self.charged(env, cache)
            entries, steps = run_process(env, walk(cursor, begin, cache))
            assert entries == [e for e in source if begin is None or e[0] >= begin]
            hits, misses, reads, nbytes = self.delta(before, self.charged(env, cache))
            assert all(returned == missed for returned, missed in steps)
            assert reads == misses and (nbytes > 0) == (misses > 0)
            if kind == "warm" or isinstance(cursor, MemTableCursor):
                assert misses == 0 and not any(returned for returned, _ in steps)
            if isinstance(cursor, MemTableCursor):
                assert hits == 0
            elif kind == "small" and len(entries) > 4 and block_target == 48:
                assert misses > 0  # more blocks than the cache holds

    @given(
        writes=st.lists(st.tuples(_SOURCES, _KEY_IDS, st.booleans()), max_size=80),
        begin=_BOUND,
        end=_BOUND,
        limit=st.none() | st.integers(0, 30),
        snapshot=st.integers(0, 80) | st.just(MAX_SEQ),
        plain=st.sets(_SOURCES),
        block_target=st.sampled_from((48, 200, 4096)),
        split=st.integers(0, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_merges_match_the_oracle_warm_and_small(
        self, writes, begin, end, limit, snapshot, plain, block_target, split
    ):
        merges = [oracle_merge, collect_merge, collect_twice(split)]
        if end is None:
            merges.append(next_user_merge)
        by_kind = {}
        for kind in self.KINDS:
            outcomes = []
            for merge in merges:
                env, cache, cursors, _ = self.prepared(
                    writes, plain, block_target, kind
                )
                before = self.charged(env, cache)
                pairs, scanned = run_process(
                    env, merge(cursors, begin, snapshot, limit, end)
                )
                outcomes.append(
                    (pairs, scanned, self.delta(before, self.charged(env, cache)))
                )
            for outcome in outcomes[1:]:
                assert outcome == outcomes[0]
            by_kind[kind] = outcomes[0]
        (pairs, scanned, warm), (small_pairs, small_scanned, small) = (
            by_kind["warm"], by_kind["small"]
        )
        assert (pairs, scanned) == (small_pairs, small_scanned)
        assert warm[1:] == [0, 0, 0]
        assert warm[0] == small[0] + small[1]  # the same blocks are asked for
        assert small[2] == small[1]  # every miss is one device read

    @staticmethod
    def cached(cache, *tables):
        for table in tables:
            for idx, block in enumerate(table.blocks):
                cache.put((table.number, idx), block, block.nbytes)

    def test_a_later_cursor_misses_after_the_earlier_ones_were_served(self, env):
        """``seek`` serves cursors 0..2 in the call and returns at cursor 3's
        miss; the generator fetches its block, then builds the heap."""
        memtable = MemTable()
        memtable.add(10, VTYPE_VALUE, key(4), b"mem")
        t1, t2, t3 = (build_table(n, range(n, 30, 3)) for n in (1, 2, 3))
        cache = BlockCache(1 << 30)
        self.cached(cache, t1, t2)
        cursors = [MemTableCursor(memtable)] + [
            run_cursor(cache, env.device, t) for t in (t1, t2, t3)
        ]
        iterator = MergingIterator(cursors)
        pending = iterator.seek(key(5))
        assert pending and cache.misses == 1 and cache.hits == 2
        assert [c.current and c.current[0] for c in cursors] == [
            None, key(7), key(5), None
        ]
        assert env.device.io_count().get("read", 0.0) == 0
        run_process(env, pending)
        assert env.device.io_count().get("read", 0.0) == 1
        assert cursors[3].current[0] == key(6)
        entries = iterator.collect(6)
        assert type(entries) is list  # every block cached: a plain call
        assert [e[0] for e in entries] == [key(i) for i in range(5, 11)]
        assert iterator.seek(key(5)) == ()  # every block cached now

    def test_a_level_cursor_advances_into_a_file_whose_first_block_misses(self, env):
        t1, t2 = build_table(1, range(0, 5)), build_table(2, range(5, 10))
        cache = BlockCache(1 << 30)
        self.cached(cache, t1)
        cursor = run_cursor(cache, env.device, t1, t2)
        assert cursor.seek(key(3)) == () and cursor.advance() == ()
        assert cursor.current[0] == key(4)
        pending = cursor.advance()
        assert pending and cache.misses == 1
        assert cursor.current[0] == key(4)  # not moved before the fetch
        run_process(env, pending)
        assert cursor.current[0] == key(5) and cursor.table is t2
        assert env.device.io_count().get("read", 0.0) == 1
        assert cursor.advance() == () and cursor.current[0] == key(6)

    @staticmethod
    def loaded_p2kvs(block_cache_bytes):
        """p2KVS-4 over small memtables and 256-byte blocks (keys in
        memtables, L0 and L1, some overwritten or deleted), no page cache:
        every block-cache miss is a device read."""
        env = make_env(n_cores=16, page_cache_bytes=0)
        kvs = run_process(env, P2KVS.open(
            env, n_workers=4, adapter_open=adapter_factory(
                "rocksdb", write_buffer_size=768, block_size=256,
                block_cache_bytes=block_cache_bytes,
            ),
        ))
        ctx = env.cpu.new_thread("u")

        def load():
            for i in range(400):
                yield from kvs.put(ctx, key(i), b"v%d" % i)
            for i in range(0, 400, 3):
                yield from kvs.put(ctx, key(i), b"w%d" % i)
            for i in range(0, 400, 7):
                yield from kvs.delete(ctx, key(i))

        run_process(env, load())
        return env, kvs, ctx

    @staticmethod
    def p2kvs_charged(env, kvs):
        """Per instance block-cache hits and misses, then device reads and
        bytes (what the twins must share); per worker, the read CPU spent."""
        engines = [worker.engine for worker in kvs.workers]
        return (
            [e.block_cache.hits for e in engines]
            + [e.block_cache.misses for e in engines]
            + [env.device.io_count().get("read", 0.0), env.device.bytes_by_kind().get("read", 0.0)],
            [worker.ctx.busy_by_category["read"] for worker in kvs.workers],
        )

    @staticmethod
    def oracle_scan(env, kvs, begin, count):
        """The oracle over every instance's cursors: (pairs, per instance
        (sources, entries scanned))."""
        pairs, scans = [], []
        for worker in kvs.workers:
            engine = worker.engine
            iterator = engine.make_iterator(engine.visible_seq)
            got, scanned = run_process(env, oracle_merge(
                iterator._cursors, begin, engine.visible_seq, count, None
            ))
            pairs += got
            scans.append((len(iterator._cursors), scanned))
        return pairs, scans

    def test_p2kvs_scan_matches_the_oracle_warm_and_small(self):
        """The parallel SCAN (sub-scans hand over rows, the merge builds the
        pairs) against the oracle over each instance's own cursors, on twin
        stores; a sub-scan's ``entries_scanned`` shows in the read CPU its
        worker is charged."""
        missed = {1 << 30: 0, 512: 0}  # block cache: every block / two
        for block_cache_bytes in missed:
            for begin, count in ((0, 50), (120, 1), (203, 64), (390, 50), (0, 400)):
                env, kvs, ctx = self.loaded_p2kvs(block_cache_bytes)
                run_process(env, kvs.scan(ctx, key(begin), count))  # warm-up
                io, cpu = self.p2kvs_charged(env, kvs)
                pairs = run_process(env, kvs.scan(ctx, key(begin), count))
                io_after, cpu_after = self.p2kvs_charged(env, kvs)
                io, cpu = self.delta(io, io_after), self.delta(cpu, cpu_after)

                env, kvs, _ = self.loaded_p2kvs(block_cache_bytes)
                self.oracle_scan(env, kvs, key(begin), count)  # the same warm-up
                want_io = self.p2kvs_charged(env, kvs)[0]
                want, scans = self.oracle_scan(env, kvs, key(begin), count)
                want_io = self.delta(want_io, self.p2kvs_charged(env, kvs)[0])

                assert pairs == sorted(want)[:count]
                assert {(type(pair), len(pair)) for pair in pairs} <= {(tuple, 2)}
                assert io == want_io
                costs = kvs.workers[0].engine.costs
                assert cpu == [
                    pytest.approx(costs.seek_per_source * sources
                                  + costs.next_per_entry * scanned)
                    for sources, scanned in scans
                ]
                misses, reads = io[len(scans):2 * len(scans)], io[-2]
                assert reads == sum(misses)
                missed[block_cache_bytes] += reads
        assert missed == {1 << 30: 0, 512: missed[512]} and missed[512] > 0


class TestLevelCursor:
    """A table cursor over a level's run of files."""

    def test_walks_across_files(self, env):
        t1 = build_table(1, range(0, 5))
        t2 = build_table(2, range(5, 10))
        cursor = run_cursor(BlockCache(0), env.device, t1, t2)

        def work():
            yield from cursor.seek(key(3))
            out = []
            while cursor.current is not None:
                out.append(cursor.current[0])
                yield from cursor.advance()
            return out

        keys = run_process(env, work())
        assert keys == [key(i) for i in range(3, 10)]

    def test_a_seek_between_files_lands_in_the_next(self, env):
        """A key past one file's last block but short of the run's end lands
        on the next file's first entry, asking only for that file's block."""
        t1 = build_table(1, range(0, 5))
        t2 = build_table(2, range(10, 15))
        cache = RecordingCache()
        cursor = run_cursor(cache, env.device, t1, t2)
        run_process(env, cursor.seek(key(7)))
        assert cursor.current[0] == key(10) and cursor.table is t2
        assert cache.loads == [(2, 0)]

    def test_empty_level(self, env):
        cursor = run_cursor(BlockCache(0), env.device)

        def work():
            yield from cursor.seek(None)
            return cursor.current

        assert run_process(env, work()) is None

    def test_seek_past_all_files(self, env):
        t1 = build_table(1, range(0, 5))
        cursor = run_cursor(BlockCache(0), env.device, t1)

        def work():
            yield from cursor.seek(key(99))
            return cursor.current

        assert run_process(env, work()) is None
