"""Unit tests for the VersionSet/manifest and the merging iterator."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.env import make_env
from repro.engine.iterator import LevelCursor, MemTableCursor, MergingIterator
from repro.engine.options import EngineOptions
from repro.engine.version import FileMeta, VersionEdit, VersionSet
from repro.storage.memtable import MAX_SEQ, MemTable, VTYPE_DELETE, VTYPE_VALUE
from repro.storage.sstable import SSTableBuilder
from tests.conftest import run_process


def key(i):
    return b"key%06d" % i


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
                VersionEdit(added=[(1, FileMeta.from_table(t1))])
            )
            yield from versions.log_and_apply(
                VersionEdit(added=[(1, FileMeta.from_table(t2))])
            )

        run_process(env, work())
        files = versions.current.level_files(1)
        assert [f.number for f in files] == [2, 1]  # sorted by smallest key

    def test_l0_sorted_newest_first(self, env):
        versions = self.make_versions(env)

        def work():
            for number in (1, 2, 3):
                table = build_table(number, range(5))
                yield from versions.log_and_apply(
                    VersionEdit(added=[(0, FileMeta.from_table(table))])
                )

        run_process(env, work())
        assert [f.number for f in versions.current.level_files(0)] == [3, 2, 1]

    def test_delete_edit_removes(self, env):
        versions = self.make_versions(env)
        table = build_table(7, range(5))

        def work():
            yield from versions.log_and_apply(
                VersionEdit(added=[(0, FileMeta.from_table(table))])
            )
            yield from versions.log_and_apply(VersionEdit(deleted=[(0, 7)]))

        run_process(env, work())
        assert versions.current.level_files(0) == []

    def test_recover_rebuilds_from_manifest(self, env):
        versions = self.make_versions(env)
        table = build_table(3, range(8))
        blob = versions.blob_name(3)
        env.disk.put_blob(blob, table, table.file_size)
        env.disk.commit_blob(blob)

        def work():
            yield from versions.log_and_apply(
                VersionEdit(added=[(2, FileMeta.from_table(table))], log_number=9)
            )

        run_process(env, work())
        env.disk.crash()
        fresh = VersionSet(env, "db", EngineOptions())

        def recover():
            yield from fresh.recover()

        run_process(env, recover())
        assert [f.number for f in fresh.current.level_files(2)] == [3]
        assert fresh.log_number == 9
        assert fresh.next_file_number == 4

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
                VersionEdit(added=[(1, FileMeta.from_table(t))])
            )

        run_process(env, work())
        version = versions.current
        assert version.overlapping(1, key(15), key(30)) != []
        assert version.overlapping(1, key(25), key(30)) == []
        assert version.level_bytes(1) == t.file_size
        assert version.total_files() == 1


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
            table.cursor(None, env.device),
        ]
        pairs = self.run_iterator(env, cursors)
        assert [k for k, _ in pairs] == [key(0), key(1), key(2)]

    def test_newest_version_wins_across_sources(self, env):
        memtable = MemTable()
        memtable.add(10, VTYPE_VALUE, key(0), b"newer")
        table = build_table(1, [0], seq=1)
        cursors = [MemTableCursor(memtable), table.cursor(None, env.device)]
        pairs = self.run_iterator(env, cursors)
        assert pairs == [(key(0), b"newer")]

    def test_tombstone_hides_older_table_entry(self, env):
        memtable = MemTable()
        memtable.add(10, VTYPE_DELETE, key(0), b"")
        table = build_table(1, [0, 1], seq=1)
        cursors = [MemTableCursor(memtable), table.cursor(None, env.device)]
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
        cursors = [t1.cursor(None, env.device), t2.cursor(None, env.device)]
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
        seen = []
        while cursor.current is not None:
            seen.append(cursor.current[0])
            list(cursor.advance())
        assert seen == [b"b", b"c", b"d"]

    def test_insert_ahead_of_a_suspended_cursor_is_visited(self):
        memtable = MemTable()
        memtable.add(1, VTYPE_VALUE, b"b", b"")
        memtable.add(2, VTYPE_VALUE, b"d", b"")
        cursor = MemTableCursor(memtable)
        list(cursor.seek(None))
        memtable.add(3, VTYPE_VALUE, b"c", b"")
        assert cursor.step() and cursor.current[:2] == (b"c", 3)
        assert cursor.step() and cursor.current[:2] == (b"d", 2)
        assert cursor.step() and cursor.current is None


class RecordingCache:
    """A block cache that always misses and logs every (table, block) asked."""

    def __init__(self):
        self.loads = []

    def get(self, cache_key):
        self.loads.append(cache_key)
        return None

    def put(self, cache_key, block, nbytes):
        pass


def oracle_merge(cursors, begin, snapshot, limit, end):
    """The per-entry merge (heappop, advance(), heappush for every entry) that
    ``MergingIterator.collect`` replaced, kept as the reference."""
    heap, out, scanned, last = [], [], 0, None

    def push(i):
        entry = cursors[i].current
        if entry is not None:
            heapq.heappush(heap, ((entry[0], MAX_SEQ - entry[1]), i))

    for i, cursor in enumerate(cursors):
        yield from cursor.seek(begin)
        push(i)
    while heap and (limit is None or len(out) < limit):
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


def collect_merge(cursors, begin, snapshot, limit, end):
    iterator = MergingIterator(cursors, snapshot)
    yield from iterator.seek(begin)
    out = yield from iterator.collect(limit, end)
    return out, iterator.entries_scanned


_KEY_IDS = st.integers(0, 24)
_BOUND = st.none() | _KEY_IDS.map(key)


class TestCollectMatchesPerEntryMerge:
    @staticmethod
    def build_cursors(writes, env, cache):
        """Sources 0-1: memtables; 2: one multi-block SSTable; 3: a level of
        two files.  ``writes[n] = (source, key id, is_delete)`` has seq n+1."""
        by_source = {0: [], 1: [], 2: [], 3: []}
        for seq, (source, key_id, is_delete) in enumerate(writes, start=1):
            by_source[source].append(
                (key(key_id), seq, VTYPE_DELETE if is_delete else VTYPE_VALUE,
                 b"s%d-%d" % (source, seq))
            )
        cursors = []
        for source in (0, 1):
            memtable = MemTable()
            for k, seq, vtype, value in by_source[source]:
                memtable.add(seq, vtype, k, value)
            cursors.append(MemTableCursor(memtable))

        def table(number, entries):
            builder = SSTableBuilder(number, block_target=48)  # 1-2 per block
            for k, seq, vtype, value in sorted(
                entries, key=lambda e: (e[0], -e[1])
            ):
                builder.add(k, seq, vtype, value)
            return builder.finish()

        if by_source[2]:
            cursors.append(table(2, by_source[2]).cursor(cache, env.device))
        halves = [
            [e for e in by_source[3] if e[0] < key(12)],
            [e for e in by_source[3] if e[0] >= key(12)],
        ]
        files = [
            FileMeta.from_table(table(3 + n, half))
            for n, half in enumerate(halves) if half
        ]
        cursors.append(LevelCursor(files, cache, env.device))
        return cursors

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 3), _KEY_IDS, st.booleans()), max_size=80
        ),
        begin=_BOUND,
        end=_BOUND,
        limit=st.none() | st.integers(0, 30),
        snapshot=st.integers(0, 80) | st.just(MAX_SEQ),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_pairs_charges_and_block_loads(
        self, writes, begin, end, limit, snapshot
    ):
        outcomes = []
        for merge in (oracle_merge, collect_merge):
            env = make_env(n_cores=2)
            cache = RecordingCache()
            cursors = self.build_cursors(writes, env, cache)
            pairs, scanned = run_process(
                env, merge(cursors, begin, snapshot, limit, end)
            )
            outcomes.append(
                (pairs, scanned, cache.loads, env.device.io_count.get("read"),
                 env.sim.now)
            )
        assert outcomes[0] == outcomes[1]


class TestLevelCursor:
    def test_walks_across_files(self, env):
        t1 = build_table(1, range(0, 5))
        t2 = build_table(2, range(5, 10))
        files = [FileMeta.from_table(t1), FileMeta.from_table(t2)]
        cursor = LevelCursor(files, None, env.device)

        def work():
            yield from cursor.seek(key(3))
            out = []
            while cursor.current is not None:
                out.append(cursor.current[0])
                yield from cursor.advance()
            return out

        keys = run_process(env, work())
        assert keys == [key(i) for i in range(3, 10)]

    def test_empty_level(self, env):
        cursor = LevelCursor([], None, env.device)

        def work():
            yield from cursor.seek(None)
            return cursor.current

        assert run_process(env, work()) is None

    def test_seek_past_all_files(self, env):
        t1 = build_table(1, range(0, 5))
        cursor = LevelCursor([FileMeta.from_table(t1)], None, env.device)

        def work():
            yield from cursor.seek(key(99))
            return cursor.current

        assert run_process(env, work()) is None
