"""Unit + property tests for compaction picking and MVCC dedup rules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compaction import dedup_entries, merge_sorted_runs
from repro.storage.memtable import MAX_SEQ, VTYPE_DELETE, VTYPE_VALUE


def entry(key, seq, vtype=VTYPE_VALUE, value=b"v"):
    return (key, seq, vtype, value)


def internal_sorted(entries):
    return sorted(entries, key=lambda e: (e[0], MAX_SEQ - e[1]))


class TestMergeSortedRuns:
    def test_merges_in_internal_order(self):
        run1 = internal_sorted([entry(b"a", 1), entry(b"c", 3)])
        run2 = internal_sorted([entry(b"b", 2), entry(b"c", 5)])
        merged = list(merge_sorted_runs([run1, run2]))
        assert [(e[0], e[1]) for e in merged] == [
            (b"a", 1),
            (b"b", 2),
            (b"c", 5),  # newer version of c first
            (b"c", 3),
        ]

    def test_empty_runs(self):
        assert list(merge_sorted_runs([])) == []
        assert list(merge_sorted_runs([[], []])) == []

    @given(
        versions=st.lists(
            st.tuples(
                st.sampled_from([b"", b"a", b"ab", b"b", b"k1", b"k2"]),
                st.booleans(),  # is_delete
                st.integers(0, 3),  # which run holds this version
            ),
            max_size=40,
        ),
        snapshots=st.lists(st.integers(0, 41), max_size=3),
        bottom=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_heap_merge_it_replaced(self, versions, snapshots, bottom):
        """The k-way ``heapq.merge`` under a per-entry key function, kept as
        the oracle: same merged order (duplicate keys across runs,
        tombstones), hence the same survivors under live snapshots."""
        import heapq

        def heap_merge(runs):
            return list(heapq.merge(*runs, key=lambda e: (e[0], MAX_SEQ - e[1])))

        runs = [[], [], [], []]
        for seq, (key, is_delete, run) in enumerate(versions, start=1):
            runs[run].append(
                entry(key, seq, VTYPE_DELETE if is_delete else VTYPE_VALUE,
                      b"" if is_delete else b"v%d" % seq)
            )
        runs = [internal_sorted(run) for run in runs]
        merged = merge_sorted_runs(runs)
        assert merged == heap_merge(runs)
        assert merged == heap_merge(runs[::-1])  # run order is immaterial
        live = sorted(set(snapshots))
        assert list(dedup_entries(merged, live, bottom)) == list(
            dedup_entries(heap_merge(runs), live, bottom)
        )


class TestDedup:
    def test_keeps_only_newest_without_snapshots(self):
        entries = internal_sorted(
            [entry(b"k", 1, value=b"old"), entry(b"k", 5, value=b"new")]
        )
        out = list(dedup_entries(entries, [], drop_tombstones=False))
        assert out == [entry(b"k", 5, value=b"new")]

    def test_snapshot_pins_old_version(self):
        entries = internal_sorted(
            [entry(b"k", 1, value=b"old"), entry(b"k", 5, value=b"new")]
        )
        out = list(dedup_entries(entries, [3], drop_tombstones=False))
        assert out == [entry(b"k", 5, value=b"new"), entry(b"k", 1, value=b"old")]

    def test_snapshot_between_versions_only_keeps_needed(self):
        entries = internal_sorted(
            [
                entry(b"k", 1, value=b"v1"),
                entry(b"k", 3, value=b"v3"),
                entry(b"k", 5, value=b"v5"),
            ]
        )
        # Snapshot at 3 sees v3; v1 is shadowed for every reader.
        out = list(dedup_entries(entries, [3], drop_tombstones=False))
        assert [e[1] for e in out] == [5, 3]

    def test_tombstone_kept_above_bottom(self):
        entries = internal_sorted(
            [entry(b"k", 1, value=b"old"), entry(b"k", 5, VTYPE_DELETE, b"")]
        )
        out = list(dedup_entries(entries, [], drop_tombstones=False))
        assert out == [entry(b"k", 5, VTYPE_DELETE, b"")]

    def test_tombstone_dropped_at_bottom(self):
        entries = internal_sorted(
            [entry(b"k", 1, value=b"old"), entry(b"k", 5, VTYPE_DELETE, b"")]
        )
        out = list(dedup_entries(entries, [], drop_tombstones=True))
        assert out == []  # the key ceases to exist; no resurrection

    def test_tombstone_with_snapshot_below_is_kept(self):
        entries = internal_sorted(
            [entry(b"k", 1, value=b"old"), entry(b"k", 5, VTYPE_DELETE, b"")]
        )
        out = list(dedup_entries(entries, [2], drop_tombstones=True))
        # Snapshot 2 must still see the old value; the tombstone must still
        # shadow it for newer readers.
        assert entry(b"k", 1, value=b"old") in out
        assert entry(b"k", 5, VTYPE_DELETE, b"") in out

    def test_multiple_keys_independent(self):
        entries = internal_sorted(
            [entry(b"a", 1), entry(b"a", 2), entry(b"b", 3), entry(b"c", 4)]
        )
        out = list(dedup_entries(entries, [], drop_tombstones=False))
        assert [(e[0], e[1]) for e in out] == [(b"a", 2), (b"b", 3), (b"c", 4)]

    @given(
        versions=st.lists(
            st.tuples(
                st.sampled_from([b"k1", b"k2", b"k3"]),
                st.booleans(),  # is_delete
            ),
            min_size=1,
            max_size=30,
        ),
        snapshot_offset=st.integers(0, 31),
        bottom=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_visibility_preserved_for_live_readers(
        self, versions, snapshot_offset, bottom
    ):
        """For the latest reader and any live snapshot, the visible value of
        every key must be identical before and after dedup."""
        entries = [
            entry(key, seq, VTYPE_DELETE if is_delete else VTYPE_VALUE,
                  b"" if is_delete else b"v%d" % seq)
            for seq, (key, is_delete) in enumerate(versions, start=1)
        ]
        snapshots = [snapshot_offset] if snapshot_offset <= len(versions) else []
        ordered = internal_sorted(entries)
        surviving = list(
            dedup_entries(ordered, sorted(snapshots), drop_tombstones=bottom)
        )

        def visible(source, key, at_seq):
            best = None
            for k, seq, vtype, value in source:
                if k == key and seq <= at_seq:
                    if best is None or seq > best[0]:
                        best = (seq, vtype, value)
            if best is None or best[1] == VTYPE_DELETE:
                return None
            return best[2]

        readers = [MAX_SEQ] + snapshots
        for at_seq in readers:
            for key in (b"k1", b"k2", b"k3"):
                assert visible(ordered, key, at_seq) == visible(
                    surviving, key, at_seq
                ), (key, at_seq)
