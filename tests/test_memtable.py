"""Tests (incl. property-based) for the MemTable, and the skiplist it is
checked against.

:class:`SkipList` is the reference the memtable's docstrings name: a real
probabilistic skiplist (LevelDB's shape: 12 levels, 1/4 promotion), kept here
as the oracle.  ``TestSkipList`` pins the oracle itself against a sorted
dict; ``TestMemTableAgainstSkipList`` holds ``MemTable``/``MemTableCursor``
to it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.memtable import (
    DELETED,
    FOUND,
    MAX_SEQ,
    NOT_FOUND,
    MemTable,
    MemTableCursor,
    VTYPE_DELETE,
    VTYPE_VALUE,
)

_MAX_LEVEL = 12
_BRANCHING = 4  # P(level promotion) = 1/4, as in LevelDB


class SkipList:
    """A probabilistic skiplist mapping orderable keys to values.

    Deterministic given the seed.  Supports insert (the memtable encodes
    uniqueness via the sequence number, so equal keys are never inserted),
    exact ``get``, and ``iter_from`` for ordered traversal.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        # Node: [key, value, forward_0, forward_1, ...]
        self._head = [None, None] + [None] * _MAX_LEVEL
        self._level = 1
        self._len = 0

    def __len__(self):
        return self._len

    def _random_level(self):
        level = 1
        while level < _MAX_LEVEL and self._rng.randrange(_BRANCHING) == 0:
            level += 1
        return level

    def insert(self, key, value):
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node[2 + i] is not None and node[2 + i][0] < key:
                node = node[2 + i]
            update[i] = node
        level = self._random_level()
        if level > self._level:
            self._level = level
        new_node = [key, value] + [None] * level
        for i in range(level):
            new_node[2 + i] = update[i][2 + i]
            update[i][2 + i] = new_node
        self._len += 1

    def get(self, key):
        """Return the value for an exactly-equal key, else None."""
        node = self._find_ge(key)
        if node is not None and node[0] == key:
            return node[1]
        return None

    def _find_ge(self, key):
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node[2 + i] is not None and node[2 + i][0] < key:
                node = node[2 + i]
        return node[2]

    def iter_from(self, key=None):
        """Yield (key, value) pairs in key order, starting at >= key."""
        node = self._head[2] if key is None else self._find_ge(key)
        while node is not None:
            yield node[0], node[1]
            node = node[2]

    def __iter__(self):
        return self.iter_from(None)


class TestSkipList:
    def test_insert_and_get(self):
        sl = SkipList()
        sl.insert(5, "five")
        sl.insert(1, "one")
        sl.insert(3, "three")
        assert sl.get(3) == "three"
        assert sl.get(2) is None
        assert len(sl) == 3

    def test_iteration_is_sorted(self):
        sl = SkipList()
        for k in [9, 2, 7, 4, 1, 8]:
            sl.insert(k, str(k))
        assert [k for k, _ in sl] == [1, 2, 4, 7, 8, 9]

    def test_iter_from_midpoint(self):
        sl = SkipList()
        for k in range(0, 20, 2):
            sl.insert(k, k)
        assert [k for k, _ in sl.iter_from(7)] == [8, 10, 12, 14, 16, 18]

    def test_deterministic_given_seed(self):
        a, b = SkipList(seed=7), SkipList(seed=7)
        for k in range(100):
            a.insert(k, k)
            b.insert(k, k)
        assert list(a) == list(b)

    @given(st.lists(st.integers(0, 10000), unique=True))
    @settings(max_examples=50)
    def test_matches_sorted_dict_model(self, keys):
        sl = SkipList(seed=1)
        model = {}
        for k in keys:
            sl.insert(k, k * 2)
            model[k] = k * 2
        assert list(sl) == sorted(model.items())
        for k in keys[:20]:
            assert sl.get(k) == model[k]


class TestMemTable:
    def test_put_get(self):
        mt = MemTable()
        mt.add(1, VTYPE_VALUE, b"k1", b"v1")
        state, value = mt.get(b"k1")
        assert (state, value) == (FOUND, b"v1")
        assert mt.get(b"missing") == (NOT_FOUND, None)

    def test_newest_version_wins(self):
        mt = MemTable()
        mt.add(1, VTYPE_VALUE, b"k", b"old")
        mt.add(2, VTYPE_VALUE, b"k", b"new")
        assert mt.get(b"k") == (FOUND, b"new")

    def test_tombstone_shadows_value(self):
        mt = MemTable()
        mt.add(1, VTYPE_VALUE, b"k", b"v")
        mt.add(2, VTYPE_DELETE, b"k", b"")
        assert mt.get(b"k") == (DELETED, None)

    def test_snapshot_reads_see_old_versions(self):
        mt = MemTable()
        mt.add(1, VTYPE_VALUE, b"k", b"v1")
        mt.add(5, VTYPE_VALUE, b"k", b"v5")
        assert mt.get(b"k", snapshot_seq=3) == (FOUND, b"v1")
        assert mt.get(b"k", snapshot_seq=5) == (FOUND, b"v5")

    def test_snapshot_before_any_version(self):
        mt = MemTable()
        mt.add(10, VTYPE_VALUE, b"k", b"v")
        assert mt.get(b"k", snapshot_seq=5) == (NOT_FOUND, None)

    def test_entries_ordered_key_asc_seq_desc(self):
        mt = MemTable()
        mt.add(1, VTYPE_VALUE, b"b", b"1")
        mt.add(2, VTYPE_VALUE, b"a", b"2")
        mt.add(3, VTYPE_VALUE, b"b", b"3")
        entries = list(mt.entries())
        assert [(k, s) for k, s, _, _ in entries] == [(b"a", 2), (b"b", 3), (b"b", 1)]

    def test_size_accounting(self):
        mt = MemTable()
        assert mt.empty
        mt.add(1, VTYPE_VALUE, b"key", b"value")
        assert mt.approximate_size > len(b"key") + len(b"value")
        assert len(mt) == 1
        assert not mt.empty

    def test_seq_tracking(self):
        mt = MemTable()
        mt.add(5, VTYPE_VALUE, b"a", b"")
        mt.add(9, VTYPE_VALUE, b"b", b"")
        assert (mt.first_seq, mt.last_seq) == (5, 9)

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=8),
                st.binary(max_size=8),
                st.booleans(),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_matches_dict_model(self, ops):
        mt = MemTable()
        model = {}
        for seq, (key, value, is_delete) in enumerate(ops, start=1):
            if is_delete:
                mt.add(seq, VTYPE_DELETE, key, b"")
                model[key] = None
            else:
                mt.add(seq, VTYPE_VALUE, key, value)
                model[key] = value
        for key, expected in model.items():
            state, value = mt.get(key)
            if expected is None:
                assert state == DELETED
            else:
                assert (state, value) == (FOUND, expected)


class SkipListMemTable:
    """The memtable contract stated over the reference skiplist: versions
    keyed by the internal key ``(key, MAX_SEQ - seq)``, newest first."""

    def __init__(self):
        self.index = SkipList(seed=1)

    def add(self, seq, vtype, key, value):
        self.index.insert((key, MAX_SEQ - seq), (vtype, value))

    def get(self, key, snapshot_seq=MAX_SEQ):
        for (found, _inv), (vtype, value) in self.index.iter_from(
            (key, MAX_SEQ - snapshot_seq)
        ):
            if found != key:
                break
            return (DELETED, None) if vtype == VTYPE_DELETE else (FOUND, value)
        return NOT_FOUND, None

    def entries(self, ikey=None):
        """(key, seq, vtype, value) in order, from internal key ``ikey`` on."""
        return [
            (key, MAX_SEQ - inv, vtype, value)
            for (key, inv), (vtype, value) in self.index.iter_from(ikey)
        ]


def _seek(memtable, key):
    cursor = MemTableCursor(memtable)
    for _ in cursor.seek(key):  # in memory: the generator never yields
        raise AssertionError("a memtable seek needs no IO")
    return cursor


_KEYS = st.binary(min_size=1, max_size=2).map(lambda raw: bytes(b % 3 + 97 for b in raw))
_ADDS = st.lists(
    st.tuples(st.integers(1, 120), _KEYS, st.binary(max_size=4), st.booleans()),
    unique_by=lambda add: add[0],  # a seq names one version
    max_size=40,
)


class TestMemTableAgainstSkipList:
    @given(_ADDS, st.integers(0, 40), st.one_of(st.none(), st.integers(1, 5)))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_skiplist_model(self, adds, suspend_at, room):
        memtable, model = MemTable(), SkipListMemTable()
        suspended = at = None
        for step, (seq, key, value, is_delete) in enumerate(adds):
            if step == suspend_at:  # a scan parks here while writers go on
                suspended = _seek(memtable, key)
                at = suspended.current
            vtype = VTYPE_DELETE if is_delete else VTYPE_VALUE
            for table in (memtable, model):
                table.add(seq, vtype, key, b"" if is_delete else value)
            for snapshot in (seq - 1, seq, seq + 1, MAX_SEQ):
                assert memtable.get(key, snapshot) == model.get(key, snapshot)
        # Every key at a snapshot below, at and above every version.
        keys = sorted({key for _seq, key, _value, _del in adds}) + [b"zz"]
        snapshots = {0, MAX_SEQ}
        for seq, _key, _value, _del in adds:
            snapshots.update((seq - 1, seq, seq + 1))
        for key in keys:
            for snapshot in sorted(snapshots):
                assert memtable.get(key, snapshot) == model.get(key, snapshot)
        # Full ordered iteration, and a cursor from every key (and before all).
        assert list(memtable.entries()) == model.entries()
        assert len(memtable) == len(model.index) == len(adds)
        for key in [None, b"`"] + keys:
            cursor = _seek(memtable, key)
            expected = model.entries(None if key is None else (key, 0))
            assert cursor.current == (expected[0] if expected else None)
            if expected:
                assert cursor.run(None, None) == expected
                assert cursor.run(None, room) == expected[:room]
                # A bound is a heap entry (key, -seq, ...): the run stops
                # before it but always hands over the entry in hand.
                for before, bound in enumerate(expected):
                    stop = max(1, before)
                    if room is not None:
                        stop = min(stop, room)
                    assert cursor.run((bound[0], -bound[1]), room) == expected[:stop]
        # The parked cursor re-finds its entry among the later inserts.
        if at is not None:
            assert suspended.run(None, None) == model.entries((at[0], MAX_SEQ - at[1]))
