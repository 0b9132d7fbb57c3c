"""The MemTable: a multi-version sorted write buffer.

The MemTable stores multi-versioned entries ``(key, seq, vtype, value)``
ordered by ``(key asc, seq desc)`` — the same internal-key ordering LevelDB
and RocksDB use, so the newest visible version of a key is the first match.
Deletes are tombstone entries (``VTYPE_DELETE``) that shadow older versions
and survive until compaction drops them at the bottom level.

The paper's Figure 6 attributes ~2.9 us of each write to "inserting key-value
pairs into MemTable, of which more than 90% is updating the skiplist index";
the engine charges that cost from its cost model, while this module provides
the *functional* ordered map as a bisect-maintained sorted array.  The
skiplist it stands for lives in ``tests/test_memtable.py`` as the model
:class:`MemTable` and :class:`MemTableCursor` are property-tested against.
"""

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from repro.perf import zones as _perf_zones

__all__ = [
    "MemTable",
    "MemTableCursor",
    "VTYPE_DELETE",
    "VTYPE_VALUE",
    "NOT_FOUND",
    "FOUND",
    "DELETED",
]

VTYPE_DELETE = 0
VTYPE_VALUE = 1

# Lookup outcomes.
NOT_FOUND = "not_found"
FOUND = "found"
DELETED = "deleted"

MAX_SEQ = 2**63 - 1

# Per-entry bookkeeping overhead used for the memtable's approximate size —
# sequence number, type tag and skiplist node pointers.
ENTRY_OVERHEAD = 24


class MemTable:
    """Multi-version sorted write buffer, flushed to an SSTable when full.

    Internally a bisect-maintained sorted array of internal keys with a
    parallel value array: identical ordering and visibility semantics to the
    reference skiplist in ``tests/test_memtable.py`` (the differential test
    there compares the two), but inserts and probes are C-level
    ``bisect``/``memmove`` operations — the memtable's *simulated* skiplist
    cost is charged by the engine's cost model, not by host-side pointer
    chasing.
    """

    def __init__(self, sim=None, track: str = ""):
        self._keys: List[Tuple[bytes, int]] = []
        self._vals: List[Tuple[int, bytes]] = []
        # Simulator handle (optional) so inserts can emit trace instants.
        self._sim = sim
        self._track = track
        self.approximate_size = 0
        self.entry_count = 0
        self.first_seq: Optional[int] = None
        self.last_seq: Optional[int] = None

    def add(self, seq: int, vtype: int, key: bytes, value: bytes) -> None:
        if self._sim is not None:
            tracer = self._sim.tracer
            if tracer is not None:
                tracer.instant(
                    "memtable:add",
                    "memtable",
                    self._track,
                    ("seq", "bytes"),
                    (seq, len(key) + len(value)),
                )
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("storage.memtable.insert")
        # Internal key (key, MAX_SEQ - seq) sorts newer versions first.
        ikey = (key, MAX_SEQ - seq)
        i = bisect_left(self._keys, ikey)
        self._keys.insert(i, ikey)
        self._vals.insert(i, (vtype, value))
        self.approximate_size += len(key) + len(value) + ENTRY_OVERHEAD
        self.entry_count += 1
        if self.first_seq is None:
            self.first_seq = seq
        self.last_seq = seq
        if _p is not None:
            _p.leave()

    def get(self, key: bytes, snapshot_seq: int = MAX_SEQ) -> Tuple[str, Optional[bytes]]:
        """Find the newest version of ``key`` visible at ``snapshot_seq``.

        Returns (state, value): (FOUND, value), (DELETED, None) or
        (NOT_FOUND, None).
        """
        keys = self._keys
        _p = _perf_zones.PROFILER
        if _p is None:
            i = bisect_left(keys, (key, MAX_SEQ - snapshot_seq))
        else:
            _p.enter("storage.memtable.search")
            i = bisect_left(keys, (key, MAX_SEQ - snapshot_seq))
            _p.leave()
        if i == len(keys) or keys[i][0] != key:
            return NOT_FOUND, None
        vtype, value = self._vals[i]
        if vtype == VTYPE_DELETE:
            return DELETED, None
        return FOUND, value

    def entries(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """All versions, ordered (key asc, seq desc): (key, seq, vtype, value)."""
        for (key, inv_seq), (vtype, value) in zip(self._keys, self._vals):
            yield key, MAX_SEQ - inv_seq, vtype, value

    def __len__(self) -> int:
        return self.entry_count

    @property
    def empty(self) -> bool:
        return self.entry_count == 0


class MemTableCursor:
    """Cursor over a MemTable's sorted arrays (in memory: never needs IO).

    Follows the cursor contract of :mod:`repro.engine.iterator` with the array
    as the block in hand (``skip`` never reports an edge).  Writers ``insert``
    into it while a scan is suspended on another source's block load, so ``run``
    and ``skip`` re-find the entry by internal key when its length changed.
    """

    table = None  # no SSTable behind it: the merge filters every entry

    def __init__(self, memtable: MemTable):
        self._keys = memtable._keys
        self._vals = memtable._vals
        self._idx = 0
        self._len = 0
        self.current: Optional[Tuple[bytes, int, int, bytes]] = None

    def seek(self, key: Optional[bytes]):
        keys = self._keys
        self._len = len(keys)
        self._idx = 0 if key is None else bisect_left(keys, (key, 0))
        self.skip(0)
        return ()

    def _anchor(self) -> int:
        keys = self._keys
        if len(keys) != self._len:
            self._len = len(keys)
            self._idx = bisect_left(keys, (self.current[0], MAX_SEQ - self.current[1]))
        return self._idx

    def run(self, bound, room: Optional[int]) -> List[tuple]:
        keys = self._keys
        i = self._anchor()
        hi = self._len if room is None or i + room > self._len else i + room
        if bound is not None:  # a heap entry (key, -seq, ...), as an internal key
            hi = bisect_left(keys, (bound[0], MAX_SEQ + bound[1]), i + 1, hi)
        return [
            (key, MAX_SEQ - inv_seq, vtype, value)
            for (key, inv_seq), (vtype, value) in zip(keys[i:hi], self._vals[i:hi])
        ]

    def skip(self, n: int) -> bool:
        i = self._idx = self._anchor() + n
        if i < self._len:
            key, inv_seq = self._keys[i]
            vtype, value = self._vals[i]
            self.current = (key, MAX_SEQ - inv_seq, vtype, value)
        else:
            self.current = None
        return True

    def advance(self):
        if self.current is not None:
            self.skip(1)
        return ()
