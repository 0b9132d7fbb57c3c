"""Cursors and the merging iterator for scans.

Every cursor (:class:`repro.storage.memtable.MemTableCursor`,
:class:`repro.storage.sstable.TableCursor`, :class:`LevelCursor`) follows one
contract:

* ``yield from cursor.seek(key)`` positions at the first entry with user key
  >= key (None = the start); ``cursor.current`` is then the entry tuple
  ``(key, seq, vtype, value)``, or None when exhausted.
* ``cursor.step()`` is synchronous: it moves to the next entry of the block
  (or array) already in hand and returns True, or returns False, leaving the
  cursor where it was, when the next entry lies past that block.
* ``yield from cursor.advance()`` moves to the next entry wherever it is.
  **IO happens only in** ``seek`` **and** ``advance``: a block load, and so a
  simulated yield, is paid per block crossed, never per entry stepped.

:class:`MergingIterator` heap-merges any number of cursors in internal-key
order, hides shadowed versions and tombstones, and applies the snapshot
filter — the read-side equivalent of RocksDB's MergeIterator that p2KVS's
serial SCAN strategy builds across instances (paper Section 4.4).  Its one
loop, :meth:`MergingIterator.collect`, runs a whole sub-scan in a single
generator frame.
"""

from bisect import bisect_left
from heapq import heapify, heappop, heapreplace
from typing import Generator, List, Optional, Tuple

from repro.storage.memtable import MAX_SEQ, MemTableCursor, VTYPE_DELETE

__all__ = ["LevelCursor", "MemTableCursor", "MergingIterator"]

Entry = Tuple[bytes, int, int, bytes]


class LevelCursor:
    """Cursor over a sorted, non-overlapping run of SSTables (level >= 1)."""

    def __init__(self, files: List, cache, device, page_cache=None):
        self._files = files  # List[FileMeta] sorted by smallest key
        self._largest = [f.largest for f in files]
        self._cache = cache
        self._device = device
        self._page_cache = page_cache
        self._idx = 0
        self._cursor = None
        self.current: Optional[Entry] = None

    def seek(self, key: Optional[bytes]) -> Generator:
        if not self._files:
            self.current = None
            return
        if key is None:
            self._idx = 0
        else:
            # First file whose largest >= key.
            self._idx = bisect_left(self._largest, key)
        yield from self._open_and_seek(key)

    def _open_and_seek(self, key: Optional[bytes]) -> Generator:
        while self._idx < len(self._files):
            meta = self._files[self._idx]
            self._cursor = meta.table.cursor(
                self._cache, self._device, self._page_cache
            )
            yield from self._cursor.seek(key)
            if self._cursor.current is not None:
                self.current = self._cursor.current
                return
            self._idx += 1
            key = None
        self._cursor = None
        self.current = None

    def step(self) -> bool:
        cursor = self._cursor
        if cursor is None or not cursor.step():
            return False
        self.current = cursor.current
        return True

    def advance(self) -> Generator:
        if self._cursor is None:
            return
        yield from self._cursor.advance()
        if self._cursor.current is not None:
            self.current = self._cursor.current
            return
        self._idx += 1
        yield from self._open_and_seek(None)


class MergingIterator:
    """Merges cursors in internal-key order with MVCC visibility rules.

    ``yield from it.seek(begin)`` then ``yield from it.collect(limit, end)``
    returning the next visible ``(key, value)`` pairs (tombstoned and
    shadowed keys skipped); a later ``collect`` continues where this one
    stopped.
    """

    def __init__(self, cursors: List, snapshot_seq: int = MAX_SEQ):
        self._cursors = cursors
        self._snapshot = snapshot_seq
        # (user key, -seq, cursor index) of each live cursor's entry.
        self._heap: List[Tuple[bytes, int, int]] = []
        self._last_user_key: Optional[bytes] = None
        self.entries_scanned = 0  # merged entries examined (for cost charging)

    def seek(self, begin: Optional[bytes]) -> Generator:
        self._heap = heap = []
        self._last_user_key = None
        for i, cursor in enumerate(self._cursors):
            yield from cursor.seek(begin)
            entry = cursor.current
            if entry is not None:
                heap.append((entry[0], -entry[1], i))
        heapify(heap)

    def collect(
        self, limit: Optional[int] = None, end: Optional[bytes] = None
    ) -> Generator:
        """Up to ``limit`` visible pairs, stopping after the first one past
        ``end`` (which is examined and charged, but not returned)."""
        heap = self._heap
        cursors = self._cursors
        snapshot = self._snapshot
        last = self._last_user_key
        out: List[Tuple[bytes, bytes]] = []
        scanned = 0
        while heap and (limit is None or len(out) < limit):
            i = heap[0][2]
            cursor = cursors[i]
            key, seq, vtype, value = cursor.current
            if not cursor.step():
                yield from cursor.advance()
            entry = cursor.current
            if entry is None:
                heappop(heap)
            else:
                heapreplace(heap, (entry[0], -entry[1], i))
            scanned += 1
            if seq > snapshot or key == last:
                continue  # invisible to this snapshot / older, shadowed version
            last = key
            if vtype == VTYPE_DELETE:
                continue  # tombstone hides the key
            if end is not None and key > end:
                break
            out.append((key, value))
        self._last_user_key = last
        self.entries_scanned += scanned
        return out

    def next_user(self) -> Generator:
        """Next visible (key, value) pair, or None at the end."""
        pairs = yield from self.collect(limit=1)
        return pairs[0] if pairs else None
