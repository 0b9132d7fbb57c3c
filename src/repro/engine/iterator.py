"""Cursors and the merging iterator for scans.

Every cursor (:class:`repro.storage.memtable.MemTableCursor`,
:class:`repro.storage.sstable.TableCursor`, :class:`LevelCursor`) follows one
contract:

* ``yield from cursor.seek(key)`` positions at the first entry with user key
  >= key (None = the start); ``cursor.current`` is then the entry tuple
  ``(key, seq, vtype, value)``, or None when exhausted.
* ``cursor.run(bound, room)`` is synchronous and returns a *run*: the entries
  from the current one on that lie in the block (or memtable array) in hand,
  sort strictly before ``bound`` in internal-key order (``bound`` is another
  cursor's heap entry ``(key, -seq, index)``, or None) and number at most
  ``room`` (None = any).  The current entry is always in it, so a tie goes
  back to the heap, which breaks it by index.
* ``cursor.skip(n)`` consumes ``n`` entries; it returns False, leaving the
  cursor on the block's last entry, when the next one lies past the block.
* ``yield from cursor.advance()`` moves to the next entry wherever it is.
  **IO happens only in** ``seek`` **and** ``advance``: a block load, and so a
  simulated yield, is paid per block crossed, never per entry.
* ``seek`` and ``advance`` are plain calls.  When every block they touch is in
  memory or in the engine's block cache they do the whole step and return
  ``()``; otherwise they stop at the first block that missed and return a
  generator that fetches it and does the rest of the step in the same order
  (the idiom of ``CPUSet.exec_now``).  Either way the caller writes
  ``yield from``; a caller that composes steps tests the result (``()`` is
  false, a generator true) and continues in a generator only after a miss.
* ``cursor.table`` is the SSTable the cursor stands in (None: a memtable).  A
  run from a **plain** one (one version per user key, no tombstone) whose
  ``max_seq`` the snapshot covers is sliced: only its first entry can be shadowed.

:class:`MergingIterator` heap-merges any number of cursors in internal-key
order, hides shadowed versions and tombstones, and applies the snapshot
filter — the read-side equivalent of RocksDB's MergeIterator that p2KVS's
serial SCAN strategy builds across instances (paper Section 4.4).  Its one
loop, :meth:`MergingIterator.collect`, runs a whole sub-scan in a single
generator frame, one heap operation per run, and returns the visible entries
themselves (*rows*: key first, value last); pairs are built by whoever
returns them, for the rows it returns.
"""

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from operator import itemgetter
from typing import Generator, List, Optional, Tuple

from repro.storage.memtable import MAX_SEQ, MemTableCursor, VTYPE_DELETE

__all__ = ["LevelCursor", "MemTableCursor", "MergingIterator"]

Entry = Tuple[bytes, int, int, bytes]
_user_key = itemgetter(0)


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
        self.table = None  # the file the cursor stands in
        self.current: Optional[Entry] = None

    def seek(self, key: Optional[bytes]):
        if not self._files:
            self.current = None
            return ()
        # First file whose largest >= key.
        self._idx = 0 if key is None else bisect_left(self._largest, key)
        return self._open(key)

    def _open(self, key: Optional[bytes]):
        """Seek the file at ``_idx`` (past the last one: exhausted)."""
        if self._idx >= len(self._files):
            self._cursor = None
            self.current = None
            return ()
        self.table = self._files[self._idx].table
        self._cursor = self.table.cursor(
            self._cache, self._device, self._page_cache
        )
        return self._land(self._cursor.seek(key))

    def _land(self, pending):
        """Take the file cursor's entry once ``pending``, its unfinished step
        (or ``()``), has run; an exhausted file moves on to the next."""
        if pending:
            return self._land_after(pending)
        if self._cursor.current is not None:
            self.current = self._cursor.current
            return ()
        self._idx += 1
        return self._open(None)

    def _land_after(self, pending: Generator) -> Generator:
        yield from pending
        yield from self._land(())

    def run(self, bound, room: Optional[int]) -> List[Entry]:
        return self._cursor.run(bound, room)

    def skip(self, n: int) -> bool:
        moved = self._cursor.skip(n)
        self.current = self._cursor.current
        return moved

    def advance(self):
        if self._cursor is None:
            return ()
        return self._land(self._cursor.advance())


class MergingIterator:
    """Merges cursors in internal-key order with MVCC visibility rules.

    ``yield from it.seek(begin)`` then ``yield from it.collect(limit, end)``
    returning the next visible entries (tombstoned and shadowed keys
    skipped); a later ``collect`` continues where this one stopped.
    """

    def __init__(self, cursors: List, snapshot_seq: int = MAX_SEQ):
        self._cursors = cursors
        self._snapshot = snapshot_seq
        # (user key, -seq, cursor index) of each live cursor's entry.
        self._heap: List[Tuple[bytes, int, int]] = []
        self._last_user_key: Optional[bytes] = None
        self.entries_scanned = 0  # merged entries examined (for cost charging)

    def seek(self, begin: Optional[bytes]):
        """Seek every cursor, in order, and build the heap (a plain call
        unless a cursor misses the block cache: the cursor contract)."""
        self._heap = []
        self._last_user_key = None
        return self._seek_from(0, begin)

    def _seek_from(self, i: int, begin: Optional[bytes]):
        heap = self._heap
        cursors = self._cursors
        for i in range(i, len(cursors)):
            cursor = cursors[i]
            pending = cursor.seek(begin)
            if pending:
                return self._seek_after(pending, i, begin)
            entry = cursor.current
            if entry is not None:
                heap.append((entry[0], -entry[1], i))
        heapify(heap)
        return ()

    def _seek_after(
        self, pending: Generator, i: int, begin: Optional[bytes]
    ) -> Generator:
        """Cursor ``i``'s seek after its block missed, then the rest."""
        yield from pending
        entry = self._cursors[i].current
        if entry is not None:
            self._heap.append((entry[0], -entry[1], i))
        yield from self._seek_from(i + 1, begin)

    def collect(
        self, limit: Optional[int] = None, end: Optional[bytes] = None
    ) -> Generator:
        """Up to ``limit`` visible entries ``(key, seq, vtype, value)``,
        stopping after the first one past ``end`` (which is examined and
        charged, but not returned)."""
        heap = self._heap
        cursors = self._cursors
        snapshot = self._snapshot
        last = self._last_user_key
        out: List[Entry] = []
        scanned = 0
        past_end = False
        room = limit  # entries still wanted (None: any number)
        while heap and room != 0 and not past_end:
            i = heap[0][2]
            cursor = cursors[i]
            if room == 1:  # next_user: the current entry is the run, filtered in place
                entry = cursor.current
                key, seq, vtype, _value = entry
                used = 1
                if seq <= snapshot and key != last:
                    last = key
                    if vtype != VTYPE_DELETE:
                        past_end = end is not None and key > end
                        if not past_end:
                            out.append(entry)
            else:
                # Up to the runner-up, the root's smaller child, all is this cursor's.
                n = len(heap)
                bound = None if n == 1 else heap[1] if n == 2 else min(heap[1], heap[2])
                run = cursor.run(bound, room)
                used = len(run)
                table = cursor.table if used > 1 else None  # one entry: no slice
                if table is not None and table.plain and table.max_seq <= snapshot:
                    # All visible, live, distinct keys: only the first can be shadowed.
                    first = 1 if run[0][0] == last else 0
                    cut = used
                    if end is not None and run[-1][0] > end:
                        cut = bisect_right(run, end, first, key=_user_key)
                        used = cut + 1  # run[cut], first pair past ``end``, is examined
                        past_end = True
                    out += run[first:cut]
                    last = run[used - 1][0]
                else:
                    used = 0
                    for entry in run:
                        key, seq, vtype, _value = entry
                        used += 1
                        if seq > snapshot or key == last:
                            continue  # invisible to this snapshot / shadowed
                        last = key
                        if vtype == VTYPE_DELETE:
                            continue  # tombstone hides the key
                        if end is not None and key > end:
                            past_end = True
                            break
                        out.append(entry)
            scanned += used
            if not cursor.skip(used):
                yield from cursor.advance()
            entry = cursor.current
            if entry is None:
                heappop(heap)
            else:
                heapreplace(heap, (entry[0], -entry[1], i))
            room = limit and limit - len(out)
        self._last_user_key = last
        self.entries_scanned += scanned
        return out

    def next_user(self) -> Generator:
        """Next visible (key, value) pair, or None at the end."""
        entries = yield from self.collect(limit=1)
        return (entries[0][0], entries[0][3]) if entries else None
