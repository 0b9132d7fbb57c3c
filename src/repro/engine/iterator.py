"""Cursors and the merging iterator for scans.

Both cursor kinds, :class:`repro.storage.memtable.MemTableCursor` and
:class:`repro.storage.sstable.TableCursor` (over a sorted run of tables: one
L0 file or FLSM run, or a whole level >= 1), follow one contract:

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
* ``cursor.table`` is the SSTable the cursor stands in (a table cursor
  follows its run from file to file), or a memtable cursor's memtable.  A run
  from a **plain** one (one version per user key, no tombstone) whose
  ``max_seq`` the snapshot covers is sliced: only its first entry can be
  shadowed.  A memtable's flags are read with the run they judge, in the same
  step, so inserts while a scan waits can only clear them first.

:class:`MergingIterator` heap-merges any number of cursors in internal-key
order, hides shadowed versions and tombstones, and applies the snapshot
filter — the read-side equivalent of RocksDB's MergeIterator that p2KVS's
serial SCAN strategy builds across instances (paper Section 4.4).  Its one
loop merges a whole sub-scan with one heap operation per run and returns the
visible entries themselves (*rows*: key first, value last); pairs are built
by whoever returns them, for the rows it returns.  ``seek`` follows the
cursor contract, and so does :meth:`MergingIterator.collect`, except that
done, it returns the list rather than ``()``: a plain call while every block
it crosses is cached, a generator (returning the list) from its first miss
on.  A caller tests ``type(result) is list`` and ``yield from`` only a
generator.
"""

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from operator import itemgetter
from typing import Generator, List, Optional, Tuple

from repro.storage.memtable import MAX_SEQ, MemTableCursor, VTYPE_DELETE

__all__ = ["MemTableCursor", "MergingIterator"]

Entry = Tuple[bytes, int, int, bytes]
_user_key = itemgetter(0)


class MergingIterator:
    """Merges cursors in internal-key order with MVCC visibility rules.

    ``yield from it.seek(begin)``, then ``it.collect(limit, end)`` for the
    next visible entries (tombstoned and shadowed keys skipped), or the
    generator that returns them after a block-cache miss; a later
    ``collect`` continues where this one stopped.
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
        heap = self._heap = []
        self._last_user_key = None
        cursors = self._cursors
        for i in range(len(cursors)):
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
        """The rest of :meth:`seek` once cursor ``i``'s block missed."""
        heap = self._heap
        cursors = self._cursors
        yield from pending
        while True:
            entry = cursors[i].current
            if entry is not None:
                heap.append((entry[0], -entry[1], i))
            i += 1
            if i == len(cursors):
                break
            yield from cursors[i].seek(begin)
        heapify(heap)

    def collect(self, limit: Optional[int] = None, end: Optional[bytes] = None):
        """Up to ``limit`` visible entries ``(key, seq, vtype, value)``,
        stopping after the first one past ``end`` (which is examined and
        charged, but not returned).  A plain call that returns the list when
        every block it crosses is cached; after a block-cache miss, a
        generator that loads the block, goes on, and returns the list."""
        out: List[Entry] = []
        miss = self._merge(out, limit, end)
        return self._collect_after(miss, out, limit, end) if miss else out

    def _collect_after(self, miss, out: List[Entry], limit, end) -> Generator:
        """The rest of :meth:`collect` from its first missed block on."""
        heap = self._heap
        while miss:
            pending, i, past_end = miss
            yield from pending
            entry = self._cursors[i].current
            if entry is None:
                heappop(heap)
            else:
                heapreplace(heap, (entry[0], -entry[1], i))
            miss = None if past_end else self._merge(out, limit, end)
        return out

    def _merge(self, out: List[Entry], limit: Optional[int], end: Optional[bytes]):
        """Merge visible entries onto ``out`` until ``limit`` or ``end``; None
        when done, else ``(step, i, past_end)`` at the first cursor ``i``
        whose advance missed the cache (its heap entry is stale until
        ``step`` has run)."""
        heap = self._heap
        cursors = self._cursors
        snapshot = self._snapshot
        last = self._last_user_key
        scanned = 0
        past_end = False
        room = limit and limit - len(out)  # entries still wanted (None: any number)
        miss = None
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
                pending = cursor.advance()
                if pending:
                    miss = (pending, i, past_end)
                    break
            entry = cursor.current
            if entry is None:
                heappop(heap)
            else:
                heapreplace(heap, (entry[0], -entry[1], i))
            room = limit and limit - len(out)
        self._last_user_key = last
        self.entries_scanned += scanned
        return miss

    def next_user(self) -> Generator:
        """Next visible (key, value) pair, or None at the end."""
        entries = self.collect(limit=1)
        if type(entries) is not list:
            entries = yield from entries
        return (entries[0][0], entries[0][3]) if entries else None
