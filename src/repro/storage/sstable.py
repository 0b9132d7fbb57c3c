"""Sorted String Tables.

An SSTable is an immutable sorted run of multi-version entries
``(key, seq, vtype, value)`` in internal order (key asc, seq desc), split
into ~4 KiB data blocks with a block index and a bloom filter — the LevelDB
file layout.  Point lookups charge one random block read on a cache miss;
scans charge sequential block reads; compaction charges one bulk file read.

Tables are pure data plus search logic; the block cache and device are passed
in explicitly, so the same table object can be shared by any number of
simulated readers.  A block read is two steps: :meth:`SSTable.cached_block`, a
synchronous probe of the engine's block cache, and :meth:`SSTable.fetch_block`,
the generator that charges the page cache or device, run only on a miss.  A
cursor step whose blocks are all cached is therefore a plain call (the cursor
contract of :mod:`repro.engine.iterator`).
"""

from bisect import bisect_left
from operator import itemgetter
from typing import Generator, List, Optional, Tuple

from repro.perf import zones as _perf_zones
from repro.storage.bloom import BloomFilter, probe_pair
from repro.storage.memtable import (
    DELETED,
    FOUND,
    MAX_SEQ,
    NOT_FOUND,
    VTYPE_DELETE,
)

__all__ = ["Block", "SSTable", "SSTableBuilder", "TableCursor"]

# On-disk framing per entry: klen u32 + vlen u32 + seq u40 + type u8.
ENTRY_DISK_OVERHEAD = 13
DEFAULT_BLOCK_TARGET = 4096

# Entry tuple layout: (key, seq, vtype, value)
Entry = Tuple[bytes, int, int, bytes]


def entry_disk_size(key: bytes, value: bytes) -> int:
    return len(key) + len(value) + ENTRY_DISK_OVERHEAD


def _internal_key(entry: Entry) -> Tuple[bytes, int]:
    return (entry[0], MAX_SEQ - entry[1])


_user_key = itemgetter(0)


def lower_bound(entries: List[Entry], key: bytes, seq: int, lo: int = 0, hi=None) -> int:
    """``bisect_left(entries, (key, MAX_SEQ - seq), lo, hi, key=_internal_key)``
    with no interpreted call per probe: bisect on the user key, then pass the
    versions of ``key`` newer than ``seq``, if any."""
    n = len(entries) if hi is None else hi
    pos = bisect_left(entries, key, lo, n, key=_user_key)
    while pos < n and entries[pos][1] > seq and entries[pos][0] == key:
        pos += 1
    return pos


class Block:
    """One data block: a sorted slice of entries plus its on-disk size."""

    __slots__ = ("entries", "nbytes")

    def __init__(self, entries: List[Entry], nbytes: int):
        self.entries = entries
        self.nbytes = nbytes

    def __len__(self) -> int:
        return len(self.entries)


class SSTable:
    """Immutable sorted table; constructed via :class:`SSTableBuilder`."""

    def __init__(
        self,
        number: int,
        blocks: List[Block],
        distinct: int,
        entry_count: int,
        max_seq: int,
        plain: bool,
    ):
        self.number = number
        self.blocks = blocks
        #: the bloom filter, built from ``blocks`` on the first probe
        self._bloom: Optional[BloomFilter] = None
        #: its size, known from the distinct-key count before it is built
        self.filter_bytes = BloomFilter.nbytes_for(distinct)
        self.entry_count = entry_count
        self.max_seq = max_seq
        #: one version per user key and no tombstone (scans slice such tables)
        self.plain = plain
        # Index: last internal key per block, for binary search.
        self._index: List[Tuple[bytes, int]] = [
            _internal_key(b.entries[-1]) for b in blocks
        ]
        self.smallest: bytes = blocks[0].entries[0][0]
        self.largest: bytes = blocks[-1].entries[-1][0]
        index_bytes = len(blocks) * 24
        self.file_size = sum(b.nbytes for b in blocks) + self.filter_bytes + index_bytes

    @property
    def name(self) -> str:
        return "sst-%06d" % self.number

    def overlaps(self, begin: Optional[bytes], end: Optional[bytes]) -> bool:
        """Key-range overlap test; None bounds are open."""
        if begin is not None and self.largest < begin:
            return False
        if end is not None and self.smallest > end:
            return False
        return True

    # -- point lookup -----------------------------------------------------

    def cached_block(self, idx: int, cache) -> Optional[Block]:
        """Block ``idx`` if the engine block cache holds it (free), else None:
        then :meth:`fetch_block` loads it."""
        if cache is not None and cache.get((self.number, idx)) is not None:
            return self.blocks[idx]
        return None

    def fetch_block(self, idx: int, cache, device, page_cache=None) -> Generator:
        """Load block ``idx`` after a block-cache miss: OS page cache (one RAM
        copy) or device (random block read), then into the block cache."""
        block = self.blocks[idx]
        cache_key = (self.number, idx)
        if page_cache is not None and page_cache.get(cache_key) is not None:
            yield device.ram_read(block.nbytes)
        else:
            yield device.read(block.nbytes, category="read", random=True)
            if page_cache is not None:
                page_cache.put(cache_key, True, block.nbytes)
        if cache is not None:
            cache.put(cache_key, block, block.nbytes)
        return block

    def _build_bloom(self) -> BloomFilter:
        """The filter over the table's distinct keys, at its first probe: the
        simulated cost of a build is charged per entry when the table is
        written, so only host time moves, and unprobed tables never pay it."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("storage.sst.build")
        keys = {entry[0] for block in self.blocks for entry in block.entries}
        self._bloom = BloomFilter.from_keys(keys)
        if _p is not None:
            _p.leave()
        return self._bloom

    def get(self, key: bytes, snapshot_seq: int, cache, device, page_cache=None,
            pair=None) -> Generator:
        """Point lookup; returns (state, value) like MemTable.get.

        A bloom miss or out-of-range key costs no IO.  The caller charges
        CPU for the bloom/index probes from its cost model.  ``pair`` is the
        key's :func:`~repro.storage.bloom.probe_pair` when the caller already
        has it (one per lookup, however many tables it probes).
        """
        if key < self.smallest or key > self.largest:
            return NOT_FOUND, None
        bloom = self._bloom or self._build_bloom()
        if not bloom.may_contain(pair or probe_pair(key)):
            return NOT_FOUND, None
        idx = bisect_left(self._index, (key, MAX_SEQ - snapshot_seq))
        while idx < len(self.blocks):
            block = self.cached_block(idx, cache)
            if block is None:
                block = yield from self.fetch_block(idx, cache, device, page_cache)
            entries = block.entries
            pos = lower_bound(entries, key, snapshot_seq)
            if pos < len(entries):
                entry = entries[pos]
                if entry[0] != key:
                    return NOT_FOUND, None
                if entry[2] == VTYPE_DELETE:
                    return DELETED, None
                return FOUND, entry[3]
            idx += 1  # target past this block's end: check next block's head
        return NOT_FOUND, None

    # -- bulk read (compaction) ------------------------------------------------

    def read_all_entries(self, device) -> Generator:
        """Sequential full-file read (a compaction input); returns the flat
        entry list."""
        yield device.read(self.file_size, category="compaction", random=False)
        out: List[Entry] = []
        for block in self.blocks:
            out.extend(block.entries)
        return out

    def cursor(self, cache, device, page_cache=None) -> "TableCursor":
        return TableCursor(self, cache, device, page_cache)


class TableCursor:
    """Forward cursor over a table's entries, loading blocks lazily.

    Follows the cursor contract of :mod:`repro.engine.iterator`: ``run`` and
    ``skip`` stay inside the loaded block, ``advance()`` crosses into the next.
    """

    def __init__(self, table: SSTable, cache, device, page_cache=None):
        self.table = table
        self.cache = cache
        self.device = device
        self.page_cache = page_cache
        self._block_idx = 0
        self._pos = 0
        self._entries: Optional[List[Entry]] = None
        self.current: Optional[Entry] = None

    def seek(self, key: Optional[bytes]):
        """Position at the first entry with user key >= key (None = start)."""
        table = self.table
        idx = 0 if key is None else bisect_left(table._index, (key, 0))
        self._block_idx, self._pos = idx, 0
        if idx >= len(table.blocks):
            self.current = None
            self._entries = None
            return ()
        block = table.cached_block(idx, self.cache)
        if block is None:
            return self._fetch_and_seek(key)
        return self._seek_in(block, key)

    def _fetch_and_seek(self, key: Optional[bytes]) -> Generator:
        """The rest of :meth:`seek` once its block missed the cache."""
        block = yield from self.table.fetch_block(
            self._block_idx, self.cache, self.device, self.page_cache
        )
        yield from self._seek_in(block, key)

    def _seek_in(self, block: Block, key: Optional[bytes]):
        self._entries = block.entries
        if key is not None:
            self._pos = bisect_left(self._entries, key, key=_user_key)
        return self._settle()

    def _settle(self):
        """Move to the next block(s) if positioned past the current one."""
        table = self.table
        entries = self._entries
        while entries is not None and self._pos >= len(entries):
            self._block_idx += 1
            self._pos = 0
            if self._block_idx >= len(table.blocks):
                self._entries = entries = None
                break
            block = table.cached_block(self._block_idx, self.cache)
            if block is None:
                return self._fetch_and_settle()
            self._entries = entries = block.entries
        self.current = entries[self._pos] if entries is not None else None
        return ()

    def _fetch_and_settle(self) -> Generator:
        """The rest of :meth:`_settle` once a block missed the cache."""
        block = yield from self.table.fetch_block(
            self._block_idx, self.cache, self.device, self.page_cache
        )
        self._entries = block.entries
        yield from self._settle()

    def run(self, bound, room: Optional[int]) -> List[Entry]:
        entries = self._entries
        pos = self._pos
        hi = len(entries) if room is None or pos + room > len(entries) else pos + room
        # Mostly the whole window sorts before the bound; bisect only if not.
        if bound is not None and entries[hi - 1][0] >= bound[0]:
            hi = lower_bound(entries, bound[0], -bound[1], pos + 1, hi)
        return entries[pos:hi]

    def skip(self, n: int) -> bool:
        self._pos += n
        if self._pos < len(self._entries):
            self.current = self._entries[self._pos]
            return True
        self._pos -= 1  # on the block's last entry, as advance() expects
        return False

    def advance(self):
        if self._entries is None:
            return ()
        self._pos += 1
        return self._settle()


class SSTableBuilder:
    """Accumulates entries (already in internal order) into an SSTable."""

    def __init__(
        self,
        number: int,
        block_target: int = DEFAULT_BLOCK_TARGET,
    ):
        self.number = number
        self.block_target = block_target
        self._blocks: List[Block] = []
        #: bytes of the finished blocks (estimated_size is read per entry).
        self._blocks_bytes = 0
        self._current: List[Entry] = []
        self._current_bytes = 0
        self._entry_count = 0
        self._distinct = 0
        self._last_internal: Optional[Tuple[bytes, int]] = None
        self._max_seq = 0
        self._tombstones = False

    def add(self, key: bytes, seq: int, vtype: int, value: bytes) -> None:
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("storage.sst.build")
        internal = (key, MAX_SEQ - seq)
        last = self._last_internal
        if last is not None and internal <= last:
            raise ValueError("entries must be added in strict internal-key order")
        if last is None or key != last[0]:
            self._distinct += 1
        self._last_internal = internal
        self._current.append((key, seq, vtype, value))
        self._current_bytes += entry_disk_size(key, value)
        self._entry_count += 1
        if seq > self._max_seq:
            self._max_seq = seq
        if vtype == VTYPE_DELETE:
            self._tombstones = True
        if self._current_bytes >= self.block_target:
            self._finish_block()
        if _p is not None:
            _p.leave()

    def _finish_block(self) -> None:
        if self._current:
            self._blocks.append(Block(self._current, self._current_bytes))
            self._blocks_bytes += self._current_bytes
            self._current = []
            self._current_bytes = 0

    @property
    def entry_count(self) -> int:
        return self._entry_count

    @property
    def estimated_size(self) -> int:
        return self._blocks_bytes + self._current_bytes

    @property
    def empty(self) -> bool:
        return self._entry_count == 0

    def finish(self) -> SSTable:
        self._finish_block()
        if not self._blocks:
            raise ValueError("cannot finish an empty SSTable")
        plain = not self._tombstones and self._distinct == self._entry_count
        return SSTable(self.number, self._blocks, self._distinct,
                       self._entry_count, self._max_seq, plain)
