"""WiredTiger-like B+-tree KVS (paper Section 5.6.2).

The properties the portability evaluation depends on:

* a single on-disk B+-tree with a WAL — the shared index structure p2KVS
  works around by sharding;
* an **exclusive writer lock** and **no batch-write**, so OBM-write is
  disabled when p2KVS runs on top (Section 4.6) and single-instance write
  scaling is poor;
* reads traverse the tree through a page cache; a cold leaf costs one random
  page read, and concurrent reads across instances overlap on the SSD.

Functionally the store is a real B+-tree over real bytes with WAL-based crash
recovery (periodic checkpoints truncate the log).
"""

from functools import partial
from typing import Generator, List, Optional, Tuple

from repro.engine.batch import WriteBatch
from repro.engine.env import Env
from repro.errors import KVStatus
from repro.sim.sync import Lock
from repro.storage.block_cache import BlockCache
from repro.storage.btree import BPlusTree
from repro.storage.memtable import VTYPE_DELETE, VTYPE_VALUE
from repro.storage.wal import LogReader, LogWriter, RECORD_STANDALONE

__all__ = ["WiredTigerLike", "wiredtiger_adapter_factory"]

PAGE_SIZE = 4096
#: CPU costs: tree descend + leaf update is pricier than a skiplist insert.
INSERT_CPU = 2.2e-6
SEARCH_CPU = 1.6e-6
#: instance-wide read critical section (hazard-pointer sweep / eviction
#: interlock): serializes concurrent readers of one tree.
READ_SERIAL = 0.5e-6
WAL_ENCODE = 0.9e-6
CHECKPOINT_ENTRY_CPU = 0.2e-6
#: entries per leaf page at 128-byte items.
ITEMS_PER_PAGE = 28
#: dirty bytes between checkpoints.
CHECKPOINT_BYTES = 4 * 1024 * 1024


class WiredTigerLike:
    """A B+-tree storage engine with WAL and exclusive writes; also a p2KVS
    worker's instance as is (see :mod:`repro.core.adapters`)."""

    supports_batch_write = False
    supports_multiget = False
    #: no MVCC snapshots: read-committed transactions are unavailable on
    #: WiredTiger-backed deployments (the engine is a black box).
    supports_snapshots = False

    def __init__(
        self,
        env: Env,
        name: str,
        cache_bytes: int = 8 * 1024 * 1024,
    ):
        self.env = env
        self.name = name
        self.tree = BPlusTree(order=64)
        self.write_lock = Lock(env.sim, "%s-writer" % name)
        self.read_lock = Lock(env.sim, "%s-reader" % name)
        self.page_cache = BlockCache(cache_bytes)
        self.log_writer = LogWriter(env.disk.open_file("%s/wt-wal" % name))
        self.checkpoint_bytes = CHECKPOINT_BYTES
        self._dirty_bytes = 0
        self.counters = env.metrics.group("engine.%s" % name, fresh=True)
        self.closing = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        env: Env,
        name: str,
        record_filter=None,
        cache_bytes: int = 8 * 1024 * 1024,
    ) -> Generator:
        store = cls(env, name, cache_bytes=cache_bytes)
        yield from store._recover()
        return store

    def _checkpoint_blob(self) -> str:
        return "%s/wt-checkpoint" % self.name

    def _recover(self) -> Generator:
        blob = self._checkpoint_blob()
        if self.env.disk.blob_exists(blob):
            entries = self.env.disk.get_blob(blob)
            nbytes = sum(len(k) + len(v) + 16 for k, v in entries)
            yield self.env.device.read(max(nbytes, PAGE_SIZE), category="recovery")
            for key, value in entries:
                self.tree.insert(key, value)
        vfile = self.env.disk.open_file("%s/wt-wal" % self.name)
        data = yield from vfile.read_all(category="recovery")
        # A torn tail is an interrupted append — expected after a crash and
        # counted; mid-log CRC damage raises Corruption out of the reader.
        reader = LogReader(data, source=vfile.path)
        for record in reader:
            batch = WriteBatch.decode(record.payload)
            for vtype, key, value in batch:
                if vtype == VTYPE_DELETE:
                    self.tree.delete(key)
                else:
                    self.tree.insert(key, value)
        if reader.truncated:
            self.counters.add("recovery_torn_tails")
            self.counters.add("recovery_torn_bytes", reader.tail_bytes)

    def close(self) -> Generator:
        self.closing = True
        yield from self.log_writer.flush("wal")

    # -- write path --------------------------------------------------------------

    def put(self, ctx, key: bytes, value: bytes) -> Generator:
        return self._write_one(ctx, VTYPE_VALUE, key, value)

    def delete(self, ctx, key: bytes) -> Generator:
        return self._write_one(ctx, VTYPE_DELETE, key, b"")

    def _write_one(self, ctx, vtype: int, key: bytes, value: bytes) -> Generator:
        yield self.write_lock.acquire(ctx, "wal_lock")
        try:
            payload = WriteBatch.decode(b"")  # empty batch
            payload._records.append((vtype, key, value))
            encoded = payload.encode()
            yield self.env.cpu.exec(
                ctx, WAL_ENCODE + 2e-9 * len(encoded), "wal"
            )
            self.log_writer.append(encoded, RECORD_STANDALONE, 0)
            if self.log_writer.pending_bytes >= 64 * 1024:
                # By design: WiredTiger's single-writer WAL flushes under the
                # write lock -- the contention p2KVS removes.
                yield from self.log_writer.flush("wal")
            yield self.env.cpu.exec(ctx, INSERT_CPU, "memtable")
            if vtype == VTYPE_DELETE:
                self.tree.delete(key)
            else:
                self.tree.insert(key, value)
            self._dirty_bytes += len(key) + len(value) + 16
            self.counters.add("records_written")
            self.counters.add("user_bytes_written", len(key) + len(value))
        finally:
            self.write_lock.release()
        if self._dirty_bytes >= self.checkpoint_bytes:
            yield from self._checkpoint(ctx)

    def write(self, ctx, batch: WriteBatch, gsn: int = 0, rtype: int = 0) -> Generator:
        """No native batch-write: records apply one at a time (Section 4.6)."""
        for vtype, key, value in batch:
            yield from self._write_one(ctx, vtype, key, value)

    def _checkpoint(self, ctx) -> Generator:
        self._dirty_bytes = 0
        entries = list(self.tree)
        nbytes = sum(len(k) + len(v) + 16 for k, v in entries)
        yield self.env.cpu.exec(
            ctx, CHECKPOINT_ENTRY_CPU * max(1, len(entries)), "flush"
        )
        blob = self._checkpoint_blob()
        self.env.disk.put_blob(blob, entries, nbytes)
        yield self.env.device.write(max(nbytes, PAGE_SIZE), category="flush")
        self.env.disk.commit_blob(blob)
        # WAL no longer needed for checkpointed data: start a fresh one.
        self.env.disk.delete_file("%s/wt-wal" % self.name)
        self.log_writer = LogWriter(self.env.disk.open_file("%s/wt-wal" % self.name))
        self.counters.add("checkpoints")

    # -- read path -----------------------------------------------------------------

    def _page_of(self, key: bytes) -> int:
        # Leaf pages hold ~ITEMS_PER_PAGE adjacent keys; map a key to its
        # page by rank bucket approximation via the tree's leaf walk cost.
        return hash_page(key)

    def get(self, ctx, key: bytes) -> Generator:
        yield self.read_lock.acquire(ctx, "read_lock")
        yield self.env.cpu.exec(ctx, READ_SERIAL, "read")
        self.read_lock.release()
        yield self.env.cpu.exec(ctx, SEARCH_CPU, "read")
        value = self.tree.get(key)
        if value is None:
            return None
        page = self._page_of(key)
        if self.page_cache.get(page) is None:
            yield self.env.device.read(PAGE_SIZE, category="read", random=True)
            self.page_cache.put(page, True, PAGE_SIZE)
        self.counters.add("reads")
        return value

    def get_status(
        self, ctx, key: bytes, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """Status-style lookup: the tree stores real bytes, so ``None``
        means the key is absent, never a stored null.  ``snapshot_seq`` is
        always None (no snapshots)."""
        value = yield from self.get(ctx, key)
        if value is None:
            return KVStatus.not_found()
        return KVStatus.ok(value)

    def scan(self, ctx, begin: bytes, count: int) -> Generator:
        yield self.env.cpu.exec(ctx, SEARCH_CPU, "read")
        out: List[Tuple[bytes, bytes]] = []
        pages_needed = 0
        for key, value in self.tree.items_from(begin):
            if len(out) >= count:
                break
            out.append((key, value))
            if len(out) % ITEMS_PER_PAGE == 1:
                page = self._page_of(key)
                if self.page_cache.get(page) is None:
                    pages_needed += 1
                    self.page_cache.put(page, True, PAGE_SIZE)
        if out:
            yield self.env.cpu.exec(ctx, 0.3e-6 * len(out), "read")
        for _ in range(pages_needed):
            yield self.env.device.read(PAGE_SIZE, category="read", random=True)
        return out

    def range_query(self, ctx, begin: bytes, end: bytes) -> Generator:
        yield self.env.cpu.exec(ctx, SEARCH_CPU, "read")
        out = []
        for key, value in self.tree.range(begin, end):
            out.append((key, value))
        if out:
            yield self.env.cpu.exec(ctx, 0.3e-6 * len(out), "read")
            pages = max(1, len(out) // ITEMS_PER_PAGE)
            for _ in range(pages):
                yield self.env.device.read(PAGE_SIZE, category="read", random=True)
        return out

    # Its pairs are rows already (key first, value last).
    scan_rows = scan
    range_rows = range_query

    def memory_bytes(self) -> int:
        return self.tree.memory_bytes() + self.page_cache.used_bytes


def hash_page(key: bytes) -> int:
    import zlib

    # Cluster adjacent keys: strip the low digits so ~28 keys share a page.
    prefix = key[:-2] if len(key) > 2 else key
    return zlib.crc32(prefix)


def wiredtiger_adapter_factory(cache_bytes: int = 8 * 1024 * 1024):
    """An opener of :class:`WiredTigerLike` instances, usable as P2KVS's
    ``adapter_open`` (GSN filter unsupported: WiredTiger-backed deployments
    recover whole WALs)."""
    return partial(WiredTigerLike.open, cache_bytes=cache_bytes)
