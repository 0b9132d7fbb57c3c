"""KVell-like share-nothing B-tree KVS (paper Section 5.5).

KVell's design points, reproduced:

* N workers, each owning a partition with a fully **in-memory B-tree index**
  mapping keys to slab pages — fast lookups, but the index dominates memory
  (Figure 21b: ~2x p2KVS even net of the page cache);
* **no WAL, no ordering on disk**: items live in size-class slab pages;
  inserts fill the worker's open page sequentially, updates dirty their
  existing page in place (no compaction, no write amplification — but small
  random IOs keep bandwidth utilization low, Figure 21a: ~300 MB/s);
* **batched asynchronous IO**: the worker collects a batch of requests and
  submits their page IOs together so they overlap on the SSD's channels;
* scans walk the index and fetch scattered pages — the weakness workload E
  exposes (Figure 20).

Each worker burns most of a core maintaining its big index (Figure 21d),
which is why KVell relies on single-core performance where p2KVS spreads
work across foreground and background threads.
"""

from typing import Dict, Generator, List, Tuple

from repro.engine.env import Env
from repro.errors import KVError, KVStatus
from repro.sim.queues import FIFOQueue
from repro.storage.block_cache import BlockCache
from repro.storage.bloom import fnv1a
from repro.storage.btree import BPlusTree

__all__ = ["KVellLike"]

PAGE_SIZE = 4096
#: commit granularity of an in-place item write (one disk sector).
SECTOR = 512
#: CPU per request: large-index B-tree maintenance + IO submission.
INDEX_INSERT_CPU = 2.4e-6
INDEX_SEARCH_CPU = 1.6e-6
IO_SUBMIT_CPU = 0.5e-6
SUBMIT_COST = 0.3e-6
#: slot size a page is divided into (the paper's 128-byte KV pairs).
ITEM_SIZE = 128
#: requests a worker drains from its queue per IO batch.
IO_BATCH = 32

_SHUTDOWN = object()


class _Partition:
    """One worker's slab store + index."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.index = BPlusTree(order=64)  # key -> (page_no, value)
        #: page_no -> {key: value}: the slab contents that the device IOs
        #: commit; this is what a post-crash slab scan rebuilds the index from.
        self.pages: Dict[int, Dict[bytes, bytes]] = {}
        self.items_per_page = PAGE_SIZE // ITEM_SIZE
        self.open_page = 0
        self.open_slots = self.items_per_page
        self.page_count = 1

    def place_new(self) -> int:
        """Allocate a slab slot for a new item; returns its page number."""
        if self.open_slots == 0:
            self.open_page = self.page_count
            self.page_count += 1
            self.open_slots = self.items_per_page
        self.open_slots -= 1
        return self.open_page


class _Request:
    __slots__ = ("op", "key", "value", "begin", "count", "future")

    def __init__(self, op, key=None, value=None, begin=None, count=0):
        self.op = op
        self.key = key
        self.value = value
        self.begin = begin
        self.count = count
        self.future = None


class KVellLike:
    """The whole KVell deployment: N workers over one device."""

    def __init__(
        self,
        env: Env,
        n_workers: int = 8,
        page_cache_bytes: int = 4 * 1024 * 1024,
        name: str = "kvell",
    ):
        self.env = env
        self.name = name
        self.n_workers = n_workers
        self.page_cache = BlockCache(page_cache_bytes)
        self.partitions = [_Partition(i) for i in range(n_workers)]
        self.queues = [
            FIFOQueue(env.sim, "kvell-%d" % i) for i in range(n_workers)
        ]
        self.contexts = [
            env.cpu.new_thread("kvell-worker-%d" % i, kind="worker",
                               pinned=i % env.cpu.n_cores)
            for i in range(n_workers)
        ]
        self.counters = env.metrics.group(name, fresh=True)
        self.batch_sizes = env.metrics.histogram(
            "%s.batch_size" % name, fresh=True
        )
        for i in range(n_workers):
            env.sim.spawn(self._worker_loop(i), "kvell-worker-%d" % i)

    # -- routing -----------------------------------------------------------

    def _route(self, key: bytes) -> int:
        return fnv1a(key) % self.n_workers

    # -- public API ------------------------------------------------------------

    def _submit(self, ctx, request: _Request, worker_id: int) -> Generator:
        yield self.env.cpu.exec(ctx, SUBMIT_COST, "submit")
        request.future = self.env.sim.event()
        self.queues[worker_id].put(request)
        result = yield request.future
        return result

    def put(self, ctx, key: bytes, value: bytes) -> Generator:
        request = _Request("put", key=key, value=value)
        status = yield from self._submit(ctx, request, self._route(key))
        status.raise_for_error()

    def delete(self, ctx, key: bytes) -> Generator:
        request = _Request("delete", key=key)
        status = yield from self._submit(ctx, request, self._route(key))
        status.raise_for_error()

    def get_status(self, ctx, key: bytes) -> Generator:
        request = _Request("get", key=key)
        return (yield from self._submit(ctx, request, self._route(key)))

    def get(self, ctx, key: bytes) -> Generator:
        status = yield from self.get_status(ctx, key)
        return status.value_or(None)

    def scan(self, ctx, begin: bytes, count: int) -> Generator:
        futures = []
        yield self.env.cpu.exec(ctx, SUBMIT_COST * self.n_workers, "submit")
        for worker_id in range(self.n_workers):
            request = _Request("scan", begin=begin, count=count)
            request.future = self.env.sim.event()
            self.queues[worker_id].put(request)
            futures.append(request.future)
        statuses = yield self.env.sim.all_of(futures)
        parts = [status.value_or([]) for status in statuses]
        import heapq

        merged = list(heapq.merge(*parts, key=lambda kv: kv[0]))
        return merged[:count]

    def range_query(self, ctx, begin: bytes, end: bytes) -> Generator:
        """RANGE across partitions: every worker walks its index between the
        bounds and fetches the scattered pages; results merge sorted."""
        futures = []
        yield self.env.cpu.exec(ctx, SUBMIT_COST * self.n_workers, "submit")
        for worker_id in range(self.n_workers):
            request = _Request("range", begin=begin, count=0)
            request.value = end  # reuse the slot for the upper bound
            request.future = self.env.sim.event()
            self.queues[worker_id].put(request)
            futures.append(request.future)
        statuses = yield self.env.sim.all_of(futures)
        parts = [status.value_or([]) for status in statuses]
        import heapq

        return list(heapq.merge(*parts, key=lambda kv: kv[0]))

    def close(self) -> Generator:
        for queue in self.queues:
            queue.put(_SHUTDOWN)
        return
        yield  # pragma: no cover

    # -- worker ------------------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> Generator:
        queue = self.queues[worker_id]
        ctx = self.contexts[worker_id]
        partition = self.partitions[worker_id]
        while True:
            first = yield queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            while len(batch) < IO_BATCH and not queue.empty:
                head = queue.peek()
                if head is _SHUTDOWN:
                    break
                batch.append(queue.try_pop())
            self.batch_sizes.record(len(batch))
            try:
                yield from self._process_batch(ctx, partition, batch)
            except KVError as exc:
                # Degradation: a typed device error fails this batch's
                # requests, never the worker loop.  No retry — the slab
                # writes are in-place, so re-running the batch could
                # double-apply updates that already hit the device.
                status = KVStatus.from_error(exc)
                self.counters.add("poisoned_batches")
                for request in batch:
                    future = request.future
                    if future is not None and not future.triggered:
                        future.succeed(status)

    def _process_batch(self, ctx, partition: _Partition, batch: List[_Request]) -> Generator:
        """KVell's cycle: index work first, then one async IO burst."""
        ios = []
        dirty_pages = {}  # page -> items touched this batch
        read_pages = set()
        completions: List[Tuple[_Request, object]] = []
        scans: List[_Request] = []
        for request in batch:
            if request.op == "put":
                yield self.env.cpu.exec(ctx, INDEX_INSERT_CPU, "index")
                existing = partition.index.get(request.key)
                if existing is None:
                    page = partition.place_new()
                else:
                    page = existing[0]
                partition.index.insert(request.key, (page, request.value))
                partition.pages.setdefault(page, {})[request.key] = request.value
                page_key = (partition.worker_id, page)
                dirty_pages[page_key] = dirty_pages.get(page_key, 0) + 1
                self.counters.add("records_written")
                self.counters.add(
                    "user_bytes_written", len(request.key) + len(request.value)
                )
                completions.append((request, KVStatus.ok(None)))
            elif request.op == "delete":
                yield self.env.cpu.exec(ctx, INDEX_INSERT_CPU, "index")
                existing = partition.index.get(request.key)
                if existing is not None:
                    partition.index.delete(request.key)
                    partition.pages.get(existing[0], {}).pop(request.key, None)
                    page_key = (partition.worker_id, existing[0])
                    dirty_pages[page_key] = dirty_pages.get(page_key, 0) + 1
                completions.append((request, KVStatus.ok(None)))
            elif request.op == "get":
                yield self.env.cpu.exec(ctx, INDEX_SEARCH_CPU, "read")
                entry = partition.index.get(request.key)
                if entry is None:
                    completions.append((request, KVStatus.not_found()))
                else:
                    page_key = (partition.worker_id, entry[0])
                    if self.page_cache.get(page_key) is None:
                        read_pages.add(page_key)
                    completions.append((request, KVStatus.ok(entry[1])))
                self.counters.add("reads")
            else:  # scan / range
                scans.append(request)

        if dirty_pages or read_pages:
            yield self.env.cpu.exec(
                ctx, IO_SUBMIT_CPU * (len(dirty_pages) + len(read_pages)), "io"
            )
        for page_key, touched in dirty_pages.items():
            # Sector-granular in-place commit: only the touched slots of the
            # page are written, rounded up to whole sectors (io_uring-style
            # direct IO) — KVell's low-bandwidth small-write signature.
            nbytes = min(PAGE_SIZE, max(SECTOR, touched * 160))
            ios.append(
                self.env.device.write(nbytes, category="data", random=True)
            )
        # sorted(): set iteration order must not pick the device IO order.
        for page_key in sorted(read_pages):
            ios.append(
                self.env.device.read(PAGE_SIZE, category="read", random=True)
            )
            self.page_cache.put(page_key, True, PAGE_SIZE)
        if ios:
            yield self.env.sim.all_of(ios)
        # The page IOs are durable: commit the slab contents so a crash can
        # rebuild the index by scanning the slabs (KVell's startup path).
        for (worker_id, page) in dirty_pages:
            blob = self._slab_blob(worker_id, page)
            contents = dict(partition.pages.get(page, {}))
            self.env.disk.put_blob(blob, contents, PAGE_SIZE)
            self.env.disk.commit_blob(blob)

        for request, status in completions:
            request.future.succeed(status)
        for request in scans:
            yield from self._scan_one(ctx, partition, request)

    def _scan_one(self, ctx, partition: _Partition, request: _Request) -> Generator:
        yield self.env.cpu.exec(ctx, INDEX_SEARCH_CPU, "read")
        out = []
        pages = set()
        is_range = request.op == "range"
        for key, (page, value) in partition.index.items_from(request.begin):
            if is_range:
                if request.value is not None and key > request.value:
                    break
            elif len(out) >= request.count:
                break
            out.append((key, value))
            page_key = (partition.worker_id, page)
            if self.page_cache.get(page_key) is None:
                pages.add(page_key)
        if out:
            yield self.env.cpu.exec(ctx, 0.3e-6 * len(out), "read")
        # Scattered page fetches: KVell's scan penalty vs sorted LSM runs.
        ios = []
        # sorted(): set iteration order must not pick the device IO order.
        for page_key in sorted(pages):
            ios.append(self.env.device.read(PAGE_SIZE, category="read", random=True))
            self.page_cache.put(page_key, True, PAGE_SIZE)
        if ios:
            yield self.env.sim.all_of(ios)
        self.counters.add("scans")
        request.future.succeed(KVStatus.ok(out))

    # -- durability ---------------------------------------------------------------

    def _slab_blob(self, worker_id: int, page: int) -> str:
        return "%s/slab-%d-%06d" % (self.name, worker_id, page)

    @classmethod
    def recover(cls, env: Env, n_workers: int = 8, name: str = "kvell", **kwargs) -> Generator:
        """Rebuild a KVell deployment after a crash by scanning the slabs.

        KVell keeps no WAL: the committed state IS the slab pages.  Startup
        reads every page (one sequential pass over the slabs, charged to the
        device) and reinserts its items into the in-memory indexes — the
        slow-start trade-off of the no-log design.
        """
        store = cls(env, n_workers=n_workers, name=name, **kwargs)
        prefix = "%s/slab-" % name
        for blob_name in sorted(env.disk._blobs):
            if not blob_name.startswith(prefix) or not env.disk.blob_exists(blob_name):
                continue
            rest = blob_name[len(prefix):]
            worker_str, page_str = rest.split("-", 1)
            worker_id, page = int(worker_str), int(page_str)
            if worker_id >= n_workers:
                raise ValueError(
                    "cannot recover %d-worker slabs into %d workers"
                    % (worker_id + 1, n_workers)
                )
            yield env.device.read(PAGE_SIZE, category="recovery", random=False)
            contents = env.disk.get_blob(blob_name)
            partition = store.partitions[worker_id]
            partition.pages[page] = dict(contents)
            for key, value in contents.items():
                partition.index.insert(key, (page, value))
            partition.page_count = max(partition.page_count, page + 1)
        for partition in store.partitions:
            partition.open_page = partition.page_count
            partition.page_count += 1
            partition.open_slots = partition.items_per_page
        return store

    # -- metrics -----------------------------------------------------------------

    def memory_bytes(self) -> int:
        index = sum(p.index.memory_bytes(key_size=20, value_size=140) for p in self.partitions)
        return index + self.page_cache.used_bytes

    def index_memory_bytes(self) -> int:
        return sum(
            p.index.memory_bytes(key_size=20, value_size=140) for p in self.partitions
        )
