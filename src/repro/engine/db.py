"""The LSM-tree storage engine (RocksDB/LevelDB stand-in).

One :class:`LSMEngine` instance is the paper's "KVS instance": its own WAL,
MemTable(s), and on-disk LSM-tree, plus background flush and compaction
threads.  All public operations are generator "processes": call them with
``yield from`` inside a simulated thread, passing the thread's context for
CPU accounting::

    engine = yield from LSMEngine.open(env, "db0", rocksdb_options())
    yield from engine.put(ctx, b"k", b"v")
    value = yield from engine.get(ctx, b"k")

Functional behaviour (MVCC visibility, recovery, compaction correctness) is
real; timing comes from the cost model in :mod:`repro.engine.costs` charged
against the shared CPU/device models.
"""

from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.engine.batch import WriteBatch
from repro.engine.compaction import (
    Compaction,
    dedup_entries,
    merge_sorted_runs,
    pick_compaction,
)
from repro.engine.costs import CostModel
from repro.engine.env import Env
from repro.engine.iterator import LevelCursor, MemTableCursor, MergingIterator
from repro.engine.options import (
    MAX_WRITE_BUFFER_NUMBER,
    SLOWDOWN_DELAY,
    WAL_FLUSH_BYTES,
    EngineOptions,
)
from repro.engine.version import FileMeta, VersionEdit, VersionSet
from repro.engine.write_group import WriteGroupCoordinator
from repro.errors import Corruption, IOFailure, KVStatus, TimedOut
from repro.faults.retry import retry_io
from repro.perf import zones as _perf_zones
from repro.sim.sync import Condition, Lock
from repro.storage.block_cache import BlockCache
from repro.storage.bloom import probe_pair
from repro.storage.memtable import FOUND, MemTable, NOT_FOUND
from repro.storage.sstable import SSTableBuilder
from repro.storage.wal import LogReader, LogWriter, RECORD_STANDALONE

__all__ = ["LSMEngine"]

RecordFilter = Callable[[int, int], bool]  # (rtype, gsn) -> keep?


#: monotonic engine-instance counter: sanitizer access keys must be unique
#: per *instance*, not per name — after a simulated crash the re-opened
#: engine shares its name with the dead one, but its state is new, so its
#: accesses must not appear to race with the pre-crash writers'.
_instance_counter = iter(range(1, 1 << 62))


class LSMEngine:
    """One LSM-tree KVS instance on a shared simulated machine.

    Also a p2KVS worker's instance as is (see :mod:`repro.core.adapters`
    for the protocol and its capability flags)."""

    #: every preset builds one WriteBatch per OBM-write.
    supports_batch_write = True
    #: MVCC snapshots, for read-committed transactions.
    supports_snapshots = True

    def __init__(self, env: Env, name: str, options: Optional[EngineOptions] = None):
        self.env = env
        self.name = name
        self._san_key = "engine:%s#%d" % (name, next(_instance_counter))
        self.options = options or EngineOptions()
        #: RocksDB has a native multiget; LevelDB does not.
        self.supports_multiget = self.options.supports_multiget
        self.costs = CostModel()
        self.versions = VersionSet(env, name, self.options)
        self.block_cache = BlockCache(self.options.block_cache_bytes)
        self.seq = 0  # last *allocated* sequence number
        #: last *published* sequence: readers only see entries up to here.
        #: Allocation happens at group formation but entries become visible
        #: only after the whole group's memtable inserts complete, in
        #: allocation order — RocksDB's last_sequence publication protocol,
        #: without which a snapshot could observe half of a WriteBatch.
        self.visible_seq = 0
        self._publish_pending: List[Tuple[int, int]] = []
        self.memtable = MemTable(sim=env.sim, track="memtable:%s" % name)
        self.immutables: List[Tuple[MemTable, int]] = []  # (memtable, min WAL)
        self.log_file_number = 0
        #: oldest WAL that may hold entries of the *active* memtable.  Under
        #: pipelined writes a group's WAL records can land in segment N while
        #: its memtable inserts run after a switch created segment N+1, so
        #: the active memtable's data can predate its own WAL.
        self.memtable_min_log = 0
        #: WAL number -> count of groups logged there whose memtable inserts
        #: have not landed yet; those segments must outlive the window.
        self._wal_pins: Dict[int, int] = {}
        self.log_writer: Optional[LogWriter] = None
        self.coordinator = WriteGroupCoordinator(self)
        self.compacting = set()  # file numbers being compacted
        self.active_inserters = 0  # threads inside a memtable insert now
        self.closing = False
        self.read_lock = Lock(env.sim, "%s-read" % name)
        self.mem_meta_lock = Lock(env.sim, "%s-memmeta" % name)
        self.publish_cond = Condition(env.sim, "%s-publish" % name)
        self.stall_cond = Condition(env.sim, "%s-stall" % name)
        self.flush_cond = Condition(env.sim, "%s-flush" % name)
        self.compact_cond = Condition(env.sim, "%s-compact" % name)
        # Counter family in the machine-wide registry ("engine.<name>.*");
        # fresh=True so a re-opened engine (post-crash) starts at zero like
        # its dead namesake did.
        self.counters = env.metrics.group("engine.%s" % name, fresh=True)
        self.snapshots: List[int] = []
        self._compaction_pacer = 0.0  # token-bucket tail for the rate limiter
        self._flush_busy = 0
        self._stall_depth = 0  # writers currently blocked in _stall
        self._backlog_token: Optional[int] = None
        self._bg_threads: List = []
        self._register_gauges()

    def _register_gauges(self) -> None:
        registry = self.env.metrics
        prefix = "engine.%s" % self.name
        registry.gauge(
            "%s.memtable_bytes" % prefix, lambda: self.memtable.approximate_size
        )
        registry.gauge(
            "%s.immutable_memtables" % prefix, lambda: len(self.immutables)
        )
        registry.gauge(
            "%s.l0_files" % prefix,
            lambda: len(self.versions.current.level_files(0)),
        )
        registry.gauge("%s.stalled_writers" % prefix, lambda: self._stall_depth)
        registry.gauge(
            "%s.block_cache_bytes" % prefix, lambda: self.block_cache.used_bytes
        )
        registry.gauge(
            "%s.block_cache_hit_rate" % prefix, lambda: self.block_cache.hit_rate
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        env: Env,
        name: str,
        options: Optional[EngineOptions] = None,
        record_filter: Optional[RecordFilter] = None,
    ) -> Generator:
        """Create or recover an engine and start its background threads."""
        engine = cls(env, name, options)
        yield from engine._recover(record_filter)
        monitor = env.sim.monitor
        if monitor is not None:
            # Recovery touched the seq counter, WAL and memtable from the
            # opening process; publish that history on the coordinator so
            # the first writer's accesses are ordered after it.
            monitor.on_sync(engine.coordinator)
        engine._start_background()
        return engine

    def _wal_path(self, number: int) -> str:
        return "%s/wal-%06d" % (self.name, number)

    def _new_wal(self) -> None:
        self.log_file_number = self.versions.new_file_number()
        vfile = self.env.disk.open_file(self._wal_path(self.log_file_number))
        self.log_writer = LogWriter(vfile)
        # A fresh WAL always accompanies a fresh (or just-replayed) memtable:
        # until a pipelined group says otherwise, nothing in it predates it.
        self.memtable_min_log = self.log_file_number

    def _recover(self, record_filter: Optional[RecordFilter]) -> Generator:
        yield from self.versions.recover()
        # Resume the sequence space above every surviving SSTable so new
        # writes never collide with (or hide behind) persisted versions.
        version = self.versions.current
        for level in range(version.num_levels()):
            for meta in version.level_files(level):
                self.seq = max(self.seq, meta.table.max_seq)
        # Replay WAL segments newer than the manifest's watermark, in order.
        prefix = "%s/wal-" % self.name
        paths = self.env.disk.list_files(prefix)
        numbered = sorted(
            (int(p[len(prefix):]), p) for p in paths
        )
        for number, path in numbered:
            if number < self.versions.log_number:
                self.env.disk.delete_file(path)
                continue
            data = yield from self.env.disk.open_file(path).read_all("recovery")
            reader = LogReader(data, source=path)
            try:
                for record in reader:
                    if record_filter is not None and not record_filter(
                        record.rtype, record.gsn
                    ):
                        continue
                    batch = WriteBatch.decode(record.payload)
                    seqs = self.allocate_seqs(len(batch))
                    self.apply_to_memtable(batch, seqs)
            except Corruption:
                # Mid-log corruption is not a crash artifact — refuse to
                # open rather than silently drop acknowledged writes.
                self.counters.add("recovery_corruption")
                raise
            if reader.records_read:
                self.counters.add("recovery_records", reader.records_read)
            if reader.truncated:
                # Expected crash signature: the unsynced (or torn) suffix
                # died with the page cache.  Count it and move on.
                self.counters.add("recovery_torn_tails")
                self.counters.add("recovery_torn_bytes", reader.tail_bytes)
            self.env.disk.delete_file(path)
        self.visible_seq = self.seq  # everything replayed is visible
        self._new_wal()
        # Re-log the recovered memtable so it is durable under the new WAL.
        if not self.memtable.empty:
            recovered = WriteBatch()
            for key, _seq, vtype, value in self.memtable.entries():
                recovered._records.append((vtype, key, value))
            self.log_writer.append(recovered.encode(), RECORD_STANDALONE, 0)
            yield from self.log_writer.flush("wal")

    def _start_background(self) -> None:
        sim, cpu = self.env.sim, self.env.cpu
        # One flush and one compaction thread; the "-0" keeps the track names
        # traces have always carried.
        ctx = cpu.new_thread("%s-flush-0" % self.name, "background")
        self._bg_threads.append(sim.spawn(self._flush_loop(ctx), "%s-flush" % self.name))
        ctx = cpu.new_thread("%s-compact-0" % self.name, "background")
        self._bg_threads.append(
            sim.spawn(self._compaction_loop(ctx), "%s-compact" % self.name)
        )

    def close(self) -> Generator:
        """Flush the WAL tail and stop background threads."""
        self.closing = True
        if self.log_writer is not None:
            writer = self.log_writer
            yield from retry_io(
                self.env, lambda: writer.flush("wal"), site="close",
                counters=self.counters,
            )
        self.flush_cond.notify_all()
        self.compact_cond.notify_all()
        self.stall_cond.notify_all()

    # ------------------------------------------------------------------
    # Write path (called by WriteGroupCoordinator)
    # ------------------------------------------------------------------

    def allocate_seqs(self, n: int) -> range:
        monitor = self.env.sim.monitor
        if monitor is not None:
            # The sequence counter is leader-private state: only the current
            # group leader (or recovery, before any writer starts) may touch
            # it.  A race here means two concurrent leaders.
            monitor.on_access("%s:seq" % self._san_key, write=True, site="allocate_seqs")
        start = self.seq + 1
        self.seq += n
        return range(start, start + n)

    def publish_seqs(self, first: int, last: int) -> None:
        """Make [first, last] visible once every lower seq is visible too.

        Deliberately *not* race-probed: the pending-publish min-heap makes
        publication commutative — any arrival order of completed groups
        yields the same visible_seq, which is the whole point of the
        protocol (see docs/ANALYSIS.md).
        """
        import heapq

        if last < first:
            return
        heapq.heappush(self._publish_pending, (first, last))
        advanced = False
        while (
            self._publish_pending
            and self._publish_pending[0][0] == self.visible_seq + 1
        ):
            _, upto = heapq.heappop(self._publish_pending)
            self.visible_seq = upto
            advanced = True
        if advanced:
            self.publish_cond.notify_all()

    def log_append(self, payload: bytes, rtype: int, gsn: int) -> None:
        faults = self.env.faults
        if faults is not None:
            faults.crash_site("wal-append")
        monitor = self.env.sim.monitor
        if monitor is not None:
            # The WAL writer's buffer is exclusive to the current leader.
            monitor.on_access("%s:wal" % self._san_key, write=True, site="log_append")
        nbytes = len(payload)
        counters = self.counters
        counters.add("wal_appends")
        counters.add("wal_bytes", nbytes)
        self.log_writer.append(payload, rtype, gsn)

    def pin_wal(self, number: int) -> None:
        """A write group logged its records in WAL ``number`` but has not yet
        applied them to a memtable: keep the segment from being obsoleted by
        a concurrent flush install until :meth:`unpin_wal`.  A group killed by
        exhausted IO retries leaks its pin — conservative: an extra WAL
        survives, never the reverse."""
        self._wal_pins[number] = self._wal_pins.get(number, 0) + 1

    def unpin_wal(self, number: int) -> None:
        count = self._wal_pins.get(number, 0) - 1
        if count <= 0:
            self._wal_pins.pop(number, None)
        else:
            self._wal_pins[number] = count

    def note_wal_dependency(self, number: int) -> None:
        """Record that the active memtable now holds an entry logged in WAL
        ``number`` (older than the memtable itself under pipelined writes)."""
        if number < self.memtable_min_log:
            self.memtable_min_log = number

    def maybe_flush_wal(self, ctx, writer: Optional[LogWriter] = None):
        """For ``yield from``: flush ``writer`` when the WAL is synchronous or
        its buffer is full; ``()`` (nothing to wait on) otherwise."""
        # The caller passes the writer it appended to: the active log can
        # rotate between a group's append and its flush (pipelined writes),
        # and flushing the *new* segment would leave the group's own records
        # buffered — acknowledged but not durable.
        if writer is None:
            writer = self.log_writer
        if self.options.sync_wal or writer.pending_bytes >= WAL_FLUSH_BYTES:
            return self._flush_wal(ctx, writer)
        return ()

    def _flush_wal(self, ctx, writer: LogWriter) -> Generator:
        faults = self.env.faults
        if faults is not None:
            faults.crash_site("wal-flush", torn_file=writer.vfile)
        waited_since = self.env.sim.now
        yield from retry_io(
            self.env, lambda: writer.flush("wal"), site="wal-flush",
            counters=self.counters,
        )
        ctx.account_wait("wal", self.env.sim.now - waited_since)

    def apply_to_memtable(self, batch: WriteBatch, seqs) -> None:
        if not self.options.enable_memtable:
            return
        monitor = self.env.sim.monitor
        if monitor is not None:
            if self.options.concurrent_memtable:
                # Concurrent skiplist: internally synchronized, every insert
                # is a happens-before edge (RocksDB's lock-free memtable).
                monitor.on_sync(self.memtable)
            else:
                # Exclusive memtable (LevelDB mode): only one writer at a
                # time may insert; overlap is a data race.
                monitor.on_access(
                    "%s:memtable" % self._san_key, write=True, site="apply_to_memtable"
                )
        for (vtype, key, value), seq in zip(batch, seqs):
            self.memtable.add(seq, vtype, key, value)

    def maybe_stall(self, ctx):
        """For ``yield from``: write backpressure (memtable backlog, L0
        buildup); ``()`` when no stall or slowdown applies."""
        opts = self.options
        l0 = len(self.versions.current.level_files(0))
        if l0 < opts.l0_slowdown_trigger and (
            self.closing
            or (
                len(self.immutables) < MAX_WRITE_BUFFER_NUMBER
                and l0 < opts.l0_stop_trigger
            )
        ):
            return ()
        return self._stall(ctx)

    def _stall(self, ctx) -> Generator:
        opts = self.options
        events = self.env.metrics.events
        while not self.closing:
            l0 = len(self.versions.current.level_files(0))
            if len(self.immutables) >= MAX_WRITE_BUFFER_NUMBER:
                self.counters.add("stall_memtable")
                yield from self._stalled_wait(ctx, events, "memtable")
                continue
            if l0 >= opts.l0_stop_trigger:
                self.counters.add("stall_l0_stop")
                yield from self._stalled_wait(ctx, events, "l0_stop")
                continue
            break
        l0 = len(self.versions.current.level_files(0))
        if l0 >= opts.l0_slowdown_trigger:
            self.counters.add("stall_l0_slowdown")
            self._stall_depth += 1
            token = events.begin(
                "write_stall",
                self.env.sim.now,
                engine=self.name,
                reason="l0_slowdown",
            )
            waited_since = self.env.sim.now
            yield self.env.sim.timeout(SLOWDOWN_DELAY)
            events.end(token, self.env.sim.now)
            self._stall_depth -= 1
            ctx.account_wait("stall", self.env.sim.now - waited_since)

    def _stalled_wait(self, ctx, events, reason: str) -> Generator:
        """One full-stop stall episode: event-logged wait on the stall cond.

        Inlined into _stall's while loop, which re-checks the stall
        predicates after every wakeup.
        """
        self._stall_depth += 1
        token = events.begin(
            "write_stall", self.env.sim.now, engine=self.name, reason=reason
        )
        yield self.stall_cond.wait(ctx, "stall")  # lint: disable=condvar-wait-loop  (caller's while re-checks)
        events.end(token, self.env.sim.now)
        self._stall_depth -= 1

    def post_write(self, ctx, members) -> None:
        """Group-completion bookkeeping: counters and memtable switch."""
        for w in members:
            self.counters.add("write_requests")
            self.counters.add("records_written", len(w.batch))
            self.counters.add("user_bytes_written", w.batch.byte_size)
        if (
            self.options.enable_memtable
            and not self.options.disable_flush
            and self.memtable.approximate_size >= self.options.write_buffer_size
        ):
            self._switch_memtable()

    def _switch_memtable(self) -> None:
        if self.memtable.empty:
            return
        faults = self.env.faults
        if faults is not None:
            faults.crash_site("memtable-switch")
        # Pair the retiring memtable with the oldest WAL that may hold its
        # entries (not merely the segment active right now).
        self.immutables.append((self.memtable, self.memtable_min_log))
        self.memtable = MemTable(
            sim=self.env.sim, track="memtable:%s" % self.name
        )
        self._new_wal()
        self.flush_cond.notify_all()
        self._update_backlog()

    def _update_backlog(self) -> None:
        """Open/close the compaction-backlog event at state transitions.

        The backlog predicate is a cheap threshold probe (L0 width at the
        slowdown trigger, or a full immutable-memtable quota) deliberately
        independent of pick_compaction: probing the picker would advance its
        round-robin cursor and change compaction order.
        """
        l0 = len(self.versions.current.level_files(0))
        backlogged = (
            l0 >= self.options.l0_slowdown_trigger
            or len(self.immutables) >= MAX_WRITE_BUFFER_NUMBER
        )
        if backlogged and self._backlog_token is None:
            self._backlog_token = self.env.metrics.events.begin(
                "compaction_backlog",
                self.env.sim.now,
                engine=self.name,
                l0_files=l0,
                immutables=len(self.immutables),
            )
        elif not backlogged and self._backlog_token is not None:
            self.env.metrics.events.end(self._backlog_token, self.env.sim.now)
            self._backlog_token = None

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------

    def put(self, ctx, key: bytes, value: bytes) -> Generator:
        batch = WriteBatch().put(key, value)
        yield from self.write(ctx, batch)

    def delete(self, ctx, key: bytes) -> Generator:
        batch = WriteBatch().delete(key)
        yield from self.write(ctx, batch)

    def write(
        self, ctx, batch: WriteBatch, gsn: int = 0, rtype: int = RECORD_STANDALONE
    ) -> Generator:
        if batch.empty:
            return
        yield from self.coordinator.write(ctx, batch, gsn, rtype)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _memory_lookup(self, key: bytes, snapshot_seq: int):
        state, value = self.memtable.get(key, snapshot_seq)
        if state != NOT_FOUND:
            return state, value
        for memtable, _log in reversed(self.immutables):
            state, value = memtable.get(key, snapshot_seq)
            if state != NOT_FOUND:
                return state, value
        return NOT_FOUND, None

    def _table_lookup(
        self, ctx, key: bytes, snapshot_seq: int, charge_probes: bool = True
    ) -> Generator:
        """Search the on-disk tree, newest data first.

        ``charge_probes=False`` is the multiget path: RocksDB's multiget
        sorts the keys and shares filter/index block work across them, so
        per-table probe CPU is amortized into the per-key multiget cost.
        """
        costs = self.costs
        page_cache = self.env.disk.page_cache
        version = self.versions.current
        pair = None  # the key's filter probe pair, hashed at the first table
        for meta in version.level_files(0):  # newest first
            if not (meta.smallest <= key <= meta.largest):
                continue
            if charge_probes:
                yield self.env.cpu.exec(ctx, costs.get_table_probe, "read")
            pair = pair or probe_pair(key)
            state, value = yield from meta.table.get(
                key,
                snapshot_seq,
                self.block_cache,
                self.env.device,
                page_cache,
                pair=pair,
            )
            if state != NOT_FOUND:
                return state, value
        for level in range(1, version.num_levels()):
            candidates = [
                f
                for f in version.level_files(level)
                if f.smallest <= key <= f.largest
            ]
            # Under leveled compaction there is at most one candidate; the
            # FLSM style may have several overlapping runs (newest first).
            candidates.sort(key=lambda f: -f.number)
            for meta in candidates:
                if charge_probes:
                    yield self.env.cpu.exec(ctx, costs.get_table_probe, "read")
                pair = pair or probe_pair(key)
                state, value = yield from meta.table.get(
                    key,
                    snapshot_seq,
                    self.block_cache,
                    self.env.device,
                    page_cache,
                    pair=pair,
                )
                if state != NOT_FOUND:
                    return state, value
        return NOT_FOUND, None

    def get_status(
        self, ctx, key: bytes, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """Point lookup with an unambiguous outcome: ``ok(value)`` or
        ``not_found`` — deletions and never-written keys both report
        NOT_FOUND explicitly instead of a ``None`` that could mean either.

        Reads at the last *published* sequence by default, so concurrent
        WriteBatches are observed atomically or not at all.
        """
        if snapshot_seq is None:
            snapshot_seq = self.visible_seq
        self.counters.add("read_requests")
        # The instance-wide read critical section (block-cache LRU + version
        # bookkeeping): concurrent readers of one instance serialize here.
        yield from self.read_lock.acquire_now(ctx, "read_lock")
        yield self.env.cpu.exec(ctx, self.costs.read_serial, "read")
        self.read_lock.release()
        yield self.env.cpu.exec(ctx, self.costs.get_memtable_probe, "read")
        state, value = self._memory_lookup(key, snapshot_seq)
        if state == NOT_FOUND:
            state, value = yield from self._table_lookup(ctx, key, snapshot_seq)
        if state == FOUND:
            return KVStatus.ok(value)
        return KVStatus.not_found()

    def get(self, ctx, key: bytes, snapshot_seq: Optional[int] = None) -> Generator:
        """Point-lookup sugar: the value bytes, or None if not found.
        Typed errors (device IO, corruption) raise as ``KVError``s."""
        status = yield from self.get_status(ctx, key, snapshot_seq)
        return status.value_or(None)

    def multiget_status(
        self, ctx, keys: List[bytes], snapshot_seq: Optional[int] = None
    ) -> Generator:
        """Batched point lookups with internally parallel table IO; returns
        one ``KVStatus`` per key, in request order.

        RocksDB's multiget amortizes per-request CPU and overlaps the block
        reads of different keys; here each key's table lookup runs as its own
        sub-process so their device IOs overlap on the SSD channels while CPU
        bursts still serialize on the calling thread's core.
        """
        if snapshot_seq is None:
            snapshot_seq = self.visible_seq
        self.counters.add("read_requests", len(keys))
        yield from self.read_lock.acquire_now(ctx, "read_lock")
        yield self.env.cpu.exec(
            ctx,
            self.costs.read_serial + self.costs.read_serial_per_key * len(keys),
            "read",
        )
        self.read_lock.release()
        yield self.env.cpu.exec(
            ctx, self.costs.multiget_per_key * len(keys), "read"
        )
        results: dict = {}
        lookups = []
        order = []
        for key in keys:
            state, value = self._memory_lookup(key, snapshot_seq)
            if state != NOT_FOUND:
                results[key] = (
                    KVStatus.ok(value) if state == FOUND else KVStatus.not_found()
                )
            elif key not in results and key not in order:
                order.append(key)
        sim = self.env.sim

        def lookup_one(key):
            state, value = yield from self._table_lookup(
                ctx, key, snapshot_seq, charge_probes=False
            )
            status = KVStatus.ok(value) if state == FOUND else KVStatus.not_found()
            return key, status

        lookups = [sim.spawn(lookup_one(key)) for key in order]
        if lookups:
            done = yield sim.all_of(lookups)
            for key, status in done:
                results[key] = status
        return [results.get(key, KVStatus.not_found()) for key in keys]

    # ------------------------------------------------------------------
    # Range reads
    # ------------------------------------------------------------------

    def make_iterator(self, snapshot_seq: int) -> MergingIterator:
        """A merge-ready iterator over every source at ``snapshot_seq``."""
        cursors = [MemTableCursor(self.memtable)]
        for memtable, _log in reversed(self.immutables):
            cursors.append(MemTableCursor(memtable))
        version = self.versions.current
        cache, device, page_cache = (
            self.block_cache, self.env.device, self.env.disk.page_cache
        )
        for meta in version.level_files(0):
            cursors.append(meta.table.cursor(cache, device, page_cache))
        flsm = self.options.compaction_style == "flsm"
        for files in version.levels[1:]:
            if not files:
                continue
            if flsm:
                # Overlapping runs: one cursor per run.
                for meta in files:
                    cursors.append(meta.table.cursor(cache, device, page_cache))
            else:
                cursors.append(LevelCursor(files, cache, device, page_cache))
        return MergingIterator(cursors, snapshot_seq)

    def _iterate(
        self, ctx, begin: bytes, snapshot_seq: Optional[int], limit=None, end=None
    ) -> Generator:
        """One sub-scan: seek every source, merge, charge per entry merged;
        returns the visible entries."""
        if snapshot_seq is None:
            snapshot_seq = self.visible_seq
        iterator = self.make_iterator(snapshot_seq)
        yield self.env.cpu.exec(
            ctx, self.costs.seek_per_source * len(iterator._cursors), "read"
        )
        yield from iterator.seek(begin)
        out = yield from iterator.collect(limit, end)
        if iterator.entries_scanned:
            yield self.env.cpu.exec(
                ctx, self.costs.next_per_entry * iterator.entries_scanned, "read"
            )
        return out

    def scan_rows(
        self, ctx, begin: bytes, count: int, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """SCAN(begin, count) as rows: up to ``count`` visible entries
        ``(key, seq, vtype, value)`` starting at begin."""
        self.counters.add("scan_requests")
        return self._iterate(ctx, begin, snapshot_seq, limit=count)

    def range_rows(
        self, ctx, begin: bytes, end: bytes, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """RANGE(begin, end) as rows: every visible entry with
        begin <= key <= end."""
        self.counters.add("range_requests")
        return self._iterate(ctx, begin, snapshot_seq, end=end)

    def scan(
        self, ctx, begin: bytes, count: int, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """SCAN(begin, count): up to ``count`` pairs starting at begin."""
        rows = yield from self.scan_rows(ctx, begin, count, snapshot_seq)
        return [(row[0], row[3]) for row in rows]

    def range_query(
        self, ctx, begin: bytes, end: bytes, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """RANGE(begin, end): all pairs with begin <= key <= end."""
        rows = yield from self.range_rows(ctx, begin, end, snapshot_seq)
        return [(row[0], row[3]) for row in rows]

    # ------------------------------------------------------------------
    # Admin operations
    # ------------------------------------------------------------------

    def flush(self, ctx) -> Generator:
        """Force the active memtable to disk and wait for its flush."""
        if not self.memtable.empty:
            self._switch_memtable()
        while self.immutables:
            yield self.env.sim.timeout(10e-6)

    def compact_all(self, ctx) -> Generator:
        """Run compactions inline until the tree satisfies every trigger.

        The RocksDB ``CompactRange``-style maintenance entry point: useful
        before read-heavy phases and in tests that need a quiesced tree.
        """
        yield from self.flush(ctx)
        while True:
            compaction = pick_compaction(self)
            if compaction is None:
                return
            yield from self._run_compaction(ctx, compaction)
            self.stall_cond.notify_all()

    def describe(self) -> dict:
        """A RocksDB-`GetProperty`-style stats snapshot."""
        version = self.versions.current
        levels = [
            {
                "files": len(version.level_files(level)),
                "bytes": version.level_bytes(level),
            }
            for level in range(version.num_levels())
        ]
        return {
            "name": self.name,
            "levels": levels,
            "memtable_bytes": self.memtable.approximate_size,
            "immutable_memtables": len(self.immutables),
            "last_seq": self.seq,
            "live_snapshots": len(self.snapshots),
            "block_cache": {
                "used_bytes": self.block_cache.used_bytes,
                "hit_rate": self.block_cache.hit_rate,
            },
            "counters": self.counters.as_dict(),
            "memory_bytes": self.memory_bytes(),
        }

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        seq = self.visible_seq
        self.snapshots.append(seq)
        return seq

    def release_snapshot(self, seq: int) -> None:
        self.snapshots.remove(seq)

    # ------------------------------------------------------------------
    # Background: flush
    # ------------------------------------------------------------------

    def _flush_loop(self, ctx) -> Generator:
        while not self.closing:
            if not self.immutables or self._flush_busy >= len(self.immutables):
                yield self.flush_cond.wait()
                continue
            self._flush_busy += 1
            memtable, min_log = self.immutables[self._flush_busy - 1]
            failed = False
            try:
                yield from self._flush_one(ctx, memtable, min_log)
            except (IOFailure, TimedOut):
                # Degradation: retries were exhausted.  The immutable stays
                # queued (its WAL is still live), so no data is lost; back
                # off and try again rather than killing the flush thread.
                failed = True
                self.counters.add("bg_flush_errors")
            finally:
                self._flush_busy -= 1
            if failed:
                yield self.env.sim.timeout(200e-6)

    def _flush_one(self, ctx, memtable: MemTable, min_log: int) -> Generator:
        costs = self.costs
        sim = self.env.sim
        tracer = sim.tracer
        if tracer is not None:
            started = sim._now
            vals = (self.name, len(memtable), memtable.approximate_size)
        number = self.versions.new_file_number()
        builder = SSTableBuilder(number, self.options.block_size)
        chunk = 0
        for key, seq, vtype, value in memtable.entries():
            builder.add(key, seq, vtype, value)
            chunk += 1
            if chunk >= costs.background_chunk:
                yield self.env.cpu.exec(ctx, costs.flush_per_entry * chunk, "flush")
                chunk = 0
        if chunk:
            yield self.env.cpu.exec(ctx, costs.flush_per_entry * chunk, "flush")
        table = builder.finish()
        yield from self._write_sst(table, "flush")
        faults = self.env.faults
        if faults is not None:
            # Between SST commit and manifest install: recovery must GC the
            # orphan blob and replay the still-live WAL.
            faults.crash_site("flush-install")
        self.counters.add("flush_bytes", table.file_size)
        self.counters.add("flushes")
        # Install the SST *before* dropping the immutable: between the two
        # steps readers see the data twice (harmless - MVCC dedup hides it),
        # never zero times.  The oldest useful WAL is the min over everything
        # that still depends on one: remaining immutables, the active
        # memtable (whose entries may predate its own segment under
        # pipelined writes), and groups pinned between WAL and memtable.
        remaining = [
            (mt, log) for mt, log in self.immutables if mt is not memtable
        ]
        needed = [log for _mt, log in remaining]
        needed.append(self.memtable_min_log)
        if self._wal_pins:
            needed.append(min(self._wal_pins))
        oldest_log = min(needed)
        edit = VersionEdit(
            added=[(0, FileMeta.from_table(table))], log_number=oldest_log
        )
        yield from self.versions.log_and_apply(edit)
        self.immutables = [
            (mt, log) for mt, log in self.immutables if mt is not memtable
        ]
        # Drop every segment below the durable watermark (not just this
        # memtable's: the flushed data may keep later segments alive while
        # an earlier flush already freed older ones).
        prefix = "%s/wal-" % self.name
        for path in self.env.disk.list_files(prefix):
            if int(path[len(prefix):]) < oldest_log:
                self.env.disk.delete_file(path)
        self._update_backlog()
        self.stall_cond.notify_all()
        self.compact_cond.notify_all()
        if tracer is not None:
            tracer.complete(
                "flush", "flush", ctx.track, started, sim._now,
                ("engine", "entries", "bytes", "file_size"), vals + (table.file_size,),
            )

    # ------------------------------------------------------------------
    # Background: compaction
    # ------------------------------------------------------------------

    def _compaction_loop(self, ctx) -> Generator:
        while not self.closing:
            compaction = pick_compaction(self)
            if compaction is None:
                yield self.compact_cond.wait()
                continue
            try:
                yield from self._run_compaction(ctx, compaction)
            except (IOFailure, TimedOut):
                # Inputs are untouched and uncommitted outputs are orphan
                # blobs (GC'd on recovery); re-pick after a short backoff.
                self.counters.add("bg_compaction_errors")
                yield self.env.sim.timeout(200e-6)
            self.stall_cond.notify_all()

    def _run_compaction(self, ctx, compaction: Compaction) -> Generator:
        costs = self.costs
        sim = self.env.sim
        tracer = sim.tracer
        if tracer is not None:
            started = sim._now
            vals = (self.name, compaction.level, compaction.target, compaction.input_bytes)
        for meta in compaction.all_inputs:
            self.compacting.add(meta.number)
        try:
            runs = []
            for meta in compaction.all_inputs:
                table = meta.table
                entries = yield from retry_io(
                    self.env,
                    lambda: table.read_all_entries(self.env.device),
                    site="compaction-read", counters=self.counters,
                )
                runs.append(entries)
            outputs = []
            builder = None
            chunk = 0
            # The merge zone must never span a sim yield (host-time zones are
            # a LIFO stack) — close it around each chunked cpu.exec below.
            _p = _perf_zones.PROFILER
            if _p is not None:
                _p.enter("engine.compaction.merge")
            # Inside the zone: merge_sorted_runs sorts eagerly.
            merged = merge_sorted_runs(runs)
            survivors = dedup_entries(
                merged, sorted(self.snapshots), compaction.drop_tombstones
            )
            for key, seq, vtype, value in survivors:
                if builder is None:
                    builder = SSTableBuilder(
                        self.versions.new_file_number(), self.options.block_size
                    )
                builder.add(key, seq, vtype, value)
                chunk += 1
                if chunk >= costs.background_chunk:
                    if _p is not None:
                        _p.leave()
                    yield self.env.cpu.exec(
                        ctx, costs.compact_per_entry * chunk, "compaction"
                    )
                    if _p is not None:
                        _p.enter("engine.compaction.merge")
                    chunk = 0
                if builder.estimated_size >= self.options.target_file_size:
                    outputs.append(builder.finish())
                    builder = None
            if _p is not None:
                _p.leave()
            if chunk:
                yield self.env.cpu.exec(
                    ctx, costs.compact_per_entry * chunk, "compaction"
                )
            if builder is not None and not builder.empty:
                outputs.append(builder.finish())
            for table in outputs:
                yield from self._write_sst(table, "compaction")
                yield from self._throttle_compaction(table.file_size)
            edit = VersionEdit(
                added=[(compaction.target, FileMeta.from_table(t)) for t in outputs],
                deleted=[
                    (compaction.level, f.number) for f in compaction.inputs_lo
                ]
                + [(compaction.target, f.number) for f in compaction.inputs_hi],
            )
            yield from self.versions.log_and_apply(edit)
            for meta in compaction.all_inputs:
                self.env.disk.delete_blob(self.versions.blob_name(meta.number))
            self.counters.add("compactions")
            self.counters.add("compaction_read_bytes", compaction.input_bytes)
            self.counters.add(
                "compaction_write_bytes", sum(t.file_size for t in outputs)
            )
            self._update_backlog()
            if tracer is not None:
                tracer.complete(
                    "compaction", "compaction", ctx.track, started, sim._now,
                    ("engine", "level", "target", "input_bytes", "output_bytes", "outputs"),
                    vals + (sum(t.file_size for t in outputs), len(outputs)),
                )
        finally:
            for meta in compaction.all_inputs:
                self.compacting.discard(meta.number)

    def _write_sst(self, table, category: str) -> Generator:
        """Persist a built SST: stage its blob, write it to the device as
        ``category`` IO (retried at site ``<category>-sst``), then commit the
        blob — a crash before the commit leaves an orphan that recovery GCs."""
        blob = self.versions.blob_name(table.number)
        self.env.disk.put_blob(blob, table, table.file_size)
        yield from retry_io(
            self.env,
            lambda: self.env.device.write(table.file_size, category=category),
            site=category + "-sst", counters=self.counters,
        )
        self.env.disk.commit_blob(blob)

    def _throttle_compaction(self, nbytes: int) -> Generator:
        """SILK-style rate limiting: pace compaction output writes so the
        sustained compaction write rate never exceeds the configured cap."""
        limit = self.options.compaction_rate_limit
        if not limit:
            return
        now = self.env.sim.now
        earliest = max(now, self._compaction_pacer) + nbytes / limit
        self._compaction_pacer = earliest
        if earliest > now:
            yield self.env.sim.timeout(earliest - now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident memory of this instance."""
        total = self.memtable.approximate_size
        total += sum(mt.approximate_size for mt, _ in self.immutables)
        total += self.block_cache.used_bytes
        version = self.versions.current
        for level in range(version.num_levels()):
            for meta in version.level_files(level):
                total += meta.table.filter_bytes + len(meta.table.blocks) * 24
        return total
