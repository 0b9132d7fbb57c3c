"""Group commit (RocksDB's JoinBatchGroup) for the LSM engine.

Concurrent writers form a *group* (paper Figure 3): the first arrival becomes
the leader, aggregates every waiting writer's log records, writes the WAL
once, then either applies all MemTable inserts itself (exclusive memtable —
LevelDB) or wakes the followers to insert their own batches in parallel
(RocksDB's concurrent memtable), and finally unlocks the group.

This file is where the paper's scalability pathology lives:

* followers sleep while the leader works — their wait is accounted as
  ``wal_lock`` until the log write completes and ``memtable_lock`` after;
* the leader pays a wake-up cost per follower, so lock overhead *grows* with
  group size (Figure 6, claim ``fig06.locks_32``);
* with ``pipelined_write`` the WAL stage of the next group overlaps the
  MemTable stage of the current one.
"""

from collections import deque
from typing import Deque, Generator, List, Optional

from repro.engine.options import MAX_GROUP_SIZE
from repro.errors import KVError
from repro.sim.sync import Barrier, Lock

__all__ = ["WriteGroupCoordinator", "Writer"]


class Writer:
    """One pending write request inside the group machinery."""

    __slots__ = (
        "ctx",
        "batch",
        "n",
        "gsn",
        "rtype",
        "role_event",
        "enqueue_time",
        "_seqs",
        "_wal_number",
    )

    def __init__(self, ctx, batch, n: int, gsn: int, rtype: int):
        self.ctx = ctx
        self.batch = batch
        #: records in ``batch``, counted once by the engine.
        self.n = n
        self.gsn = gsn
        self.rtype = rtype
        self.role_event = None
        self.enqueue_time = 0.0
        self._wal_number: Optional[int] = None


class _Group:
    __slots__ = (
        "members",
        "barrier",
        "wal_done_time",
        "first_seq",
        "last_seq",
        "remaining",
        "wal_number",
        "pinned",
    )

    def __init__(self, members: List[Writer]):
        self.members = members
        self.barrier: Optional[Barrier] = None
        self.wal_done_time = 0.0
        self.first_seq = 0
        self.last_seq = -1
        self.remaining = len(members)
        #: the WAL segment this group's records went to (None: WAL disabled).
        #: Pinned in the engine until every member's memtable insert lands,
        #: so a concurrent flush install cannot obsolete the segment first.
        self.wal_number: Optional[int] = None
        self.pinned = False


class WriteGroupCoordinator:
    """Serializes the write path of one engine instance via leader election."""

    def __init__(self, engine):
        self.engine = engine
        self.sim = engine.env.sim
        self.cpu = engine.env.cpu
        self.opts = engine.options
        self.costs = engine.costs
        self._pending: Deque[Writer] = deque()
        self._leader_busy = False
        self._mem_stage_lock = Lock(self.sim, "mem-stage")

    # -- entry point ------------------------------------------------------

    def write(self, ctx, batch, n: int, gsn: int = 0, rtype: int = 0) -> Generator:
        """Full write-path for one batch of ``n`` records; returns when it is
        applied."""
        costs = self.costs
        sim = self.sim
        yield self.cpu.exec(ctx, costs.write_other + costs.group_join, "other")
        monitor = sim.monitor
        if monitor is not None:
            # JoinBatchGroup is an atomic join in RocksDB: the coordinator's
            # _leader_busy/_pending state is internally synchronized, so the
            # join is a happens-before edge between successive writers.
            monitor.on_sync(self)
        writer = Writer(ctx, batch, n, gsn, rtype)
        if self._leader_busy:
            writer.role_event = sim.event()
            writer.enqueue_time = sim._now
            self._pending.append(writer)
            role = yield writer.role_event
            if role[0] != "lead":
                if role[0] == "failed":
                    # The group died before any memtable insert (stall
                    # timeout, exhausted IO retries): every member reports
                    # the same error.
                    raise role[1]
                if role[0] == "insert":
                    yield from self._follow_insert(writer, role[1])
                else:  # "done": the leader applied everything for us
                    self._account_follower_wait(writer, role[1])
                yield from self._wait_published(writer)
                return
            ctx.account_wait("wal_lock", sim._now - writer.enqueue_time)
        else:
            self._leader_busy = True
        group_box: List[_Group] = []
        try:
            yield from self._lead_inner(writer, group_box)
        except KVError as exc:
            self._abort_group(group_box[0] if group_box else None, exc)
            raise

    def _account_follower_wait(self, writer: Writer, group: _Group) -> None:
        now = self.sim._now
        wal_done = group.wal_done_time or now
        wal_done = max(writer.enqueue_time, min(wal_done, now))
        writer.ctx.account_wait("wal_lock", wal_done - writer.enqueue_time)
        writer.ctx.account_wait("memtable_lock", now - wal_done)

    # -- follower path -------------------------------------------------------

    def _follow_insert(self, writer: Writer, group: _Group) -> Generator:
        """Concurrent-memtable follower: woken after WAL, inserts its own batch."""
        sim = self.sim
        writer.ctx.account_wait("wal_lock", sim._now - writer.enqueue_time)
        tracer = sim.tracer
        started, n = sim._now, len(group.members)
        yield from self._insert_batch(writer)
        self._member_done(group)
        waited_since = sim._now
        yield group.barrier.arrive()
        writer.ctx.account_wait("memtable_lock", sim._now - waited_since)
        if tracer is not None:
            tracer.complete(
                "wg:follower", "write_group", writer.ctx.track, started, sim._now,
                ("group",), (n,),
            )

    def _member_done(self, group: _Group) -> None:
        """The last group member to finish inserting publishes the group's
        sequences — before the barrier releases anyone, so every member can
        read its own write after returning."""
        group.remaining -= 1
        if group.remaining == 0:
            if group.pinned:
                self.engine.unpin_wal(group.wal_number)
                group.pinned = False
            self.engine.publish_seqs(group.first_seq, group.last_seq)

    # -- leader path -----------------------------------------------------------

    def _abort_group(self, group: Optional[_Group], exc: KVError) -> None:
        """A group died before its memtable stage (stall timeout, exhausted
        IO retries): release the WAL pin, report the same error to every
        waiting member, and hand leadership on.  Degradation must fail the
        requests, never wedge the write path — KVError can only surface
        before the pipelined hand-off, so handing over here cannot elect a
        second concurrent leader."""
        if group is not None:
            if group.pinned:
                self.engine.unpin_wal(group.wal_number)
                group.pinned = False
            for w in group.members[1:]:
                if w.role_event is not None and not w.role_event.triggered:
                    w.role_event.succeed(("failed", exc))
            if group.last_seq >= group.first_seq:
                # Nothing was applied under these seqs; publishing them keeps
                # the contiguous publication chain moving for later groups.
                self.engine.publish_seqs(group.first_seq, group.last_seq)
        self._handover()

    def _lead_inner(self, leader: Writer, group_box: List["_Group"]) -> Generator:
        ctx = leader.ctx
        costs = self.costs
        opts = self.opts
        engine = self.engine
        sim = self.sim
        tracer = sim.tracer
        lead_started = sim._now

        # Respect backpressure before starting a group (write stalls).
        yield from engine.maybe_stall(ctx)

        members = [leader]
        group_cap = MAX_GROUP_SIZE if opts.group_commit else 1
        pending = self._pending
        while pending and len(members) < group_cap:
            members.append(pending.popleft())
        group = _Group(members)
        group_box.append(group)
        n = len(members)

        # Sequence numbers are allocated in group order (WAL order); they
        # become *visible* to readers only after the group's inserts land.
        # The ranges are contiguous, so the group's span runs from the first
        # one's start to the last one's end (empty when every batch is).
        for w in members:
            w._seqs = engine.allocate_seqs(w.n)
        group.first_seq = leader._seqs.start
        group.last_seq = members[-1]._seqs.stop - 1

        # --- WAL stage ---
        if opts.enable_wal:
            wal_started = sim._now
            # Capture the segment the appends go to: the active log can
            # rotate (another leader's post-write switch) while this group is
            # still between its WAL and memtable stages.
            log_writer = engine.log_writer
            group.wal_number = engine.log_file_number
            encode_cpu = 0.0
            wal_bytes = 0
            for w in members:
                payload = w.batch.encode()
                encode_cpu += costs.wal_record_cost(len(payload))
                wal_bytes += len(payload)
                engine.log_append(payload, w.rtype, w.gsn)
                w._wal_number = group.wal_number
            if opts.enable_memtable:
                engine.pin_wal(group.wal_number)
                group.pinned = True
            yield self.cpu.exec(ctx, encode_cpu + costs.wal_write_setup, "wal")
            yield from engine.maybe_flush_wal(ctx, log_writer)
            if tracer is not None:
                tracer.complete(
                    "wg:wal", "write_group", ctx.track, wal_started, sim._now,
                    ("bytes",), (wal_bytes,),
                )
        group.wal_done_time = sim._now

        if opts.pipelined_write:
            self._handover()

        # --- MemTable stage ---
        if opts.enable_memtable:
            mem_started, concurrent = sim._now, opts.concurrent_memtable
            if opts.concurrent_memtable:
                group.barrier = Barrier(sim, parties=n)
                # Leader wakes each follower (the unlock cost the paper files
                # under WAL lock overhead; zero-length without followers).
                yield from self.cpu.exec_now(
                    ctx, costs.wakeup_per_follower * (n - 1), "wal_lock"
                )
                if n > 1:
                    for w in members[1:]:
                        w.role_event.succeed(("insert", group))
                yield from self._insert_batch(leader)
                self._member_done(group)
                waited_since = sim._now
                yield from group.barrier.arrive_now()
                ctx.account_wait("memtable_lock", sim._now - waited_since)
            else:
                if opts.pipelined_write:
                    yield self._mem_stage_lock.acquire(ctx, "memtable_lock")
                total = 0.0
                for w in members:
                    total += self._batch_cost(w, concurrency=1)
                if total:
                    yield self.cpu.exec(ctx, total, "memtable")
                for w in members:
                    self._apply_batch(w, w._seqs)
                if group.pinned:
                    engine.unpin_wal(group.wal_number)
                    group.pinned = False
                # Publish before any follower wakes: a returning writer must
                # be able to read its own write.
                engine.publish_seqs(group.first_seq, group.last_seq)
                if opts.pipelined_write:
                    self._mem_stage_lock.release()
                if n > 1:
                    yield self.cpu.exec(
                        ctx, costs.wakeup_per_follower * (n - 1), "wal_lock"
                    )
                    for w in members[1:]:
                        w.role_event.succeed(("done", group))
            if tracer is not None:
                tracer.complete(
                    "wg:memtable", "write_group", ctx.track, mem_started, sim._now,
                    ("concurrent",), (concurrent,),
                )
        else:
            engine.publish_seqs(group.first_seq, group.last_seq)
            if n > 1:
                yield self.cpu.exec(
                    ctx, costs.wakeup_per_follower * (n - 1), "wal_lock"
                )
                for w in members[1:]:
                    w.role_event.succeed(("done", group))

        engine.post_write(ctx, members)
        if not opts.pipelined_write:
            self._handover()
        yield from self._wait_published(leader)
        if tracer is not None:
            tracer.complete(
                "wg:lead", "write_group", ctx.track, lead_started, sim._now,
                ("group",), (n,),
            )

    def _wait_published(self, writer: Writer):
        """For ``yield from``: block until this writer's sequences are visible
        to readers (``()`` when they already are): a returned write must be
        readable by its own thread (RocksDB's in-order memtable-writer exit)."""
        seqs = writer._seqs
        if not seqs or self.engine.visible_seq >= seqs[-1]:
            return ()
        return self._await_publish(writer, seqs[-1])

    def _await_publish(self, writer: Writer, last: int) -> Generator:
        engine = self.engine
        while engine.visible_seq < last:
            yield engine.publish_cond.wait(writer.ctx, "publish_wait")

    def _handover(self) -> None:
        monitor = self.sim.monitor
        if monitor is not None:
            # Leadership hand-off: the outgoing leader's history must reach
            # the next leader (it will touch the WAL writer and seq counter).
            monitor.on_sync(self)
        if self._pending:
            self._pending.popleft().role_event.succeed(("lead",))
        else:
            self._leader_busy = False

    # -- memtable helpers ---------------------------------------------------------

    def _batch_cost(self, writer: Writer, concurrency: int) -> float:
        costs = self.costs
        n = writer.n
        per_entry = costs.memtable_insert_cost(
            self.engine.memtable.entry_count, concurrency
        )
        total = per_entry * n
        if n > 1:
            total += costs.batch_per_record * (n - 1)
        return total

    def _insert_batch(self, writer: Writer) -> Generator:
        """Concurrent-memtable insert of one writer's own batch.

        Interference scales with how many threads are inserting into this
        instance's skiplist *right now* (CAS retries, cache-line bouncing),
        which is what limits the shared concurrent memtable in Fig 8b.
        """
        engine = self.engine
        engine.active_inserters += 1
        cost = self._batch_cost(writer, engine.active_inserters)
        yield self.cpu.exec(writer.ctx, cost, "memtable")
        engine.active_inserters -= 1
        # Serial global-metadata update: every concurrent memtable writer
        # funnels through this instance-wide critical section.
        yield from engine.mem_meta_lock.acquire_now(writer.ctx, "memtable_lock")
        yield self.cpu.exec(
            writer.ctx, self.costs.memtable_metadata_sync, "memtable"
        )
        engine.mem_meta_lock.release()
        self._apply_batch(writer, writer._seqs)  # type: ignore[attr-defined]

    def _apply_batch(self, writer: Writer, seqs) -> None:
        if writer._wal_number is not None:
            # The insert may land in a memtable newer than the segment the
            # record was logged to (pipelined writes): the active memtable
            # inherits the dependency so the segment outlives it.
            self.engine.note_wal_dependency(writer._wal_number)
        self.engine.apply_to_memtable(writer.batch, seqs)
