"""p2KVS worker threads (paper Sections 4.1 and 4.3).

Each worker owns one KVS instance and one request queue, and is pinned to a
dedicated core.  Its loop is Figure 9b's right-hand side: dequeue, form an
opportunistic batch, execute against the instance, complete the futures.
Background compactions belong to the instance's own threads; the worker only
runs the foreground path.
"""

from typing import Generator, List

from repro.core.obm import DEFAULT_BATCH_CAP, collect_batch
from repro.core.requests import (
    OP_SCAN,
    OP_TXN_RELEASE,
    OP_WRITEBATCH,
    READ_CLASS,
    Request,
    SHUTDOWN,
    WRITE_CLASS,
)
from repro.engine.batch import WriteBatch
from repro.errors import KVError, KVStatus
from repro.sim.queues import FIFOQueue

__all__ = ["Worker"]

#: worker-side CPU cost to dequeue + classify one batch.
DISPATCH_COST = 0.2e-6

#: base backoff before re-dispatching an idempotent batch after a
#: retryable error (doubles per attempt).
RETRY_BACKOFF = 50e-6


class Worker:
    """One KVS instance + request queue + pinned worker thread."""

    def __init__(
        self,
        worker_id: int,
        env,
        engine,
        core: int,
        obm_enabled: bool = True,
        obm_cap: int = DEFAULT_BATCH_CAP,
        prefix: str = "p2kvs",
    ):
        self.worker_id = worker_id
        self.env = env
        self.engine = engine
        self.obm_enabled = obm_enabled
        self.obm_cap = obm_cap
        # The default deployment keeps its historical un-prefixed queue and
        # metric names; a named instance (a service-plane shard) qualifies
        # everything so N deployments coexist on one machine.
        qual = "" if prefix == "p2kvs" else prefix + "-"
        self.queue = FIFOQueue(env.sim, "%sworker-%d" % (qual, worker_id))
        self.queue_track = "queues:%sworker-%d" % (qual, worker_id)
        self.ctx = env.cpu.new_thread(
            "%s-worker-%d" % (prefix, worker_id), kind="worker", pinned=core
        )
        # Registry-backed stats: the counter family and OBM batch-size
        # histogram live under "<prefix>.worker-<id>.*" machine-wide; the
        # queue depth is a gauge the sim-time sampler snapshots.
        self.counters = env.metrics.group(
            "%s.worker-%d" % (prefix, worker_id), fresh=True
        )
        self.batch_sizes = env.metrics.histogram(
            "%s.worker-%d.batch_size" % (prefix, worker_id), fresh=True
        )
        env.metrics.gauge(
            "%s.worker-%d.queue_depth" % (prefix, worker_id),
            lambda: len(self.queue),
        )
        #: gsn -> pre-transaction snapshot seq, for read-committed isolation:
        #: while a transaction's updates are applied-but-uncommitted on this
        #: instance, reads are served from the snapshot taken before them.
        self.txn_snapshots = {}
        self._proc = None

    def start(self) -> None:
        self._proc = self.env.sim.spawn(self._loop(), self.queue.name)

    def submit(self, request: Request) -> None:
        sim = self.env.sim
        tracer = sim.tracer
        if tracer is not None:
            # Residency spans overlap (many requests sit queued at once), so
            # each is an async span on the queue's track, written when the
            # request leaves the queue.
            request.queue_aid = next(tracer.aids)
            request.queued_at = sim._now
            request.queue_depth = len(self.queue)
        self.queue.put(request)

    def shutdown(self) -> None:
        self.queue.put(SHUTDOWN)

    # -- worker loop -------------------------------------------------------

    def _loop(self) -> Generator:
        # Loop-invariant lookups hoisted once: the generator body only
        # starts executing inside sim.run(), after all setup (sampler
        # install, tracer attach) is done, so these cannot change mid-run.
        env = self.env
        queue = self.queue
        cpu = env.cpu
        ctx = self.ctx
        tracer = env.sim.tracer
        counters = self.counters
        record_batch_size = self.batch_sizes.record
        obm_enabled = self.obm_enabled
        obm_cap = self.obm_cap
        while True:
            request = yield queue.get()
            if request is SHUTDOWN:
                return
            yield cpu.exec(ctx, DISPATCH_COST, "dispatch")
            if obm_enabled:
                batch = collect_batch(
                    request, queue, obm_cap, tracer=tracer, track=ctx.track
                )
            else:
                batch = [request]
            n = len(batch)
            record_batch_size(n)
            counters.add("batches")
            counters.add("requests", n)
            if tracer is not None:
                started = env.sim._now
                track = self.queue_track
                for r in batch:
                    if r.queue_aid is not None:
                        tracer.complete(
                            "queued:%s" % r.op, "queue", track, r.queued_at, started,
                            ("depth",), (r.queue_depth,), r.queue_aid,
                        )
                        r.queue_aid = None
                op = batch[0].op
            yield from self._run_batch(batch)
            if tracer is not None:
                tracer.complete(
                    "execute:%s" % batch[0].merge_class, "worker", ctx.track,
                    started, env.sim._now, ("batch", "op"), (n, op),
                )

    #: bounded re-dispatches of an idempotent batch before poisoning it.
    MAX_BATCH_RETRIES = 2

    def _run_batch(self, batch: List[Request]) -> Generator:
        """Execute with degradation: a typed error fails *requests*, never
        the worker loop.  Read-class batches (no side effects, no member
        completed before the error) get a bounded retry with backoff;
        write-class errors poison only the still-pending members — a WAL
        append is not idempotent, so a whole-batch rewrite could double
        writes that already completed."""
        attempts = 0
        while True:
            try:
                yield from self._execute(batch)
                return
            except KVError as exc:
                retryable = (
                    exc.retryable
                    and batch[0].merge_class != WRITE_CLASS
                    and attempts < self.MAX_BATCH_RETRIES
                )
                if not retryable:
                    self._poison(batch, exc)
                    return
                attempts += 1
                self.counters.add("request_retries")
                tracer = self.env.sim.tracer
                if tracer is not None:
                    tracer.instant(
                        "retry:%s" % batch[0].op,
                        "worker",
                        self.ctx.track,
                        ("error", "attempt"),
                        (exc.code, attempts),
                    )
                yield self.env.sim.timeout(RETRY_BACKOFF * (1 << (attempts - 1)))

    def _poison(self, batch: List[Request], exc: KVError) -> None:
        """Fail this batch's pending requests with an error status."""
        status = KVStatus.from_error(exc)
        poisoned = 0
        for request in batch:
            if request.completed:
                continue
            poisoned += 1
            self._complete(request, status)
        if poisoned:
            self.counters.add("poisoned_requests", poisoned)
            tracer = self.env.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "poisoned:%s" % batch[0].op,
                    "worker",
                    self.ctx.track,
                    ("error", "requests"),
                    (exc.code, poisoned),
                )

    def _execute(self, batch: List[Request]) -> Generator:
        merge_class = batch[0].merge_class
        if batch[0].op == OP_TXN_RELEASE:
            self._release_txn_snapshot(batch[0])
            return
        if merge_class == WRITE_CLASS:
            yield from self._execute_writes(batch)
        elif merge_class == READ_CLASS:
            yield from self._execute_reads(batch)
        else:
            yield from self._execute_scan(batch[0])

    # -- read-committed isolation (Section 4.5 future work) ---------------

    def _read_snapshot(self):
        """The snapshot uncommitted-transaction-shadowed reads must use."""
        if not self.txn_snapshots:
            return None
        return min(self.txn_snapshots.values())

    def _release_txn_snapshot(self, request: Request) -> None:
        seq = self.txn_snapshots.pop(request.gsn, None)
        if seq is not None:
            self.engine.release_snapshot(seq)
        self._complete(request, None)

    def _execute_writes(self, batch: List[Request]) -> Generator:
        if len(batch) == 1 or not self.engine.supports_batch_write:
            for request in batch:
                yield from self._execute_single_write(request)
            return
        merged = WriteBatch()
        for request in batch:
            if request.op == OP_WRITEBATCH:
                merged.extend(request.batch)
            elif request.op == "DELETE":
                merged.delete(request.key)
            else:
                merged.put(request.key, request.value)
        self.counters.add("obm_write_batches")
        self.counters.add("obm_write_merged", len(batch))
        yield from self.engine.write(self.ctx, merged)
        for request in batch:
            self._complete(request, None)

    def _execute_single_write(self, request: Request) -> Generator:
        if request.op == OP_WRITEBATCH:
            if request.snapshot_isolated:
                # Shield concurrent readers from this transaction's updates
                # until the framework confirms the global commit (write_batch
                # admits read_committed on snapshot-capable engines only).
                self.txn_snapshots[request.gsn] = self.engine.snapshot()
            yield from self.engine.write(
                self.ctx, request.batch, request.gsn, request.rtype
            )
        elif request.op == "DELETE":
            yield from self.engine.delete(self.ctx, request.key)
        else:
            yield from self.engine.put(self.ctx, request.key, request.value)
        self._complete(request, None)

    def _execute_reads(self, batch: List[Request]) -> Generator:
        engine = self.engine
        snapshot = self._read_snapshot()
        if len(batch) == 1:
            status = yield from engine.get_status(self.ctx, batch[0].key, snapshot)
            self._complete(batch[0], status)
            return
        self.counters.add("obm_read_batches")
        self.counters.add("obm_read_merged", len(batch))
        keys = [request.key for request in batch]
        if engine.supports_multiget:
            statuses = yield from engine.multiget_status(self.ctx, keys, snapshot)
        else:
            # No native multiget: submit each get as its own process so the
            # batch's device reads still overlap (Figures 22-23's read gains).
            sim = self.env.sim
            statuses = yield sim.all_of(
                [sim.spawn(engine.get_status(self.ctx, key, snapshot)) for key in keys]
            )
        for request, status in zip(batch, statuses):
            self._complete(request, status)

    def _execute_scan(self, request: Request) -> Generator:
        # Rows, not pairs: the framework's merge builds pairs for what it returns.
        if request.op == OP_SCAN:
            result = yield from self.engine.scan_rows(
                self.ctx, request.begin, request.count
            )
        else:  # RANGE
            result = yield from self.engine.range_rows(
                self.ctx, request.begin, request.end
            )
        self._complete(request, result)

    def _complete(self, request: Request, result) -> None:
        # Every future carries a KVStatus — uniformly, so gathers (all_of)
        # collect per-request outcomes instead of failing fast.
        if not isinstance(result, KVStatus):
            result = KVStatus.ok(result)
        request.completed = True
        if request.future is not None:
            request.future.succeed(result)
        if request.callback is not None:
            request.callback(result)
