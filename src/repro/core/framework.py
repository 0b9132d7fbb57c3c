"""The p2KVS framework: accessing layer + workers + KVS instances.

This is the paper's contribution (Figure 9a).  Horizontally, the key space is
hash-partitioned over N worker-owned KVS instances, each pinned to its own
core with private WAL/MemTable/LSM-tree.  Vertically, an accessing layer
separates user threads from workers: user threads enqueue requests and
suspend; workers batch opportunistically (OBM) and execute.

Public operations are generator processes, like the engine's::

    kvs = yield from P2KVS.open(env, n_workers=8)
    yield from kvs.put(ctx, b"k", b"v")
    value = yield from kvs.get(ctx, b"k")

The standard KV interface (PUT/GET/DELETE/SCAN/RANGE) is transparent to the
application — no column-family-style semantics needed.  An asynchronous
write interface (``put_async``) mirrors the paper's ``Put(K, V, callback)``.
"""

from typing import Callable, Generator, List, Optional

from repro.core.adapters import adapter_factory
from repro.core.range_query import merge_sorted_results, serial_global_scan
from repro.core.requests import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RANGE,
    OP_SCAN,
    OP_TXN_RELEASE,
    OP_WRITEBATCH,
    Request,
)
from repro.core.router import HashRouter
from repro.core.txn import GsnManager, TransactionLog
from repro.core.worker import Worker
from repro.engine.batch import WriteBatch
from repro.engine.env import Env
from repro.errors import KVStatus
from repro.sim.core import Event
from repro.storage.wal import RECORD_STANDALONE, RECORD_TXN

__all__ = ["P2KVS"]

#: user-thread CPU to build a request and enqueue it.
SUBMIT_COST = 0.3e-6


class P2KVS:
    """Portable 2-dimensional parallelizing KVS framework."""

    def __init__(
        self,
        env: Env,
        workers: List[Worker],
        router,
        txn_log: TransactionLog,
        gsn: GsnManager,
        engine_open: Callable,
        scan_strategy: str = "parallel",
        name: str = "p2kvs",
    ):
        self.env = env
        self.workers = workers
        #: how :meth:`add_worker` opens a new instance like the others.
        self.engine_open = engine_open
        self._use_router(router)
        self.txn_log = txn_log
        self.gsn = gsn
        self.scan_strategy = scan_strategy
        self.name = name
        # Aggregate OBM backlog across every worker queue (Figure 9a's
        # accessing layer), snapshotted by the sim-time sampler.
        env.metrics.gauge(
            "%s.obm.queue_depth" % name,
            lambda: sum(len(w.queue) for w in self.workers),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        env: Env,
        n_workers: int = 8,
        adapter_open: Optional[Callable] = None,
        obm: bool = True,
        obm_cap: int = 32,
        pin_workers: bool = True,
        pin_base: int = 0,
        scan_strategy: str = "parallel",
        router=None,
        name: str = "p2kvs",
    ) -> Generator:
        """Create or recover a p2KVS deployment.

        Recovery follows Section 4.5: read the durable transaction log,
        compute the committed-GSN set, and open every instance with a WAL
        record filter that discards uncommitted transaction records.
        ``adapter_open`` is an instance opener (:mod:`repro.core.adapters`;
        default: the RocksDB preset).
        """
        if scan_strategy not in ("parallel", "serial"):
            raise ValueError("unknown scan strategy %r" % scan_strategy)
        if adapter_open is None:
            adapter_open = adapter_factory("rocksdb")
        txn_log = TransactionLog(env, "%s/TXNLOG" % name)
        committed, max_gsn = txn_log.recover()

        def record_filter(rtype: int, gsn: int) -> bool:
            return rtype != RECORD_TXN or gsn in committed

        workers = []
        for i in range(n_workers):
            engine = yield from adapter_open(
                env, "%s/db-%d" % (name, i), record_filter
            )
            # ``pin_base`` offsets the pin targets so several deployments
            # on one machine (the service plane's shards) get disjoint
            # cores instead of all stacking their workers on core 0.
            core = ((pin_base + i) % env.cpu.n_cores) if pin_workers else None
            worker = Worker(
                i,
                env,
                engine,
                core=core,
                obm_enabled=obm,
                obm_cap=obm_cap,
                prefix=name,
            )
            workers.append(worker)
        for worker in workers:
            worker.start()
        router = router or HashRouter(n_workers)
        return cls(
            env,
            workers,
            router,
            txn_log,
            GsnManager(max_gsn + 1),
            adapter_open,
            scan_strategy,
            name,
        )

    def close(self) -> Generator:
        for worker in self.workers:
            worker.shutdown()
        for worker in self.workers:
            yield from worker.engine.close()

    # ------------------------------------------------------------------
    # Submission plumbing
    # ------------------------------------------------------------------

    def _use_router(self, router) -> None:
        self.router = router
        #: a traced request row's argument names, indexed [keyed].
        self._row_keys = (("worker", "op"), ("worker", "op", "key") + router.EXPLAIN_KEYS)

    def _request_row(self, request: Request, worker_id: Optional[int]) -> tuple:
        """A traced request's worker, its row's keys and values.  A keyed
        request is routed by the router's ``explain``, which hashes the key
        once for both the decision and the row."""
        key = request.key
        if key is None:
            return worker_id, self._row_keys[0], (worker_id, request.op)
        worker_id, *fields = self.router.explain(key)
        return worker_id, self._row_keys[1], (worker_id, request.op, repr(key), *fields)

    def _unkeyed_row(self, ctx, op: str, started: float) -> None:
        """When traced, record a user request that no one worker serves (a
        SCAN or RANGE over every instance, a cross-instance write batch) as
        one unkeyed request row ending now, its worker ``None``."""
        sim = self.env.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.complete(
                "request:%s" % op, "request", ctx.track, started, sim._now,
                self._row_keys[0], (None, op),
            )

    def _submit_and_wait(
        self, ctx, request: Request, worker_id: Optional[int] = None
    ) -> Generator:
        """Submit ``request`` to worker ``worker_id`` (None: route it by its
        key) and wait for its result."""
        env = self.env
        sim = env.sim
        tracer = sim.tracer
        if tracer is not None:
            started = sim._now
            worker_id, row_keys, vals = self._request_row(request, worker_id)
        elif worker_id is None:
            worker_id = self.router.route(request.key)
        yield env.cpu.exec(ctx, SUBMIT_COST, "submit")
        request.future = Event(sim)
        self.workers[worker_id].submit(request)
        waited_since = sim._now
        result = yield request.future
        ctx.account_wait("request_wait", sim._now - waited_since)
        if tracer is not None:
            tracer.complete(
                "request:%s" % request.op, "request", ctx.track, started, sim._now,
                row_keys, vals,
            )
        return result

    def _submit_async(
        self, ctx, request: Request, worker_id: Optional[int] = None
    ) -> Generator:
        """Submit ``request`` (``worker_id`` as in :meth:`_submit_and_wait`)
        without waiting; its callback runs on completion."""
        sim = self.env.sim
        tracer = sim.tracer
        if tracer is not None:
            started = sim._now
            # Async requests overlap on the submitting thread's track, so the
            # span is an async pair, written from the completion callback.
            aid = next(tracer.aids)
            worker_id, row_keys, vals = self._request_row(request, worker_id)
            track = ctx.track
            user_callback = request.callback

            def _finish_trace(result):
                tracer.complete(
                    "request:%s" % request.op, "request", track, started, sim._now,
                    row_keys, vals, aid,
                )
                if user_callback is not None:
                    user_callback(result)

            request.callback = _finish_trace
        elif worker_id is None:
            worker_id = self.router.route(request.key)
        yield self.env.cpu.exec(ctx, SUBMIT_COST, "submit")
        self.workers[worker_id].submit(request)

    def _fork_to_all(self, ctx, make_request) -> Generator:
        """Enqueue one sub-request per worker; gather results in worker order.

        Futures carry statuses; a failed fragment raises its typed error
        after the gather (never mid-gather — all_of fails fast on event
        failure, which is exactly why futures never ``fail``)."""
        yield self.env.cpu.exec(ctx, SUBMIT_COST * len(self.workers), "submit")
        futures = []
        for worker in self.workers:
            request = make_request()
            request.future = self.env.sim.event()
            worker.submit(request)
            futures.append(request.future)
        waited_since = self.env.sim.now
        statuses = yield self.env.sim.all_of(futures)
        ctx.account_wait("request_wait", self.env.sim.now - waited_since)
        results = []
        for status in statuses:
            if isinstance(status, KVStatus):
                status.raise_for_error()
                results.append(status.value)
            else:
                results.append(status)
        return results

    # ------------------------------------------------------------------
    # Standard KV interface
    # ------------------------------------------------------------------

    def put(self, ctx, key: bytes, value: bytes) -> Generator:
        gsn = self.gsn.allocate()
        request = Request(OP_PUT, key=key, value=value, gsn=gsn)
        status = yield from self._submit_and_wait(ctx, request)
        status.raise_for_error()

    #: UPDATE is a PUT to an existing key (paper Table 1's UPDATE/RMW mix).
    update = put

    def delete(self, ctx, key: bytes) -> Generator:
        gsn = self.gsn.allocate()
        request = Request(OP_DELETE, key=key, gsn=gsn)
        status = yield from self._submit_and_wait(ctx, request)
        status.raise_for_error()

    def get_status(self, ctx, key: bytes) -> Generator:
        """Point lookup with the full status: ok / not_found / error."""
        request = Request(OP_GET, key=key)
        return (yield from self._submit_and_wait(ctx, request))

    def get(self, ctx, key: bytes) -> Generator:
        """Point-lookup sugar: value bytes or None; raises on typed errors."""
        status = yield from self.get_status(ctx, key)
        return status.value_or(None)

    def put_async(
        self, ctx, key: bytes, value: bytes, callback: Optional[Callable] = None
    ) -> Generator:
        """Asynchronous write: returns after enqueue; callback on completion."""
        gsn = self.gsn.allocate()
        request = Request(OP_PUT, key=key, value=value, gsn=gsn, callback=callback)
        yield from self._submit_async(ctx, request)

    # ------------------------------------------------------------------
    # Range queries (Section 4.4)
    # ------------------------------------------------------------------

    def range_query(self, ctx, begin: bytes, end: bytes) -> Generator:
        """RANGE: fork sub-RANGEs to every worker, merge sorted results."""
        started = self.env.sim._now
        results = yield from self._fork_to_all(
            ctx, lambda: Request(OP_RANGE, begin=begin, end=end)
        )
        self._unkeyed_row(ctx, OP_RANGE, started)
        return merge_sorted_results(results)

    def scan(self, ctx, begin: bytes, count: int) -> Generator:
        """SCAN: parallel over-read + filter, or serial global iterator."""
        started = self.env.sim._now
        if self.scan_strategy == "serial":
            pairs = yield from serial_global_scan(ctx, self.engines, begin, count)
        else:
            results = yield from self._fork_to_all(
                ctx, lambda: Request(OP_SCAN, begin=begin, count=count)
            )
            pairs = merge_sorted_results(results, limit=count)
        self._unkeyed_row(ctx, OP_SCAN, started)
        return pairs

    # ------------------------------------------------------------------
    # Transactions (Section 4.5)
    # ------------------------------------------------------------------

    def write_batch(
        self, ctx, batch: WriteBatch, isolation: str = "atomic"
    ) -> Generator:
        """Atomically apply a WriteBatch that may span instances.

        Single-instance batches commit through the instance WAL alone;
        multi-instance batches get the GSN begin/commit protocol.

        ``isolation="read_committed"`` additionally hides the transaction's
        updates from concurrent readers until the global commit: each worker
        snapshots its instance before applying its fragment and serves reads
        from that snapshot; the commit releases the snapshots (the paper's
        Section 4.5 extension).  Requires snapshot-capable engines.
        """
        if isolation not in ("atomic", "read_committed"):
            raise ValueError("unknown isolation level %r" % isolation)
        snapshot_isolated = isolation == "read_committed"
        if snapshot_isolated and not all(e.supports_snapshots for e in self.engines):
            raise ValueError(
                "read_committed requires snapshot-capable engines"
            )
        by_worker = {}
        for vtype, key, value in batch:
            worker_id = self.router.route(key)
            sub = by_worker.setdefault(worker_id, WriteBatch())
            sub._records.append((vtype, key, value))
        gsn = self.gsn.allocate()
        if len(by_worker) <= 1 and not snapshot_isolated:
            for worker_id, sub in by_worker.items():
                request = Request(
                    OP_WRITEBATCH, batch=sub, gsn=gsn, rtype=RECORD_STANDALONE
                )
                status = yield from self._submit_and_wait(ctx, request, worker_id)
                status.raise_for_error()
            return
        started = self.env.sim._now
        yield from self.txn_log.log_begin(gsn)
        yield self.env.cpu.exec(ctx, SUBMIT_COST * len(by_worker), "submit")
        futures = []
        for worker_id, sub in by_worker.items():
            request = Request(
                OP_WRITEBATCH,
                batch=sub,
                gsn=gsn,
                rtype=RECORD_TXN,
                no_merge=True,
                snapshot_isolated=snapshot_isolated,
            )
            request.future = self.env.sim.event()
            self.workers[worker_id].submit(request)
            futures.append(request.future)
        statuses = yield self.env.sim.all_of(futures)
        failed = [
            status.error
            for status in statuses
            if isinstance(status, KVStatus) and status.is_error
        ]
        if not failed:
            # Statuses are checked BEFORE the COMMIT record: a failed
            # fragment must leave the transaction uncommitted, so recovery
            # discards every one of its TXN records (all-or-nothing).
            faults = self.env.faults
            if faults is not None:
                faults.crash_site("txn-commit")
            yield from self.txn_log.log_commit(gsn)
        if snapshot_isolated:
            # Release every pre-txn snapshot — on the failure path too, or
            # the workers' reads would be pinned at the old snapshot forever.
            release_futures = []
            for worker_id in by_worker:
                release = Request(OP_TXN_RELEASE, gsn=gsn, no_merge=True)
                release.future = self.env.sim.event()
                self.workers[worker_id].submit(release)
                release_futures.append(release.future)
            yield self.env.sim.all_of(release_futures)
        self._unkeyed_row(ctx, OP_WRITEBATCH, started)
        if failed:
            raise failed[0]

    # ------------------------------------------------------------------
    # Runtime scaling (Section 4.2 future work)
    # ------------------------------------------------------------------

    def add_worker(self, ctx) -> Generator:
        """Grow the deployment by one worker and rebalance the key space.

        The paper notes that extending N "may lead to a reconstruction of
        the entire set of KVS instances"; this implements that stop-the-world
        resharding: drain in-flight work, open instance N, switch the router
        to ``hash % (N+1)``, and migrate every key whose placement changed
        (re-put at the new owner, delete at the old).  Only supported with
        the default :class:`HashRouter`.  Instance N is opened, named and
        pinned like the deployment's others, with worker 0's OBM settings.
        """
        if not isinstance(self.router, HashRouter):
            raise ValueError("add_worker requires the hash router")
        # Drain: a barrier request through every queue guarantees all prior
        # requests have been executed before migration starts.
        yield from self._fork_to_all(
            ctx, lambda: Request(OP_RANGE, begin=b"\xff\xff", end=b"\xff\xfe")
        )
        old_n = len(self.workers)
        engine = yield from self.engine_open(
            self.env, "%s/db-%d" % (self.name, old_n), None
        )
        template = self.workers[0]
        pinned = template.ctx.pinned
        worker = Worker(
            old_n,
            self.env,
            engine,
            core=None if pinned is None else (pinned + old_n) % self.env.cpu.n_cores,
            obm_enabled=template.obm_enabled,
            obm_cap=template.obm_cap,
            prefix=self.name,
        )
        worker.start()
        self.workers.append(worker)
        new_router = HashRouter(old_n + 1)
        moved = 0
        for old_id, old_worker in enumerate(self.workers[:old_n]):
            pairs = yield from old_worker.engine.range_query(ctx, b"", b"\xff" * 64)
            to_move = [
                (key, value)
                for key, value in pairs
                if new_router.route(key) != old_id
            ]
            for key, value in to_move:
                new_id = new_router.route(key)
                request = Request(OP_PUT, key=key, value=value)
                request.future = self.env.sim.event()
                self.workers[new_id].submit(request)
                yield request.future
                request = Request(OP_DELETE, key=key)
                request.future = self.env.sim.event()
                old_worker.submit(request)
                yield request.future
                moved += 1
        self._use_router(new_router)
        return moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def engines(self):
        return [w.engine for w in self.workers]

    def memory_bytes(self) -> int:
        return sum(e.memory_bytes() for e in self.engines)

    def queue_depths(self) -> List[int]:
        return [len(w.queue) for w in self.workers]

    def obm_stats(self) -> dict:
        total_batches = sum(w.counters.get("batches") for w in self.workers)
        total_requests = sum(w.counters.get("requests") for w in self.workers)
        return {
            "batches": total_batches,
            "requests": total_requests,
            "avg_batch": total_requests / total_batches if total_batches else 0.0,
        }
