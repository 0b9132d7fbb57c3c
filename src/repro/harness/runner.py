"""Experiment runner: systems under test + closed/open-loop load generation.

Systems (paper Section 5 configurations), all one ``System`` — one verb
dispatch over whichever store serves the calling thread:

* ``SingleInstanceSystem`` — one engine, user threads call it directly
  (vanilla RocksDB / LevelDB / PebblesDB).
* ``MultiInstanceSystem`` — N independent instances, thread i drives
  instance i (the "multi-instance" database practice of Section 3.2).
* ``P2KVSSystem`` — the framework, optionally with the asynchronous write
  interface (bounded in-flight window), as the micro-benchmarks enable.
* ``KVellSystem`` / ``WiredTigerSystem`` — the baselines.

``run_closed_loop`` spawns one simulated user thread per op stream and
measures per-op latency; ``run_open_loop`` injects ops at a Poisson rate
(Figure 13's intensity sweep).  Every driver that runs the simulation does
so through ``run_zoned``, the one host-profiler bracket around ``sim.run()``.
"""

import random
from typing import Generator, List, Optional, Sequence, Tuple

from repro.baselines.kvell import KVellLike
from repro.baselines.wiredtiger import WiredTigerLike
from repro.core.framework import P2KVS
from repro.engine.db import LSMEngine
from repro.engine.env import Env
from repro.errors import KVError
from repro.harness.metrics import Metrics, MetricsCollector
from repro.perf import zones as _perf_zones
from repro.sim.sync import Semaphore
from repro.workloads.microbench import split_stream

__all__ = [
    "KVellSystem",
    "MultiInstanceSystem",
    "P2KVSSystem",
    "SingleInstanceSystem",
    "System",
    "VERB_CLASS",
    "WiredTigerSystem",
    "run_closed_loop",
    "run_open_loop",
    "run_zoned",
]

Op = Tuple[str, bytes, object]

#: verb → latency class, for every driver's latency accounting (the closed
#: and open loops here, and the service plane's front door).
VERB_CLASS = {
    "insert": "write",
    "update": "write",
    "read": "read",
    "scan": "scan",
    "range": "scan",
    "rmw": "rmw",
}

MEMORY_SAMPLE_EVERY = 256


# ---------------------------------------------------------------------------
# Systems under test
# ---------------------------------------------------------------------------


class System:
    """What the load generators drive: one verb dispatch over whichever store
    serves the calling thread (the paper's black-box interface, Section 4.6).

    Subclasses supply that store (:meth:`store_for`), their ``open`` and, where
    it is not one store's, their accounting.  The two facts
    :func:`run_closed_loop` needs about a system are attributes it reads once,
    before its per-op loop.
    """

    #: True when the store emits its own request spans (p2KVS does, with
    #: routing args, from its accessing layer); for every other system the
    #: harness emits one per op so the critical-path extractor has endpoints.
    emits_request_spans = False
    #: bound on in-flight asynchronous writes; 0 = every put is synchronous.
    async_window = 0

    def __init__(self, store, name: str):
        #: what a caller that names no thread talks to.
        self.store = store
        self.name = name

    def store_for(self, thread_index: int):
        """The store user thread ``thread_index`` talks to."""
        return self.store

    def execute(self, ctx, op: Op, store=None, collector=None):
        """For ``yield from``: run one op.  A caller looping over a stream
        resolves :meth:`store_for` once and passes ``store``; ``collector``
        receives only the completion latency of windowed asynchronous
        writes."""
        if store is None:
            store = self.store
        verb, key, payload = op
        if verb in ("insert", "update"):
            if self.async_window:
                return self._async_put(ctx, key, payload, collector)
            return store.put(ctx, key, payload)
        if verb == "read":
            return store.get(ctx, key)
        if verb == "scan":
            return store.scan(ctx, key, payload)
        if verb == "range":
            return store.range_query(ctx, key, payload)
        if verb == "rmw":
            return _read_modify_write(ctx, store, key, payload)
        raise ValueError("unknown verb %r" % verb)

    def user_bytes_written(self) -> float:
        return self.store.counters.get("user_bytes_written")

    def memory_bytes(self) -> int:
        return self.store.memory_bytes()

    def close(self) -> Generator:
        yield from self.store.close()


def _read_modify_write(ctx, store, key, value) -> Generator:
    yield from store.get(ctx, key)
    yield from store.put(ctx, key, value)


class SingleInstanceSystem(System):
    """One shared engine instance driven directly by user threads."""

    def __init__(self, engine: LSMEngine, name: str = "single"):
        super().__init__(engine, name)
        self.engine = engine

    @classmethod
    def open(cls, env: Env, options=None, name: str = "single") -> Generator:
        engine = yield from LSMEngine.open(env, "%s/db" % name, options)
        return cls(engine, name)


class MultiInstanceSystem(System):
    """N independent instances; thread i owns instance i (Section 3.2)."""

    def __init__(self, engines: List[LSMEngine]):
        super().__init__(engines[0], "multi")
        self.engines = engines

    @classmethod
    def open(cls, env: Env, n_instances: int, options_maker=None) -> Generator:
        engines = []
        for i in range(n_instances):
            options = options_maker() if options_maker else None
            engine = yield from LSMEngine.open(env, "multi/db-%d" % i, options)
            engines.append(engine)
        return cls(engines)

    def engine_for(self, thread_index: int) -> LSMEngine:
        return self.engines[thread_index % len(self.engines)]

    store_for = engine_for

    def user_bytes_written(self) -> float:
        return sum(e.counters.get("user_bytes_written") for e in self.engines)

    def memory_bytes(self) -> int:
        return sum(e.memory_bytes() for e in self.engines)

    def close(self) -> Generator:
        for engine in self.engines:
            yield from engine.close()


class P2KVSSystem(System):
    """The framework under test; optional async write window."""

    emits_request_spans = True

    def __init__(self, kvs: P2KVS, env: Env, async_window: int = 0):
        super().__init__(kvs, "%s-%d" % (kvs.name, len(kvs.workers)))
        self.kvs = kvs
        self.env = env
        self.async_window = async_window
        self._window = (
            Semaphore(env.sim, async_window, "async-window")
            if async_window
            else None
        )

    @classmethod
    def open(cls, env: Env, async_window: int = 0, **p2kvs_opts) -> Generator:
        """``p2kvs_opts`` are :meth:`P2KVS.open`'s keywords (``n_workers``,
        ``adapter_open``, ``obm``, ``obm_cap``, ``scan_strategy``, ``name``,
        ``pin_base``) with its defaults.  ``adapter_open`` opens each worker's
        instance, which the worker then drives directly: an
        :func:`~repro.core.adapters.adapter_factory` LSM preset (the
        default, RocksDB) or
        :func:`~repro.baselines.wiredtiger.wiredtiger_adapter_factory`."""
        kvs = yield from P2KVS.open(env, **p2kvs_opts)
        return cls(kvs, env, async_window)

    def _async_put(self, ctx, key, value, collector) -> Generator:
        # The window slot is intentionally released by the completion
        # callback below, not lexically — that is what makes the put async.
        yield self._window.acquire()  # lint: disable=lock-pairing  (released in on_done)
        submitted = self.env.sim.now
        window = self._window

        def on_done(_result, submitted=submitted):
            window.release()
            if collector is not None:
                collector.record_latency("write", self.env.sim.now - submitted)

        yield from self.kvs.put_async(ctx, key, value, callback=on_done)

    def drain(self) -> Generator:
        """Wait until every async write has completed."""
        if self._window is None:
            return
        for _ in range(self.async_window):
            yield self._window.acquire()
        for _ in range(self.async_window):
            self._window.release()

    def user_bytes_written(self) -> float:
        return sum(e.counters.get("user_bytes_written") for e in self.kvs.engines)


class KVellSystem(System):
    def __init__(self, store: KVellLike):
        super().__init__(store, "kvell-%d" % store.n_workers)

    @classmethod
    def open(cls, env: Env, n_workers: int = 8) -> Generator:
        # KVell opens synchronously; delegating to an empty iterable keeps
        # open() a generator like every other system's.
        yield from ()
        return cls(KVellLike(env, n_workers=n_workers))


class WiredTigerSystem(System):
    """Vanilla WiredTiger: one B+-tree instance, direct user threads."""

    def __init__(self, store: WiredTigerLike):
        super().__init__(store, "wiredtiger")

    @classmethod
    def open(cls, env: Env) -> Generator:
        store = yield from WiredTigerLike.open(env, "wt")
        return cls(store)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def run_zoned(env: Env, zone: str) -> None:
    """Run the simulation until it drains, inside host-profiler zone ``zone``.

    The one place an outer zone brackets ``sim.run()``.  The zone is closed
    by unwinding to the ``enter()`` token in a ``finally``: when the run
    raises (a non-``KVError`` in a user thread, ``CrashTriggered``) the zone
    must not stay open, or every later run under the same profiler would be
    nested beneath it.
    """
    _p = _perf_zones.PROFILER
    if _p is None:
        env.sim.run()
        return
    token = _p.enter(zone)
    try:
        env.sim.run()
    finally:
        _p.unwind(token)


def open_system(env: Env, factory: Generator):
    """Run a system's open() generator to completion."""
    box = []

    def opener():
        system = yield from factory
        box.append(system)

    env.sim.spawn(opener())
    run_zoned(env, "harness.open")
    return box[0]


def run_closed_loop(
    env: Env,
    system,
    streams: Sequence[Sequence[Op]],
    pin_users: bool = False,
    measure: bool = True,
    collector: Optional[MetricsCollector] = None,
) -> Metrics:
    """One simulated user thread per stream; returns window metrics.

    A measured window brackets the periodic observers on ``env.metrics``
    (health monitor, sim-time sampler): started as it opens, finished in the
    instant the collector finishes.  Preload (``measure=False``) is unobserved.
    """
    if collector is None:
        collector = MetricsCollector(env, system.name)
    user_bytes0 = system.user_bytes_written()
    collector.start()
    observers = env.metrics.observers() if measure else ()
    for observer in observers:
        observer.start()
    n_ops = sum(len(s) for s in streams)
    procs = []
    execute = system.execute
    harness_spans = not system.emits_request_spans
    async_window = system.async_window
    async_sink = collector if measure else None

    def user_thread(ctx, stream, store):
        count = 0
        sim = env.sim
        tracer = sim.tracer
        record_latency = collector.record_latency
        for op in stream:
            started = sim._now
            try:
                yield from execute(ctx, op, store, async_sink)
            except KVError as exc:
                # Degradation, not termination: a typed error fails the op
                # and the user thread moves on (only fault-injection runs
                # ever take this path).
                if measure:
                    collector.record_error(exc.code)
            if tracer is not None and harness_spans:
                tracer.complete(
                    "request:%s" % op[0], "request", ctx.track, started, sim._now,
                    ("op",), (op[0],),
                )
            # A windowed async write records its own latency on completion.
            if measure and not (async_window and op[0] in ("insert", "update")):
                record_latency(VERB_CLASS[op[0]], sim._now - started)
            count += 1
            if count % MEMORY_SAMPLE_EVERY == 0:
                collector.note_memory(system.memory_bytes())

    for i, stream in enumerate(streams):
        core = (i % env.cpu.n_cores) if pin_users else None
        ctx = env.cpu.new_thread("user-%d" % i, pinned=core)
        procs.append(env.sim.spawn(user_thread(ctx, stream, system.store_for(i))))

    box = []

    def finisher():
        yield env.sim.all_of(procs)
        if async_window:
            yield from system.drain()
        for observer in observers:
            observer.finish()
        box.append(
            collector.finish(
                n_ops,
                system.user_bytes_written() - user_bytes0,
                system.memory_bytes(),
            )
        )

    env.sim.spawn(finisher())
    run_zoned(env, "harness.run" if measure else "harness.preload")
    return box[0]


def run_open_loop(
    env: Env,
    system,
    ops: Sequence[Op],
    rate: float,
    collector: Optional[MetricsCollector] = None,
) -> Metrics:
    """Poisson arrivals at ``rate`` ops/second (Figure 13's load sweep).

    The window brackets the periodic observers on ``env.metrics`` as
    :func:`run_closed_loop`'s measured window does.
    """
    if collector is None:
        collector = MetricsCollector(env, system.name)
    user_bytes0 = system.user_bytes_written()
    collector.start()
    observers = env.metrics.observers()
    for observer in observers:
        observer.start()
    rng = random.Random(42)
    box = []

    def one_op(ctx, op):
        started = env.sim.now
        try:
            yield from system.execute(ctx, op)
        except KVError as exc:
            collector.record_error(exc.code)
        collector.record_latency(VERB_CLASS[op[0]], env.sim.now - started)

    def arrivals():
        procs = []
        for i, op in enumerate(ops):
            yield env.sim.timeout(rng.expovariate(rate))
            ctx = env.cpu.new_thread("ol-%d" % i)
            procs.append(env.sim.spawn(one_op(ctx, op)))
        yield env.sim.all_of(procs)
        for observer in observers:
            observer.finish()
        box.append(
            collector.finish(
                len(ops),
                system.user_bytes_written() - user_bytes0,
                system.memory_bytes(),
            )
        )

    env.sim.spawn(arrivals())
    run_zoned(env, "harness.run")
    return box[0]


def preload(env: Env, system, ops: Sequence[Op], n_threads: int = 8) -> None:
    """Load a dataset before the measured window (not timed)."""
    run_closed_loop(env, system, split_stream(ops, n_threads), measure=False)
