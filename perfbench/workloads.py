"""The seven workloads: generated from a seed, run once in a fresh env, checked.

Everything here goes through public ``repro`` API.  One *pass* builds a fresh
simulated machine, opens the system, generates the op stream, preloads, runs
the measured phase, reads the registries and reads a seeded sample of keys
back against a shadow dict built from the generated ops.  A pass returns a
:class:`Pass`: deterministic simulated facts (``sim``), noisy host facts
(``host``), the failure count, and its set-up and measured time in reference
seconds (:mod:`perfbench.hostclock`); raw durations of each call into a layer
are left in the caller's :class:`~perfbench.spans.SpanLog`.

All workloads use 128-byte KVs (16-byte keys + 112-byte values), the default
``make_env`` machine (44 cores, Optane 905p "nvme" preset) and the scaled LSM
shape every registry-built system opens with (``benchmarks/common.SHAPE``).
"""

import bisect
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import adapter_factory
from repro.critpath import critpath_report, fig06_from_blame, install_edgelog
from repro.engine import make_env
from repro.harness import (
    MetricsCollector,
    MultiInstanceSystem,
    P2KVSSystem,
    SingleInstanceSystem,
    preload,
    run_closed_loop,
)
from repro.harness import open_system as run_open
from repro.metrics import install_stats
from repro.perf import ZoneProfiler, attach
from repro.service import (
    ServicePlane,
    build_scenario,
    build_slo_report,
    preload_plane,
    run_service_load,
)
from repro.systems import open_system
from repro.trace import install_tracer
from repro.workloads import YCSBWorkload, fillrandom, make_key, readrandom, split_stream

from perfbench.hostclock import Stopwatch
from perfbench.spans import SpanLog

VALUE = 112  # + 16-byte keys = the paper's 128-byte KV pairs
KV_BYTES = 128
PRELOAD_THREADS = 8
SAMPLE = 500  # keys read back per pass
SCAN_SAMPLE = 40  # scans re-run and compared per pass (scan workload)
SAMPLER_INTERVAL_MS = 0.1
BLAME_REQUESTS = 2000  # request paths walked for the Fig-6 blame shares
#: the LSM shape of ``repro.systems`` (= benchmarks/common.SHAPE without its
#: block-cache override), repeated here only for the cold-cache ``read`` case,
#: which must set a block-cache size the registry does not expose.
SHAPE = dict(
    write_buffer_size=64 * 1024,
    target_file_size=64 * 1024,
    max_bytes_for_level_base=256 * 1024,
)
DEFAULT_BLOCK_CACHE = 8 * 1024 * 1024  # EngineOptions.block_cache_bytes

SERVE_RATE = 500000.0  # offered ops/s, simulated: about half of saturation
SERVE_SWEEP = (250000.0, 500000.0, 750000.0, 1000000.0)
SERVE_P99_LIMIT_US = 250.0
SERVE_SHED_LIMIT = 0.01

#: host zones reported per measured op, as ``host.<zone>.self_us_per_op``.
RUN_ZONES = (
    "kernel.dispatch",
    "storage.wal.encode",
    "storage.memtable.insert",
    "storage.memtable.search",
    "storage.bloom.probe",
    "storage.sst.build",
    "engine.compaction.merge",
    "engine.batch.encode",
    "harness.run",
    "service.run",
    "obs.trace",
    "obs.metrics",
)

#: the paper's headline ratios the ``engines`` sweep is compared against.
PAPER_RATIOS = {
    "paper.p2kvs8_vs_rocksdb_fill": ("sim.qps.p2kvs-8", "sim.qps.rocksdb", 4.6),
    "paper.multi_vs_rocksdb_fill": ("sim.qps.multi-8", "sim.qps.rocksdb", 1.8),
    "paper.p2kvs8_vs_kvell8_fill": ("sim.qps.p2kvs-8", "sim.qps.kvell-8", 1.2),
    "paper.p2kvs8_vs_rocksdb_read64": (
        "sim.qps.p2kvs-8.read64",
        "sim.qps.rocksdb.read64",
        5.4,
    ),
}


@dataclass(frozen=True)
class Case:
    """One system under one op stream: the unit a pass opens and runs."""

    label: str
    kind: str  # "fill" | "read" | YCSB letter
    n: int  # measured ops at --scale 1
    system: str = "p2kvs"
    opts: Tuple[Tuple[str, object], ...] = (("workers", 8),)
    threads: int = 16
    records_per_op: float = 1.0  # preloaded records per measured op
    cold: bool = False  # caches far smaller than the dataset
    primary: bool = True  # its latencies and blame stand for the workload


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: Tuple[Case, ...] = ()  # empty: the open-loop service workload
    n: int = 0  # serve: offered requests at --scale 1
    observed: bool = False  # observers installed in the untraced passes too


def _engines_cases() -> Tuple[Case, ...]:
    fills = [
        ("rocksdb", "rocksdb", ()),
        ("leveldb", "leveldb", ()),
        ("pebblesdb", "pebblesdb", ()),
        ("multi-8", "multi", (("workers", 8),)),
        ("kvell-8", "kvell", (("workers", 8),)),
        ("wiredtiger", "wiredtiger", ()),
        ("p2kvs-8", "p2kvs", (("workers", 8), ("async_window", 512))),
    ]
    cases = [
        Case(label, "fill", 4000, system, opts, primary=label == "p2kvs-8")
        for label, system, opts in fills
    ]
    cases += [
        Case("rocksdb.read64", "read", 4000, "rocksdb", (), threads=64, primary=False),
        Case("p2kvs-8.read64", "read", 4000, threads=64, primary=False),
    ]
    return tuple(cases)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fill",
            "p2KVS-8 fillrandom, 16 closed-loop threads: the paper's headline "
            "write path (WAL, memtable, flush, compaction all busy)",
            (Case("p2kvs-8", "fill", 32000),),
        ),
        Workload(
            "read",
            "p2KVS-8 uniform readrandom, cold caches (15% of dataset): bloom, "
            "SST, block cache and device reads with compaction idle",
            (Case("p2kvs-8", "read", 12000, cold=True),),
        ),
        Workload(
            "ycsb-a",
            "p2KVS-8 YCSB-A, zipfian 50/50 read/update, warm caches: the same "
            "layers under skew, where a fill or read gain can cost the mix",
            (Case("p2kvs-8", "A", 12000),),
        ),
        Workload(
            "scan",
            "p2KVS-8 YCSB-E, 95% scans: the only user of the iterator and "
            "range-query path (divergence D4)",
            (Case("p2kvs-8", "E", 1200, records_per_op=20.0 / 3.0),),
        ),
        Workload(
            "serve",
            "4-shard ServicePlane, sync WAL, open-loop Poisson at 500k ops/s: "
            "the only path through router, directory and admission",
            n=16000,
        ),
        Workload(
            "engines",
            "fillrandom on all seven backends plus 64-thread reads on rocksdb "
            "and p2kvs-8: the baselines, and the source of paper_gap",
            _engines_cases(),
        ),
        Workload(
            "fill-observed",
            "fill at 1/4 size with tracer, critpath edgelog and 0.1 ms sampler "
            "installed: prices the observers",
            (Case("p2kvs-8", "fill", 8000),),
            observed=True,
        ),
    )
}


@dataclass
class Pass:
    """What one fresh-env pass of a workload produced."""

    ops: int = 0  # ops attempted in the measured phase(s)
    checks: int = 0  # read-backs attempted
    failed: int = 0  # typed errors + shed/refused + wrong read-backs
    setup_s: float = 0.0  # env + open + workload gen + preload, reference seconds
    run_s: float = 0.0  # the measured phase(s), reference seconds
    run_wall_s: float = 0.0  # the same, raw wall clock
    speeds: List[float] = field(default_factory=list)  # host speed factors
    sim: Dict[str, float] = field(default_factory=dict)  # must repeat exactly
    #: exact too, but only passes with observers installed can produce them.
    observed: Dict[str, float] = field(default_factory=dict)
    host: Dict[str, float] = field(default_factory=dict)  # noisy; medianed
    notes: Dict[str, object] = field(default_factory=dict)

    def add_times(self, setup: Stopwatch, run: Stopwatch) -> None:
        self.setup_s += setup.reference_s
        self.run_s += run.reference_s
        self.run_wall_s += run.wall_s
        self.speeds.append(run.reference_s / run.wall_s)


@dataclass
class PassContext:
    """What the passes of one measured run share."""

    seed: int
    scale: float
    spans: SpanLog
    observe: bool = False  # tracer + critpath edgelog + sampler installed
    profile: bool = False  # zone profiler attached (a traced pass)


def scaled(n: int, scale: float, floor: int = 64) -> int:
    return max(floor, int(n * scale))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# Registry reads (simulated, exact)
# ---------------------------------------------------------------------------


def _registry(env) -> dict:
    """Counter sums by suffix, per-worker request counts, IO and stall totals."""
    sums: Dict[str, float] = {}
    workers: Dict[str, float] = {}
    for name, value in env.metrics.counter_values().items():
        prefix, _, suffix = name.rpartition(".")
        sums[suffix] = sums.get(suffix, 0.0) + value
        if suffix == "requests" and ".worker-" in name:
            workers[prefix] = value
    io = env.metrics.providers["device.io_count"]()
    stall = env.metrics.events.summary().get("write_stall", {})
    sums["_io"] = io.get("read", 0.0) + io.get("write", 0.0)
    sums["_stalls"] = stall.get("count", 0)
    sums["_stall_s"] = stall.get("total_seconds", 0.0)
    return {"sums": sums, "workers": workers}


class Tally:
    """Sums the measured windows of a pass's cases; derives the sim facts."""

    def __init__(self):
        self.ops = 0
        self.elapsed = self.cpu_busy = self.user_bytes = 0.0
        self.read_bytes = self.write_bytes = self.bandwidth = 0.0
        self.sums: Dict[str, float] = {}
        self.workers: List[float] = []
        self.hit_rates: List[float] = []
        self.latency: Dict[str, Tuple[float, float]] = {}
        self.zones: Dict[str, List[float]] = {}  # name -> [count, self_ns]
        self.zone_wall_ns = self.zone_attributed_ns = 0
        self.setup_zone_ns: Dict[str, float] = {}
        self.max_queue_depth = 0.0

    def add_window(self, env, metrics, before: dict, primary: bool) -> None:
        self.ops += metrics.n_ops
        self.elapsed += metrics.elapsed
        self.cpu_busy += metrics.cpu_busy
        self.user_bytes += metrics.user_bytes_written
        self.read_bytes += metrics.device_read_bytes
        self.write_bytes += metrics.device_write_bytes
        self.bandwidth = metrics.write_bandwidth
        after = _registry(env)
        for suffix, value in after["sums"].items():
            delta = value - before["sums"].get(suffix, 0.0)
            self.sums[suffix] = self.sums.get(suffix, 0.0) + delta
        self.workers += [
            value - before["workers"].get(name, 0.0)
            for name, value in sorted(after["workers"].items())
        ]
        self.hit_rates += [
            value
            for name, value in env.metrics.gauge_values().items()
            if name.endswith(".block_cache_hit_rate")
        ]
        if primary:
            for cls, hist in metrics.latency.items():
                self.latency[cls] = (hist.p50 * 1e6, hist.p99 * 1e6)

    def add_zones(self, run: Optional[ZoneProfiler], run_watch: Stopwatch,
                  setup: Optional[ZoneProfiler], setup_watch: Stopwatch) -> None:
        """Fold one case's zone tables in, as reference nanoseconds."""
        if run is None:
            return
        run_speed = run_watch.reference_s / run_watch.wall_s
        setup_speed = setup_watch.reference_s / setup_watch.wall_s
        snapshot = run.snapshot()
        self.zone_wall_ns += snapshot["wall_ns"] * run_speed
        self.zone_attributed_ns += snapshot["attributed_ns"] * run_speed
        for name, rec in snapshot["zones"].items():
            total = self.zones.setdefault(name, [0, 0])
            total[0] += rec["count"]
            total[1] += rec["self_ns"] * run_speed
        for name, rec in setup.snapshot()["zones"].items():
            self.setup_zone_ns[name] = (
                self.setup_zone_ns.get(name, 0) + rec["self_ns"] * setup_speed
            )

    def note_queue_depths(self, sampler) -> None:
        for _when, row in sampler.samples:
            for name, value in row.items():
                if ".worker-" in name and name.endswith(".queue_depth"):
                    self.max_queue_depth = max(self.max_queue_depth, value)

    def sim_facts(self) -> Dict[str, float]:
        s = self.sums.get
        requests = sum(self.workers)
        facts = {
            "sim.qps": _ratio(self.ops, self.elapsed),
            "sim.elapsed_ms": self.elapsed * 1e3,
            "sim.cpu.busy_cores": _ratio(self.cpu_busy, self.elapsed),
            "sim.device.bw_util": _ratio(
                self.read_bytes + self.write_bytes, self.bandwidth * self.elapsed
            ),
            "sim.device.read_mb": self.read_bytes / 1e6,
            "sim.device.write_mb": self.write_bytes / 1e6,
            "sim.device.io_count": s("_io", 0.0),
            "storage.block_cache.hit_rate": _ratio(
                sum(self.hit_rates), len(self.hit_rates)
            ),
            "engine.write_amp": _ratio(self.write_bytes, self.user_bytes),
            "engine.wal_appends_per_write": _ratio(
                s("wal_appends", 0.0), s("write_requests", 0.0)
            ),
            "engine.flushes": s("flushes", 0.0),
            "engine.compactions": s("compactions", 0.0),
            "engine.compaction_mb": s("compaction_write_bytes", 0.0) / 1e6,
            "engine.stall_events": s("_stalls", 0.0),
            "engine.stall_ms": s("_stall_s", 0.0) * 1e3,
            "core.obm.mean_batch": _ratio(requests, s("batches", 0.0)),
            "core.obm.write_merged_share": _ratio(s("obm_write_merged", 0.0), requests),
            "core.worker.imbalance": _ratio(
                max(self.workers, default=0.0) * len(self.workers), requests
            ),
        }
        for cls in ("read", "write", "scan"):
            p50, p99 = self.latency.get(cls, (0.0, 0.0))
            facts["sim.p50_us.%s" % cls] = p50
            facts["sim.p99_us.%s" % cls] = p99
        return facts

    def zone_facts(self, result: "Pass") -> None:
        """Zone-profiler values of a traced pass (nothing when untraced)."""
        if not self.zones:
            return
        ops = max(1, self.ops)
        dispatches = self.zones.get("kernel.dispatch", [0, 0])[0]
        # Events per op is a count made by the program: exact, unlike the times.
        result.observed["host.kernel.dispatch.count_per_op"] = dispatches / ops
        facts = result.host
        for zone in RUN_ZONES:
            facts["host.%s.self_us_per_op" % zone] = (
                self.zones.get(zone, [0, 0])[1] / 1e3 / ops
            )
        facts["host.us_per_event"] = _ratio(self.zone_wall_ns / 1e3, dispatches)
        facts["host.zone_coverage"] = _ratio(self.zone_attributed_ns, self.zone_wall_ns)
        facts["host.unattributed_share"] = 1.0 - facts["host.zone_coverage"]
        facts["host.harness.preload.self_ms"] = (
            self.setup_zone_ns.get("harness.preload", 0)
            + self.setup_zone_ns.get("service.preload", 0)
        ) / 1e6
        facts["host.harness.workload.self_ms"] = (
            self.setup_zone_ns.get("harness.workload", 0) / 1e6
        )


# ---------------------------------------------------------------------------
# Shared pass plumbing
# ---------------------------------------------------------------------------


class LappingCollector(MetricsCollector):
    """The harness's collector, which also lets a stopwatch lap: the harness
    calls ``record_latency`` once per completed op, the only public hook
    inside ``run_closed_loop``.  Recording is synchronous host code, so a lap
    there cannot change anything simulated."""

    watch: Optional[Stopwatch] = None

    def record_latency(self, verb_class: str, seconds_taken: float) -> None:
        MetricsCollector.record_latency(self, verb_class, seconds_taken)
        if self.watch is not None:
            self.watch.lap_if_due()


class LappingOps(list):
    """The request list ``run_service_load`` replays, which lets a stopwatch
    lap as the load driver walks it: the one per-request host hook there."""

    watch: Optional[Stopwatch] = None

    def __iter__(self):
        watch = self.watch
        for op in list.__iter__(self):
            if watch is not None:
                watch.lap_if_due()
            yield op


class Observers:
    """Tracer + critpath edgelog + 0.1 ms sampler on one env."""

    def __init__(self, env):
        self.tracer = install_tracer(env)
        self.edgelog = install_edgelog(env)
        self.sampler = install_stats(env, interval_ms=SAMPLER_INTERVAL_MS)

    def blame(self, t0: float, t1: float, n: int) -> Tuple[Dict[str, float], str]:
        """Fig-6 blame shares and the top label, from the critical paths of
        the ~BLAME_REQUESTS requests in the middle of the measured window
        (walking every path would cost more host time than the run)."""
        half = (t1 - t0) * min(1.0, BLAME_REQUESTS / n) / 2.0
        mid = (t0 + t1) / 2.0
        window = (mid - half, mid + half)
        blame = critpath_report(self.edgelog, self.tracer, window)["blame"]
        if not blame["rows"]:
            return {}, ""  # no synchronous request spans (async writes)
        shares = fig06_from_blame(blame)["shares"]
        facts = {
            "blame.wal": shares["WAL"],
            "blame.memtable": shares["MemTable"],
            "blame.wal_lock": shares["WAL lock"],
            "blame.memtable_lock": shares["MemTable lock"],
            "blame.others": shares["Others"],
            "blame.top_share": blame["rows"][0]["share"],
        }
        return facts, blame["rows"][0]["label"]


def _profiled(profile: bool):
    return attach(ZoneProfiler()) if profile else nullcontext()


def _shadow(pre: List, ops: List, threads: int) -> Dict[bytes, Tuple[bytes, int]]:
    """key -> (value, writer thread) after ``pre`` then ``ops``.

    Every generator used here writes one value per key (``make_value`` of the
    key id), so the final state does not depend on how threads interleave.
    """
    shadow: Dict[bytes, Tuple[bytes, int]] = {}
    for stream, width in ((pre, PRELOAD_THREADS), (ops, threads)):
        for index, (verb, key, payload) in enumerate(stream):
            if verb in ("insert", "update", "rmw"):
                known = shadow.get(key)
                if known is not None and known[0] != payload:
                    raise RuntimeError("two values generated for key %r" % key)
                shadow[key] = (payload, index % width)
    return shadow


def _read_back(env, store_of, shadow, ops, seed: int) -> Tuple[int, int]:
    """Read a seeded sample back; returns (reads attempted, wrong results).

    Present keys must return their shadow value, never-written keys None, and
    (when the stream has scans) a sample of scans must return exactly the
    next ``count`` shadow keys from ``begin``, in order.
    """
    rng = random.Random(seed ^ 0xC0FFEE)
    keys = sorted(shadow)
    picked = rng.sample(keys, min(SAMPLE, len(keys)))
    expected = [(key, shadow[key][1], shadow[key][0]) for key in picked]
    expected += [(make_key(10**15 + i), 0, None) for i in range(SAMPLE // 20)]
    scans = [op for op in ops if op[0] == "scan"]
    scans = rng.sample(scans, min(SCAN_SAMPLE, len(scans)))
    ctx = env.cpu.new_thread("perfbench-verify")

    def reader():
        wrong = 0
        for key, tid, value in expected:
            got = yield from store_of(key, tid).get(ctx, key)
            wrong += got != value
        for _verb, begin, count in scans:
            rows = yield from store_of(begin, 0).scan(ctx, begin, count)
            start = bisect.bisect_left(keys, begin)
            want = [(key, shadow[key][0]) for key in keys[start:start + count]]
            wrong += [(k, v) for k, v in rows] != want
        return wrong

    # harness.open_system is the harness's "run one generator to completion".
    return len(expected) + len(scans), run_open(env, reader())


# ---------------------------------------------------------------------------
# Closed-loop cases
# ---------------------------------------------------------------------------


def _cache_bytes(records: int) -> Tuple[int, int]:
    """(block cache per instance, page cache) for a cold case: 10% + 5% of
    the dataset, which is 64 KiB x 8 + 256 KiB against 5 MB at 40 000 keys."""
    dataset = records * KV_BYTES
    block = max(4096, dataset // 80 // 4096 * 4096)
    page = max(16384, dataset // 20 // 4096 * 4096)
    return block, page


def _generate(case: Case, seed: int, n: int, records: int) -> Tuple[List, List]:
    """(preload ops, measured ops): a pure function of the seed."""
    if case.kind == "fill":
        return [], list(fillrandom(n, VALUE, seed))
    if case.kind == "read":
        return (
            list(fillrandom(records, VALUE, seed)),
            list(readrandom(n, records, seed + 1)),
        )
    workload = YCSBWorkload(case.kind, records, VALUE, seed)
    return list(workload.load_ops()), list(workload.ops(n))


def _store_of(system):
    if isinstance(system, MultiInstanceSystem):
        return lambda key, tid: system.engine_for(tid)
    if isinstance(system, P2KVSSystem):
        return lambda key, tid: system.kvs
    if isinstance(system, SingleInstanceSystem):
        return lambda key, tid: system.engine
    return lambda key, tid: system.store  # KVell, WiredTiger


def _run_case(case: Case, ctx: PassContext, tally: Tally, result: Pass,
              per_system: bool) -> None:
    spans = ctx.spans
    n = scaled(case.n, ctx.scale)
    records = scaled(int(case.n * case.records_per_op), ctx.scale)
    setup_watch = Stopwatch()
    with _profiled(ctx.profile) as setup_zones:
        with spans.span("env"):
            if case.cold:
                block_cache, page_cache = _cache_bytes(records)
                env = make_env(page_cache_bytes=page_cache)
            else:
                block_cache = DEFAULT_BLOCK_CACHE
                env = make_env()
            observers = Observers(env) if ctx.observe else None
        with spans.span("open"):
            if case.cold:
                adapter = adapter_factory(
                    "rocksdb", block_cache_bytes=block_cache, **SHAPE
                )
                system = run_open(
                    env, P2KVSSystem.open(env, n_workers=8, adapter_open=adapter)
                )
            else:
                system = open_system(case.system, env, **dict(case.opts))
        with spans.span("workload_gen"):
            if ctx.profile:
                setup_zones.enter("harness.workload")
            pre, ops = _generate(case, ctx.seed, n, records)
            streams = split_stream(ops, case.threads)
            if ctx.profile:
                setup_zones.leave()
        with spans.span("preload"):
            if pre:
                preload(env, system, pre, PRELOAD_THREADS)
    setup_watch.stop()
    before = _registry(env)
    t0 = env.sim.now
    run_watch = Stopwatch()
    collector = LappingCollector(env, system.name)
    # A lap's spin inside the dispatch loop would be booked to a zone.
    collector.watch = None if ctx.profile else run_watch
    with _profiled(ctx.profile) as run_zones, spans.span("run"):
        metrics = run_closed_loop(env, system, streams, collector=collector)
    run_watch.stop()
    with spans.span("report"):
        result.add_times(setup_watch, run_watch)
        tally.add_window(env, metrics, before, case.primary)
        tally.add_zones(run_zones, run_watch, setup_zones, setup_watch)
        result.failed += sum(metrics.extra.get("errors", {}).values())
        if per_system:
            result.sim["sim.qps.%s" % case.label] = metrics.qps
            result.host["host_ops_per_s.%s" % case.label] = n / run_watch.reference_s
            if case.kind == "fill":
                result.sim["engine.write_amp.%s" % case.label] = (
                    metrics.write_amplification
                )
        if case.primary:
            instances = dict(case.opts).get("workers", 1)
            result.sim["sim.dataset_mb"] = max(n, records) * KV_BYTES / 1e6
            result.sim["sim.cache_mb"] = (
                instances * block_cache + (page_cache if case.cold else 0)
            ) / 1e6
        if observers is not None:
            tally.note_queue_depths(observers.sampler)
            result.observed["core.worker.max_queue_depth"] = tally.max_queue_depth
            if case.primary:
                facts, label = observers.blame(t0, t0 + metrics.elapsed, n)
                result.observed.update(facts)
                if label:
                    result.notes["blame.top_label"] = label
    with spans.span("verify"):
        checks, wrong = _read_back(
            env, _store_of(system), _shadow(pre, ops, case.threads), ops, ctx.seed
        )
        result.checks += checks
        result.failed += wrong


def _paper_facts(sim: Dict[str, float]) -> Dict[str, float]:
    facts = {}
    gaps = []
    for name, (top, bottom, paper) in PAPER_RATIOS.items():
        facts[name] = _ratio(sim[top], sim[bottom])
        gaps.append(abs(math.log(facts[name] / paper)))
    facts["paper_gap"] = sum(gaps) / len(gaps)
    return facts


# ---------------------------------------------------------------------------
# The open-loop service workload
# ---------------------------------------------------------------------------


def _serve_key_space(n: int) -> int:
    return max(64, int(n * 0.4))  # 16 000 keys under 40 000 requests


def _serve_once(n: int, rate: float, ctx: PassContext, tally: Tally,
                result: Pass, verify: bool) -> dict:
    """One ServicePlane run; returns its SLO report."""
    spans = ctx.spans
    key_space = _serve_key_space(n)
    setup_watch = Stopwatch()
    with _profiled(ctx.profile) as setup_zones:
        with spans.span("env"):
            env = make_env()
            observers = Observers(env) if ctx.observe else None
        with spans.span("workload_gen"):
            if ctx.profile:
                setup_zones.enter("harness.workload")
            spec = build_scenario(
                "uniform", n_ops=n, rate=rate, key_space=key_space,
                value_size=VALUE, seed=ctx.seed,
            )
            if ctx.profile:
                setup_zones.leave()
        with spans.span("open"):
            plane = ServicePlane(
                env, n_shards=4, n_partitions=32, key_space=key_space,
                system_opts=dict(workers=2),
            )
        with spans.span("preload"):
            preload_plane(env, plane, spec["preload"])
    setup_watch.stop()
    before = _registry(env)
    user_bytes0 = sum(shard.user_bytes_written() for shard in plane.shards)
    collector = MetricsCollector(env, "serve")
    collector.start()
    t0 = env.sim.now
    run_watch = Stopwatch()
    requests = LappingOps(spec["ops"])
    requests.watch = None if ctx.profile else run_watch
    with _profiled(ctx.profile) as run_zones, spans.span("run"):
        run = run_service_load(env, plane, requests, spec["arrivals"])
    run_watch.stop()
    with spans.span("report"):
        result.add_times(setup_watch, run_watch)
        user_bytes = sum(shard.user_bytes_written() for shard in plane.shards)
        metrics = collector.finish(n, user_bytes - user_bytes0, 0)
        tally.add_window(env, metrics, before, primary=False)
        tally.add_zones(run_zones, run_watch, setup_zones, setup_watch)
        slo = build_slo_report(plane, run, spec)
        result.failed += slo["shed"] + slo["errors"]
        if observers is not None and verify:
            facts, label = observers.blame(t0, t0 + run["makespan"], n)
            result.observed.update(facts)
            result.notes["blame.top_label"] = label
    if verify:
        with spans.span("verify"):
            shards, router = plane.shards, plane.router
            checks, wrong = _read_back(
                env,
                lambda key, tid: shards[router.shard_of(key)].kvs,
                _shadow(spec["preload"], spec["ops"], 1),
                spec["ops"],
                ctx.seed,
            )
            result.checks += checks
            result.failed += wrong
    return slo


def _serve_pass(workload: Workload, ctx: PassContext) -> Pass:
    result, tally = Pass(), Tally()
    n = scaled(workload.n, ctx.scale)
    slo = _serve_once(n, SERVE_RATE, ctx, tally, result, verify=True)
    result.ops = n
    result.sim.update(tally.sim_facts())
    latency = slo["latency"]
    result.sim.update({
        "sim.qps": slo["goodput_ops_per_s"],
        "sim.elapsed_ms": slo["makespan_s"] * 1e3,
        "sim.p50_us.read": latency["read"].get("p50_us", 0.0),
        "sim.p99_us.read": latency["read"].get("p99_us", 0.0),
        "sim.p50_us.write": latency["write"].get("p50_us", 0.0),
        "sim.p99_us.write": latency["write"].get("p99_us", 0.0),
        "sim.dataset_mb": _serve_key_space(n) * KV_BYTES / 1e6,
        "sim.cache_mb": 4 * 2 * DEFAULT_BLOCK_CACHE / 1e6,  # shards x workers
        "service.shed_share": slo["shed_rate"],
        "service.p50_read_us": latency["read"].get("p50_us", 0.0),
        "service.p99_read_us": latency["read"].get("p99_us", 0.0),
        "service.p99_write_us": latency["write"].get("p99_us", 0.0),
        "service.max_depth": max(row["queue_max_depth"] for row in slo["per_shard"]),
        "service.goodput": slo["goodput_ops_per_s"],
    })
    tally.zone_facts(result)
    return result


def serve_max_rate_ok(workload: Workload, ctx: PassContext) -> float:
    """Highest swept rate meeting the latency limit without shedding: one
    exact, untraced run per rate at a quarter of the workload's request count."""
    n = scaled(workload.n // 4, ctx.scale)
    best = 0.0
    for rate in SERVE_SWEEP:
        slo = _serve_once(n, rate, ctx, Tally(), Pass(), verify=False)
        worst_p99 = max(
            slo["latency"][cls].get("p99_us", 0.0) for cls in ("read", "write")
        )
        if worst_p99 <= SERVE_P99_LIMIT_US and slo["shed_rate"] <= SERVE_SHED_LIMIT:
            best = rate
    return best


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_pass(workload: Workload, ctx: PassContext) -> Pass:
    """One fresh-env pass of ``workload``; raw durations are left in
    ``ctx.spans``, reference-second totals in the returned :class:`Pass`."""
    if not workload.cases:
        return _serve_pass(workload, ctx)
    result, tally = Pass(), Tally()
    sweep = len(workload.cases) > 1  # several systems: report each, and the ratios
    for case in workload.cases:
        with ctx.spans.span("case:%s" % case.label):
            _run_case(case, ctx, tally, result, per_system=sweep)
    result.ops = tally.ops
    result.sim.update(tally.sim_facts())
    if sweep:
        result.sim.update(_paper_facts(result.sim))
    tally.zone_facts(result)
    return result
