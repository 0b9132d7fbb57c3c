"""Critical-path extraction and causal what-if profiler tests.

Covers the wakeup edge log, exact hand-built paths over the sim kernel's
primitives, the per-request/makespan extractors, the Figure 6 cross-check
against the measured window's attribution, and the Coz-style prediction-vs-measurement
acceptance criteria (WAL speedup and +1 device channel within tolerance).
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.critpath import (
    EXPERIMENTS,
    Edge,
    EdgeLog,
    check_prediction,
    critpath_report,
    fig06_from_blame,
    install_edgelog,
    makespan_path,
    path_trace_extras,
    predicted_delta,
    request_paths,
    uninstall_edgelog,
    walk_back,
)
from repro.critpath.edgelog import UNRECORDED
from repro.critpath.extract import CriticalPath, Segment, aggregate_blame
from repro.engine import make_env
from repro.harness import preload, run_closed_loop
from repro.harness.report import format_blame_table
from repro.metrics import install_stats
from repro.sim.core import Simulator
from repro.sim.cpu import CPUSet
from repro.sim.device import OPTANE_905P, StorageDevice
from repro.sim.queues import FIFOQueue
from repro.sim.sync import Lock
from repro.systems import open_system
from repro.tools import dbbench, whatif
from repro.tools.common import ObservedRun
from repro.trace import Tracer, install_tracer
from repro.trace.chrome import to_chrome_events
from repro.workloads import YCSBWorkload, fillrandom, split_stream
from tests.test_sim_core import _program, _run_program
from tests.test_trace import ListTracer, span_rows


def _segs(segments):
    """(label, start, end) triples in chronological order."""
    return [
        (s.label, pytest.approx(s.start, abs=1e-12), pytest.approx(s.end, abs=1e-12))
        for s in reversed(segments)
    ]


# ---------------------------------------------------------------------------
# edge log mechanics
# ---------------------------------------------------------------------------


def test_edgelog_install_uninstall():
    sim = Simulator()
    log = install_edgelog(sim)
    assert sim.edgelog is log
    uninstall_edgelog(sim)
    assert sim.edgelog is None


def test_edgelog_records_resumes_and_spawns():
    sim = Simulator()
    log = install_edgelog(sim)

    def child():
        yield sim.timeout(1.0)

    def parent():
        yield sim.spawn(child(), "child")

    sim.spawn(parent(), "parent")
    sim.run()
    counts = log.counts()
    assert counts["resumes"] > 0
    assert counts["edges"] > 0
    assert counts["spawns"] >= 2
    assert counts["dropped"] == 0


def test_edgelog_bounded_by_max_records():
    sim = Simulator()
    log = install_edgelog(sim, max_records=5)

    def ticker():
        for _ in range(50):
            yield sim.timeout(0.001)

    sim.spawn(ticker(), "ticker")
    sim.run()
    assert log.counts()["resumes"] == 5
    # 45 resumes past the cap, and the 47 edges stamped after it (the 46
    # remaining timers and the process's own completion): an edge is only
    # reachable through a stored resume, so it is dropped with them.
    assert log.counts()["dropped"] == 45 + 47
    assert log.counts()["edges"] == len(log.edges) // log.WIDTH == 5


def test_burst_and_io_stamp_exactly_one_edge():
    """Completion is scheduled without a Timeout, so the only edge a CPU
    burst or a device IO stamps is its own resource edge — no timer edge
    that no process ever waits on."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=1)
    ev = cpu.exec(cpu.new_thread("t"), 1.0, "work")
    sim.run()
    assert log.n_edges == 1 and log.edge(ev._edge).label == "cpu:work"
    ev = StorageDevice(sim, OPTANE_905P).write(4096, category="wal")
    sim.run()
    assert log.n_edges == 2 and log.edge(ev._edge).label == "device:write:wal"


def test_track_bindings_are_time_qualified():
    """Two successive processes reusing one track name (preload then the
    measured run) must resolve to the process live at the queried time."""
    sim = Simulator()
    log = install_edgelog(sim)
    procs = {}

    def phase(name, start):
        def body():
            yield sim.timeout(start)
            log.bind_track("threads:user-0", sim.current_process)
            procs[name] = sim.current_process
            yield sim.timeout(1.0)

        return body

    sim.spawn(phase("first", 0.0)(), "first")
    sim.spawn(phase("second", 5.0)(), "second")
    sim.run()
    assert log.track_proc_at("threads:user-0", 0.5) is procs["first"]
    assert log.track_proc_at("threads:user-0", 6.0) is procs["second"]


# ---------------------------------------------------------------------------
# hand-built scenarios with known exact paths
# ---------------------------------------------------------------------------


def test_timeout_blames_the_sleep():
    sim = Simulator()
    log = install_edgelog(sim)
    done = {}

    def sleeper():
        yield sim.timeout(5.0)
        done["proc"] = sim.current_process

    sim.spawn(sleeper(), "sleeper")
    sim.run()
    segments = walk_back(log, done["proc"], 5.0, 0.0)
    assert _segs(segments) == [("timeout", 0.0, 5.0)]


def test_lock_chain_walks_through_all_holders():
    """Three processes serialized on one lock: the path through the last
    completion is exactly the three holders' CPU bursts, chained via the
    FIFO lock hand-offs — the textbook critical path."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=4, migration_overhead=0.0)
    lock = Lock(sim, "wal")
    done = {}

    def worker(name, duration, category):
        ctx = cpu.new_thread(name)
        yield lock.acquire()
        yield cpu.exec(ctx, duration, category)
        lock.release()
        done[name] = sim.current_process

    sim.spawn(worker("c", 2.0, "gamma"), "c")
    sim.spawn(worker("b", 3.0, "beta"), "b")
    sim.spawn(worker("a", 1.0, "alpha"), "a")
    sim.run()
    assert sim.now == pytest.approx(6.0)
    segments = walk_back(log, done["a"], 6.0, 0.0)
    assert _segs(segments) == [
        ("cpu:gamma", 0.0, 2.0),
        ("cpu:beta", 2.0, 5.0),
        ("cpu:alpha", 5.0, 6.0),
    ]
    # Coverage invariant: the segments tile the walked window exactly.
    path = CriticalPath("a", 0.0, 6.0, segments)
    assert path.covered == pytest.approx(path.span)
    assert path.blame() == {
        "cpu:gamma": pytest.approx(2.0),
        "cpu:beta": pytest.approx(3.0),
        "cpu:alpha": pytest.approx(1.0),
    }


def test_queue_handoff_walks_into_the_producer():
    """A consumer blocked on an empty queue inherits the producer's history:
    the wait is *caused* by the producer still computing the item."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=2, migration_overhead=0.0)
    queue = FIFOQueue(sim, "jobs")
    done = {}

    def producer():
        ctx = cpu.new_thread("producer")
        yield cpu.exec(ctx, 3.0, "produce")
        queue.put("job")

    def consumer():
        item = yield queue.get()
        assert item == "job"
        done["proc"] = sim.current_process

    sim.spawn(consumer(), "consumer")
    sim.spawn(producer(), "producer")
    sim.run()
    segments = walk_back(log, done["proc"], 3.0, 0.0)
    assert _segs(segments) == [("cpu:produce", 0.0, 3.0)]


def test_cpu_queueing_blamed_separately_from_service():
    """Two bursts contending for one core: the loser's path shows its own
    service time plus the winner's burst as cpu_queue time."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=1, migration_overhead=0.0)
    done = {}

    def burst(name, category):
        ctx = cpu.new_thread(name)
        yield cpu.exec(ctx, 2.0, category)
        done[name] = sim.current_process

    sim.spawn(burst("first", "win"), "first")
    sim.spawn(burst("second", "lose"), "second")
    sim.run()
    assert sim.now == pytest.approx(4.0)
    segments = walk_back(log, done["second"], 4.0, 0.0)
    blame = CriticalPath("second", 0.0, 4.0, segments).blame()
    assert blame["cpu:lose"] == pytest.approx(2.0)
    assert blame["cpu_queue:lose"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# aggregate blame / formatting
# ---------------------------------------------------------------------------


def test_aggregate_blame_ranks_and_shares():
    paths = [
        CriticalPath("r1", 0.0, 3.0, [Segment("cpu:wal", 0.0, 2.0), Segment("timeout", 2.0, 3.0)]),
        CriticalPath("r2", 0.0, 2.0, [Segment("cpu:wal", 0.0, 2.0)]),
    ]
    blame = aggregate_blame(paths)
    assert [row["label"] for row in blame["rows"]] == ["cpu:wal", "timeout"]
    top = blame["rows"][0]
    assert top["seconds"] == pytest.approx(4.0)
    assert top["share"] == pytest.approx(0.8)
    assert top["paths"] == 2
    assert blame["n_paths"] == 2
    text = format_blame_table(blame)
    assert "cpu:wal" in text and "80.0%" in text and "total" in text


def test_fig06_bucket_mapping():
    blame = aggregate_blame(
        [
            CriticalPath(
                "r",
                0.0,
                10.0,
                [
                    Segment("device:write:wal", 0.0, 4.0),
                    Segment("lock:wal_lock", 4.0, 6.0),
                    Segment("cpu:memtable", 6.0, 9.0),
                    Segment("cpu:dispatch", 9.0, 10.0),
                ],
            )
        ]
    )
    fig06 = fig06_from_blame(blame)
    assert fig06["categories"]["WAL"] == pytest.approx(4.0)
    assert fig06["categories"]["WAL lock"] == pytest.approx(2.0)
    assert fig06["categories"]["MemTable"] == pytest.approx(3.0)
    assert fig06["categories"]["Others"] == pytest.approx(1.0)
    assert sum(fig06["shares"].values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# end-to-end extraction on the simulated stack
# ---------------------------------------------------------------------------


def _ycsb_run(n_records=300, n_ops=400, threads=2):
    env = make_env(n_cores=8)
    tracer = install_tracer(env)
    edgelog = install_edgelog(env)
    system = open_system("p2kvs", env, workers=4)
    workload = YCSBWorkload("A", n_records, value_size=112, seed=5)
    preload(env, system, workload.load_ops(), n_threads=threads)
    ops = list(workload.ops(n_ops))
    streams = [[] for _ in range(threads)]
    for i, op in enumerate(ops):
        streams[i % threads].append(op)
    t0 = env.sim.now
    metrics = run_closed_loop(env, system, streams)
    return metrics, tracer, edgelog, (t0, metrics.finished_at), n_ops


def test_request_paths_cover_their_spans():
    _metrics, tracer, edgelog, window, n_ops = _ycsb_run()
    paths = request_paths(edgelog, tracer, window)
    assert len(paths) == n_ops
    for path in paths:
        assert path.covered == pytest.approx(path.span, rel=1e-9, abs=1e-12)
        for seg in path.segments:
            assert window[0] - 1e-12 <= seg.start <= seg.end <= window[1] + 1e-12


def test_makespan_path_tiles_the_window():
    _metrics, tracer, edgelog, window, _n = _ycsb_run()
    path = makespan_path(edgelog, tracer, window)
    assert path is not None
    assert path.t_start == pytest.approx(window[0])
    assert path.covered == pytest.approx(path.span, rel=1e-9, abs=1e-12)
    assert path.blame()


def test_critpath_report_shape():
    _metrics, tracer, edgelog, window, n_ops = _ycsb_run()
    report = critpath_report(edgelog, tracer, window)
    assert report["n_requests"] == n_ops
    assert report["blame"]["rows"]
    assert report["makespan"]["covered"] == pytest.approx(
        report["makespan"]["t_end"] - report["makespan"]["t_start"], rel=1e-9
    )
    json.dumps(report)  # must be JSON-serializable as exported


def test_blame_argmax_matches_fig06_spans():
    """Acceptance criterion: on the concurrency workload the critical-path
    blame ranking names the same dominant Figure 6 component as the measured
    window's thread accounting (``Metrics.attribution``)."""
    metrics, tracer, edgelog, window, _n = _ycsb_run()
    report = critpath_report(edgelog, tracer, window)
    from_blame = fig06_from_blame(report["blame"])
    assert from_blame["total"] > 0 and metrics.attribution["total"] > 0
    top_blame = max(from_blame["categories"].items(), key=lambda kv: kv[1])[0]
    top_window = max(metrics.attribution["categories"].items(), key=lambda kv: kv[1])[0]
    assert top_blame == top_window == "MemTable"


def test_the_window_ends_where_the_collector_finished(tmp_path):
    """The critical-path window ends at ``Metrics.finished_at``; ``t0 +
    elapsed`` rounds an ulp below it on this run and dropped the request that
    finished last (149 request paths for 150 ops)."""
    args = dbbench.build_parser().parse_args(
        ["--benchmarks", "overwrite", "--system", "p2kvs", "--threads", "3",
         "--workers", "2", "--num", "150", "--seed", "6", "--critpath",
         "--critpath-out", str(tmp_path / "critpath")]
    )
    result = dbbench.run_benchmark("overwrite", args)
    assert result["critpath"]["n_requests"] == 150


def test_chrome_trace_gets_critpath_track_and_flow():
    _metrics, tracer, edgelog, window, _n = _ycsb_run(n_records=100, n_ops=100)
    path = makespan_path(edgelog, tracer, window)
    extras, flows = path_trace_extras(path, name="makespan")
    assert extras and flows
    events = to_chrome_events(tracer, extra_spans=extras, flows=flows)
    flow_events = [e for e in events if e["ph"] in ("s", "t", "f")]
    assert flow_events and flow_events[0]["ph"] == "s"
    assert flow_events[-1]["ph"] == "f" and flow_events[-1]["bp"] == "e"
    assert any(e["ph"] == "M" and e["args"]["name"] == "critpath" for e in events)
    # Flow timestamps are non-decreasing along the chain.
    ts = [e["ts"] for e in flow_events]
    assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# causal what-if profiler (acceptance criteria)
# ---------------------------------------------------------------------------


WHATIF_ARGS = [
    "--num", "2000",
    "--device", "sata",
    "--value-size", "4096",
    "--workers", "8",
    "--threads", "8",
]


@pytest.fixture(scope="module")
def whatif_baseline():
    args = whatif.build_parser().parse_args(WHATIF_ARGS)
    metrics, report = whatif._run(args, with_critpath=True)
    return args, metrics, report


def _measured_delta(args, baseline_metrics, experiment):
    metrics, _ = whatif._run(args, experiment=experiment)
    return metrics.qps / baseline_metrics.qps - 1.0


def test_whatif_wal_speedup_prediction_within_tolerance(whatif_baseline):
    """Acceptance criterion 1: speeding up WAL writes 0.8x — the predicted
    throughput delta from the critical path lands within 25% of the delta
    measured by actually re-running with the scaled service time."""
    args, metrics, report = whatif_baseline
    experiment = EXPERIMENTS["wal-write-0.8x"]
    predicted = predicted_delta(report, experiment, metrics.elapsed, channels=1)
    measured = _measured_delta(args, metrics, experiment)
    assert measured > 0.02  # the speedup is real, not noise
    assert check_prediction(predicted, measured)


def test_whatif_extra_channel_prediction_within_tolerance(whatif_baseline):
    """Acceptance criterion 2: adding one device channel — predicted from
    device queueing blame on the makespan path, within 25% of measured."""
    args, metrics, report = whatif_baseline
    from repro.tools.common import DEVICES

    channels = DEVICES[args.device].channels
    experiment = EXPERIMENTS["channels+1"]
    predicted = predicted_delta(report, experiment, metrics.elapsed, channels)
    measured = _measured_delta(args, metrics, experiment)
    assert measured > 0.02
    assert check_prediction(predicted, measured)


def test_whatif_cli_check_passes():
    rc = whatif.main(
        WHATIF_ARGS + ["--experiments", "wal-write-0.8x,channels+1", "--check"]
    )
    assert rc == 0


def test_check_prediction_tolerance_band():
    assert check_prediction(0.10, 0.10)
    assert check_prediction(0.10, 0.12)  # within 25% relative
    assert not check_prediction(0.10, 0.20)
    assert check_prediction(0.0, 0.015)  # absolute floor for near-zero deltas
    assert not check_prediction(0.0, 0.05)


# ---------------------------------------------------------------------------
# Bounded memory, and the differential recorder test: the row-storing log
# against one that keeps an Edge object per edge and a tuple per resume (the
# parent's recorder, kept here as the oracle)
# ---------------------------------------------------------------------------


def test_cap_hit_mid_run_bounds_edges_too_and_the_report_still_tiles():
    env = make_env(n_cores=8)
    tracer = install_tracer(env)
    edgelog = install_edgelog(env, max_records=3000)
    system = open_system("p2kvs", env, workers=4)
    ops = list(fillrandom(600, seed=5))
    t0 = env.sim.now
    first = run_closed_loop(env, system, split_stream(ops[:300], 2))
    at_cap = edgelog.counts()
    assert at_cap["resumes"] == 3000 and at_cap["dropped"] > 0
    assert at_cap["edges"] == len(edgelog.edges) // edgelog.WIDTH
    run_closed_loop(env, system, split_stream(ops[300:], 2))
    counts = edgelog.counts()
    assert counts["dropped"] > at_cap["dropped"]
    # Nothing grew: no record is stored past the cap.
    for kept in ("edges", "resumes", "processes", "spawns", "tracks"):
        assert counts[kept] == at_cap[kept]
    assert len(edgelog.edges) == at_cap["edges"] * edgelog.WIDTH
    # Every stored resume names a stored edge; the walk past the recorded
    # history is covered by a "start" segment, so the tiling stays exact.
    for hist in edgelog.history.values():
        assert all(row is None or 0 <= row < counts["edges"] for row in hist[2::3])
    report = critpath_report(edgelog, tracer, (t0, env.sim.now))
    assert report["n_requests"] == 600 and report["counts"] == counts
    labels = [row["label"] for row in report["makespan"]["blame"]["rows"]]
    assert "start" in labels
    assert report["makespan"]["covered"] == pytest.approx(
        report["makespan"]["t_end"] - t0, rel=1e-9
    )
    for path in request_paths(edgelog, tracer, (t0, t0 + first.elapsed)):
        assert path.covered == pytest.approx(path.span, rel=1e-9, abs=1e-12)


class ObjectEdgeLog(EdgeLog):
    """Reference recorder: the Edge object itself on ``Event._edge``, a
    ``(time, seq, edge)`` tuple per resume in a dict of lists, spawns and
    bindings through dict lookups; ``history``/``fields`` present them to
    the inherited queries, which read rows."""

    def __init__(self, sim, max_records=4_000_000):
        self.sim, self.max_records, self.resumes = sim, max_records, {}
        self.spawns, self.track_bindings, self._flat = {}, {}, (0, {})
        self.n_edges = self.n_resumes = self.dropped = self._seq = 0

    def full(self):
        """At the cap: the record at hand is dropped, and counted."""
        full = self.n_resumes >= self.max_records
        self.dropped += full
        return full

    def annotate(self, event, resource, category="", kind="handoff", begin=None,
                 queued_at=None, initiator=None, via=None, track=None):
        if self.full():
            return
        begin = self.sim.now if begin is None else begin
        queued_at = begin if queued_at is None else queued_at
        self._seq += 1
        self.n_edges += 1
        event._edge = Edge(self._seq, kind, resource, category, begin, queued_at,
                           self.sim.current_process, initiator, via, track)

    def on_resume(self, proc, event, now):
        if self.full():
            return
        self._seq += 1
        self.n_resumes += 1
        self.resumes.setdefault(proc, []).append((now, self._seq, event._edge))

    def on_spawn(self, proc, parent, now):
        if self.full():
            return
        self._seq += 1
        self.spawns[proc] = (now, parent, self._seq)

    def bind_track(self, track, proc):
        bound = self.track_bindings.get(track, [])
        if proc is None or (bound and bound[-1][1] is proc):
            return
        if not self.full():
            self.track_bindings.setdefault(track, []).append((self.sim.now, proc))
        elif bound and bound[-1][1] is not UNRECORDED:
            bound.append((self.sim.now, UNRECORDED))

    @property
    def history(self):
        if self._flat[0] != self.n_resumes:  # flattened once per query phase
            flat = {p: [x for r in h for x in r] for p, h in self.resumes.items()}
            self._flat = self.n_resumes, flat
        return self._flat[1]

    def fields(self, edge):
        return [getattr(edge, name) for name in Edge.__slots__]


def _triples(hist):
    """A flat resume history as (time, seq, edge row) triples."""
    return zip(*[iter(hist)] * 3)


def _named(obj):
    """Processes and events differ between two runs; their names do not."""
    return getattr(obj, "name", None) or type(obj).__name__


def _log_facts(log):
    """Everything a log recorded, keyed by names and spawn order."""
    histories = [
        (proc.name, t, seq, edge if edge is None else [
            value if type(value) in (int, float, str, type(None)) else _named(value)
            for value in log.fields(edge)
        ])
        for proc, hist in log.history.items()
        for t, seq, edge in _triples(hist)
    ]
    spawns = [(p.name, t, parent and parent.name, seq)
              for p, (t, parent, seq) in log.spawns.items()]
    bindings = {track: [(t, _named(p)) for t, p in bound]
                for track, bound in log.track_bindings.items()}
    walks = [
        [(s.label, s.start, s.end, s.track) for s in walk_back(log, p, log.sim.now, 0.0)]
        for p in log.spawns
    ]
    return histories, spawns, bindings, walks, log.counts(), log.seq


def _check_queries_against_scans(log):
    """``last_resume`` and ``track_proc_at`` bisect; the scans they replaced
    are the reference, at every recorded seq and instant and just off them."""
    for proc, hist in log.history.items():
        resumes = list(_triples(hist))
        for seq_limit in {s + d for s in hist[1::3] for d in (0, 1)}:
            for t_limit in {t + d for t in hist[0::3] for d in (-1e-9, 0.0)}:
                ok = [r for r in resumes if r[1] < seq_limit and r[0] <= t_limit]
                # The latest instant's resumes, latest-delivered first: the
                # canonical one is the first of the greatest key.
                tied = [r for r in reversed(ok) if r[0] == ok[-1][0]]
                want = max(tied, key=lambda r: log._resume_key(r[2])) if ok else None
                assert log.last_resume(proc, seq_limit, t_limit) == want
    for track, bound in log.track_bindings.items():
        for t in {t + d for t, _proc in bound for d in (-1e-9, 0.0, 1e-9)}:
            scanned = [proc for bind_time, proc in bound if bind_time <= t]
            assert log.track_proc_at(track, t) is (scanned[-1] if scanned else None)


@pytest.mark.no_sanitize
@settings(max_examples=100, deadline=None)
@given(_program, st.one_of(st.none(), st.integers(0, 3)), st.sampled_from([0, 1, 9, 10**6]))
def test_rows_record_what_the_object_log_recorded(program, seed, cap):
    logs = []

    def installer(cls):
        def install(sim):
            sim.edgelog = cls(sim, max_records=cap)
            logs.append(sim.edgelog)

        return install

    results = [
        _run_program(program, Simulator, (installer(cls),), seed)
        for cls in (EdgeLog, ObjectEdgeLog)
    ]
    assert results[0] == results[1]
    assert _log_facts(logs[0]) == _log_facts(logs[1])
    _check_queries_against_scans(logs[0])


def _spawn_per_op(log_cls, n_ops, cap=40):
    """A process per op, as multiget's lookups and the open loop's arrivals
    are: odd ops on one of three long-lived thread tracks, even ops on a
    thread of their own."""
    sim = Simulator()
    log = sim.edgelog = log_cls(sim, max_records=cap)
    cpu = CPUSet(sim, n_cores=2)
    shared = [cpu.new_thread("shared-%d" % i) for i in range(3)]

    def one_op(i):
        ctx = shared[i % 3] if i % 2 else cpu.new_thread("op-%d" % i)
        yield cpu.exec(ctx, 1e-6, "work")
        yield sim.timeout(1e-6)

    def arrivals():
        for i in range(n_ops):
            sim.spawn(one_op(i), "op-%d" % i)
            yield sim.timeout(2e-6)

    sim.spawn(arrivals(), "arrivals")
    sim.run()
    return log


def test_spawns_and_bindings_are_dropped_past_the_cap():
    """Past the cap a spawn-per-op run stores no more spawns or bindings —
    they are counted in ``dropped`` like the resumes — and a shared track's
    later spans resolve to no recorded process, so a walk from one covers it
    with "start" instead of blaming the track's last recorded process."""
    log = _spawn_per_op(EdgeLog, 60)
    assert _log_facts(log) == _log_facts(_spawn_per_op(ObjectEdgeLog, 60))
    longer = _spawn_per_op(EdgeLog, 180)
    stored = lambda lg: (len(lg.spawns), sum(map(len, lg.track_bindings.values())))
    assert stored(longer) == stored(log) and longer.dropped > log.dropped > 0
    late = longer.sim.now
    proc = longer.track_proc_at("threads:shared-1", late)
    assert proc is UNRECORDED
    assert [s.label for s in walk_back(longer, proc, late, late - 1e-5)] == ["start"]


def _exports(run, system, streams, preload_ops=None):
    """Run ``streams`` observed (the stats sampler on too) and export the
    run's critical-path report and Chrome trace with the makespan path drawn
    in.  The attribution is no recorder's product (the collector windows the
    threads' accounting), so it is checked against the span fold in
    tests/test_trace.py instead."""
    env, tracer, edgelog = run.env, run.tracer, run.edgelog
    install_stats(env, interval_ms=0.1)
    system = open_system(*system[:1], env, **system[1])
    if preload_ops is not None:
        preload(env, system, preload_ops, n_threads=2)
    run.closed_loop(system, streams)
    window = run.window
    path = makespan_path(edgelog, tracer, window)
    extras, flows = path_trace_extras(path) if path is not None else ((), ())
    return span_rows(tracer), [
        json.dumps(critpath_report(edgelog, tracer, window)),
        json.dumps(to_chrome_events(tracer, extra_spans=extras, flows=flows)),
    ]


def _recorder_pairs(*scenario):
    """``scenario``'s exports under the row recorders and under the object
    reference recorders."""
    exports = []
    for tracer_cls, log_cls in ((Tracer, EdgeLog), (ListTracer, ObjectEdgeLog)):
        run = ObservedRun(make_env(n_cores=8))
        run.tracer = run.env.sim.tracer = tracer_cls(run.env.sim)
        run.edgelog = run.env.sim.edgelog = log_cls(run.env.sim)
        exports.append(_exports(run, *scenario))
    return exports


def _digest(exported):
    return hashlib.sha256("\n".join(exported).encode()).hexdigest()[:16]


def test_both_recorder_pairs_export_the_same_bytes():
    """End to end on the simulated stack: rows against objects, through the
    critical-path report and the Chrome trace with the makespan path drawn
    in — and the bytes the span-handle recorders exported for the same run,
    which pin each site's arguments (names, order, values) and async ids —
    less two later changes: request rows carry no ``perf`` argument, and the
    critical-path report counts no sampler tick after the window ends."""
    workload = YCSBWorkload("A", 300, value_size=112, seed=5)
    exports = _recorder_pairs(
        ("p2kvs", {"workers": 4}), split_stream(list(workload.ops(400)), 2),
        list(workload.load_ops()),
    )
    assert exports[0] == exports[1]
    assert _digest(exports[0][1]) == "7b4eb28ce1369392"


def test_every_span_site_exports_the_handle_recorders_bytes():
    """The span sites that run does not reach: harness request spans, flush
    and compaction jobs, WAL flushes and write-group followers (a RocksDB
    fill on small buffers), and async request pairs (p2KVS async writes on a
    sync WAL).  Its pin differs from those recorders' bytes as the test
    above's does."""
    small = {"write_buffer_size": 16384, "target_file_size": 16384,
             "max_bytes_for_level_base": 65536}
    exported = []
    for system, n, threads, sites in (
        (("rocksdb", {"engine": small}), 600, 4,
         {"request:insert", "flush", "compaction", "wal:flush", "wg:follower"}),
        (("p2kvs", {"workers": 2, "async_window": 4, "sync_wal": True}), 200, 2,
         {"request:PUT", "queued:PUT", "execute:write"}),
    ):
        ops = list(fillrandom(n, value_size=112, seed=5))
        exports = _recorder_pairs(system, split_stream(ops, threads))
        assert exports[0] == exports[1]
        exported += exports[0][1]
        # name -> async: every site reached, the p2KVS requests as async pairs
        spans = {row[0]: row[-1] is not None for row in exports[0][0]}
        assert sites <= set(spans) and spans.get("request:PUT", True)
    assert _digest(exported) == "64baf8d8eacc645e"
