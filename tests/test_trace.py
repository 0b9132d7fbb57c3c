"""Tests for the tracing layer: span invariants, zero-overhead default,
Chrome export, and the span fold that checks Figure 6's attribution."""

import gc
import json
import sys
from inspect import CO_GENERATOR
from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import P2KVS
from repro.critpath import install_edgelog
from repro.engine import LSMEngine, WriteBatch, make_env, rocksdb_options
from repro.harness import preload, run_closed_loop
from repro.metrics import install_stats
from repro.perf.tax import count_calls
from repro.sim.core import Simulator
from repro.systems import open_system
from repro.trace import (
    Tracer,
    fig06_breakdown,
    install_tracer,
    thread_track,
    to_chrome_events,
    uninstall_tracer,
    write_chrome_trace,
)
from repro.tools import dbbench
from repro.tools.common import ObservedRun
from repro.workloads import (
    YCSBWorkload,
    fillrandom,
    overwrite,
    readrandom,
    split_stream,
)
from tests.conftest import run_process
from tests.test_sim_core import _program, _run_program

EPS = 1e-9


def small_options(**kw):
    kw.setdefault("write_buffer_size", 64 * 1024)
    kw.setdefault("target_file_size", 64 * 1024)
    kw.setdefault("max_bytes_for_level_base", 256 * 1024)
    return rocksdb_options(**kw)


def run_p2kvs_workload(env, n_ops=300, n_workers=2, value_size=112):
    """A deterministic single-user write workload; returns final sim time."""
    kvs = run_process(env, P2KVS.open(env, n_workers=n_workers))
    ctx = env.cpu.new_thread("user-0")

    def work():
        for i in range(n_ops):
            yield from kvs.put(ctx, b"key%08d" % i, b"v" * value_size)
        yield from kvs.close()

    run_process(env, work())
    return env.sim.now


class TestTracerBasics:
    def test_simulator_defaults_to_null_tracer(self):
        """Off is ``None``, as for every other hook slot on the kernel."""
        assert Simulator().tracer is None
        assert make_env(n_cores=4).sim.tracer is None

    def test_install_and_uninstall(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        assert env.sim.tracer is tracer
        assert isinstance(tracer, Tracer) and tracer.sim is env.sim
        uninstall_tracer(env)
        assert env.sim.tracer is None

    def test_unfinished_spans_are_not_recorded(self):
        """A span is written where it ends: stopped mid-run, the trace holds
        no request still in flight, and nothing that ends after the clock."""
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        kvs = run_process(env, P2KVS.open(env, n_workers=2))
        ctx = env.cpu.new_thread("user-0")

        def work():
            for i in range(50):
                yield from kvs.put(ctx, b"key%08d" % i, b"v" * 112)

        env.sim.spawn(work())
        env.sim.run(until=env.sim.now + 2e-5)
        requests = [s for s in tracer.events if s.name == "request:PUT"]
        assert 0 < len(requests) < 50
        assert all(s.end <= env.sim.now for s in tracer.events)

    def test_max_events_increments_dropped(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env, max_events=10)
        for i in range(25):
            tracer.instant("i%d" % i, "c", "t")
        assert len(tracer.events) == 10
        assert tracer.dropped == 15
        tracer.clear()
        assert tracer.events == [] and tracer.dropped == 0

    def test_async_spans_get_unique_ids(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        for name in ("a", "b"):
            tracer.complete(name, "c", "t", 0.0, 0.0, aid=next(tracer.aids))
        a, b = tracer.events
        assert a.aid is not None and b.aid is not None and a.aid != b.aid


class TestZeroOverhead:
    def test_traced_run_ends_at_identical_sim_time(self):
        times = []
        for traced in (False, True):
            env = make_env(n_cores=8)
            if traced:
                install_tracer(env)
            times.append(run_p2kvs_workload(env))
        assert times[0] == times[1]

    def test_traced_engine_run_identical(self):
        times = []
        for traced in (False, True):
            env = make_env(n_cores=8)
            if traced:
                install_tracer(env)
            engine = run_process(env, LSMEngine.open(env, "db", small_options()))
            ctx = env.cpu.new_thread("w")

            def work():
                for i in range(200):
                    yield from engine.put(ctx, b"k%06d" % i, b"v" * 200)
                yield from engine.close()

            run_process(env, work())
            times.append(env.sim.now)
        assert times[0] == times[1]


class TestSpanInvariants:
    @pytest.fixture(scope="class")
    def traced(self):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        # Enough bytes through 1 worker to force WAL flushes and a memtable
        # switch, so storage/device/flush spans all appear.
        run_p2kvs_workload(env, n_ops=800, n_workers=1, value_size=512)
        return env, tracer

    def test_all_recorded_spans_are_finished_and_ordered(self, traced):
        env, tracer = traced
        for span in tracer.events:
            assert span.end >= span.start >= 0.0
            assert span.end <= env.sim.now + EPS

    def test_expected_tracks_present(self, traced):
        _, tracer = traced
        tracks = tracer.tracks()
        prefixes = {t.split(":", 1)[0] for t in tracks}
        assert thread_track("user-0") in tracks
        assert "queues:worker-0" in tracks
        assert {"threads", "cores", "queues", "memtable", "storage",
                "device"} <= prefixes

    def test_expected_span_names_present(self, traced):
        _, tracer = traced
        names = {s.name for s in tracer.events}
        for expected in (
            "request:PUT",
            "queued:PUT",
            "execute:write",
            "wg:lead",
            "wg:wal",
            "wg:memtable",
            "wal:append",
            "wal:flush",
            "memtable:add",
            "flush",
        ):
            assert expected in names, expected

    def test_sync_spans_nest_on_each_track(self, traced):
        """Synchronous spans on one track either nest or are disjoint —
        partial overlap would mean broken instrumentation."""
        _, tracer = traced
        # Quantize to picoseconds: spans reconstructed as [now - dt, now]
        # carry one-ulp float noise, far below any real interval (>= ns).
        quant = lambda t: round(t, 12)
        by_track = {}
        for span in tracer.events:
            if span.aid is not None:
                continue  # async spans may overlap by design
            start, end = quant(span.start), quant(span.end)
            if end <= start:
                continue  # instants are trivially fine
            by_track.setdefault(span.track, []).append((start, end, span))
        for track, spans in by_track.items():
            spans.sort(key=lambda item: (item[0], -item[1]))
            stack = []
            for start, end, span in spans:
                while stack and stack[-1] <= start:
                    stack.pop()
                if stack:
                    # open enclosing span must fully contain this one
                    assert end <= stack[-1], (track, span)
                stack.append(end)

    def test_request_span_contains_queue_residency(self, traced):
        _, tracer = traced
        requests = list(tracer.spans(cat="request"))
        queued = list(tracer.spans(cat="queue"))
        assert len(requests) == 800
        assert len(queued) == 800
        for req, q in zip(
            sorted(requests, key=lambda s: s.start),
            sorted(queued, key=lambda s: s.start),
        ):
            assert req.start - EPS <= q.start and q.end <= req.end + EPS

    def test_request_spans_carry_routing_decision(self, traced):
        _, tracer = traced
        span = next(iter(tracer.spans(cat="request")))
        assert span.args["worker"] == 0
        assert span.args["op"] == "PUT"
        assert span.args["router"] == "hash"


class TestUnkeyedRequestRows:
    """A p2KVS request that no one worker serves is still one request row."""

    @pytest.mark.parametrize("strategy", ("parallel", "serial"))
    def test_scan_and_range_write_one_row_each(self, strategy):
        env = make_env(n_cores=8)
        system = open_system("p2kvs", env, workers=2, scan_strategy=strategy)
        run_closed_loop(env, system, split_stream(list(fillrandom(500)), 2))
        tracer = install_tracer(env)
        keys = [b"key%06d" % i for i in (3, 90, 170, 260)]
        streams = [
            [("scan", keys[0], 10), ("range", keys[1], keys[2]), ("insert", keys[3], b"v")],
            [("scan", keys[2], 5), ("range", keys[0], keys[3])],
        ]
        run_closed_loop(env, system, streams)
        rows = sorted(
            (span.name, span.args["worker"]) for span in tracer.spans("request")
        )
        assert [name for name, _ in rows] == [
            "request:PUT", "request:RANGE", "request:RANGE",
            "request:SCAN", "request:SCAN",
        ]
        assert [worker for name, worker in rows if name != "request:PUT"] == [None] * 4

    def test_cross_instance_write_batch_writes_one_row(self):
        env = make_env(n_cores=8)
        kvs = run_process(env, P2KVS.open(env, n_workers=2))
        tracer = install_tracer(env)
        batch = WriteBatch()
        for i in range(8):
            batch.put(b"key%06d" % i, b"v")
        ctx = env.cpu.new_thread("user-0")
        run_process(env, kvs.write_batch(ctx, batch))
        rows = [(span.name, span.args) for span in tracer.spans("request")]
        assert rows == [("request:WRITEBATCH", {"worker": None, "op": "WRITEBATCH"})]


class TestChromeExport:
    def test_json_roundtrip_and_schema(self, tmp_path):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        run_p2kvs_workload(env, n_ops=100)
        path = tmp_path / "trace.json"
        assert write_chrome_trace(tracer, str(path)) == str(path)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["dropped_events"] == 0
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        begins, ends = {}, {}
        for ev in events:
            assert {"ph", "name", "pid", "tid"} <= set(ev)
            if ev["ph"] == "M":
                continue
            assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
            elif ev["ph"] == "b":
                begins[ev["id"]] = ev
            elif ev["ph"] == "e":
                ends[ev["id"]] = ev
            else:
                assert ev["ph"] == "i"
        assert begins and set(begins) == set(ends)
        for aid, b in begins.items():
            assert ends[aid]["ts"] >= b["ts"]

    def test_metadata_names_every_track(self):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        run_p2kvs_workload(env, n_ops=50)
        events = to_chrome_events(tracer)
        named = {
            (ev["pid"], ev["tid"])
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        used = {(ev["pid"], ev["tid"]) for ev in events if ev["ph"] != "M"}
        assert used <= named

    def test_timestamps_are_simulated_microseconds(self):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        run_p2kvs_workload(env, n_ops=50)
        horizon_us = env.sim.now * 1e6
        for ev in to_chrome_events(tracer):
            if ev["ph"] != "M":
                assert ev["ts"] <= horizon_us + 1e-3


# ---------------------------------------------------------------------------
# Figure 6 attribution: the collector's windowed thread accounting against
# the span fold it replaced (kept here as the oracle)
# ---------------------------------------------------------------------------


def span_totals(tracer, tracks, window, since):
    """Sum busy/wait span durations per raw accounting category, over the
    rows recorded since row ``since`` on ``tracks``, each span clipped to
    ``window``: rows are in finish-time order, so none recorded before the
    window opened overlaps it."""
    busy, wait = {}, {}
    for name, cat, track, start, end, _aid, _keys in tracer.records(since):
        into = busy if cat == "busy" else wait if cat == "wait" else None
        if into is None or track not in tracks:
            continue
        start, end = max(start, window[0]), min(end, window[1])
        if end > start:
            into[name] = into.get(name, 0.0) + (end - start)
    return busy, wait


def fig06_from_spans(env, window, since):
    """Figure 6 of a window from the env's recorded spans alone: the
    foreground (user and worker) threads' ``busy``/``wait`` rows, clipped to
    the window."""
    tracks = {t.track for t in env.cpu.threads if t.kind in ("user", "worker")}
    return fig06_breakdown(*span_totals(env.sim.tracer, tracks, window, since))


def assert_same_attribution(attribution, oracle):
    """Equal at 10 significant digits: the accounting sums per thread, the
    fold per row, so the last ulps may differ."""
    assert oracle["total"] > 0
    for got, want in zip(
        list(attribution["categories"].values()) + [attribution["total"]],
        list(oracle["categories"].values()) + [oracle["total"]],
    ):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-15)


def traced_window(env, system, streams):
    """One measured window on a traced env; returns its ``Metrics`` and the
    span fold over exactly that window."""
    tracer = env.sim.tracer
    t0, since = env.sim.now, len(tracer.rows)
    metrics = run_closed_loop(env, system, streams)
    return metrics, fig06_from_spans(env, (t0, metrics.finished_at), since)


#: (system, options, preloaded, cores): the measured window overwrites the
#: preloaded keys, so a preload's ``user-i`` threads and the window's share
#: names; 4 cores keep background bursts queueing behind foreground ones.
ATTRIBUTION_CASES = [
    ("p2kvs", {"workers": 2}, False, 8),
    ("rocksdb", {"engine": dict(write_buffer_size=16384)}, True, 4),
    ("leveldb", {"engine": dict(write_buffer_size=16384)}, True, 4),
    ("multi", {"workers": 2, "engine": dict(write_buffer_size=16384)}, True, 4),
    ("wiredtiger", {}, True, 4),
    ("kvell", {"workers": 2}, True, 4),
    ("p2kvs", {"workers": 2, "async_window": 8}, True, 4),
]


class TestFig06Attribution:
    def test_fig06_spans_match_contexts(self):
        """``Metrics.attribution`` — the collector's delta of the foreground
        threads' busy/wait accounting — equals the span fold over the same
        window on every system, after a preload whose threads repeat the
        window's names."""
        for name, opts, preloaded, cores in ATTRIBUTION_CASES:
            env = make_env(n_cores=cores)
            install_tracer(env)
            system = open_system(name, env, **opts)
            if preloaded:
                preload(env, system, fillrandom(600, seed=1), n_threads=4)
            ops = overwrite(600, 600, seed=2) if preloaded else fillrandom(600)
            metrics, oracle = traced_window(env, system, split_stream(ops, 4))
            assert_same_attribution(metrics.attribution, oracle)

    def test_observed_run_attribution_is_the_collectors(self):
        """ObservedRun reports the collector's attribution, over two windows
        on one env: the second window's deltas start where the first's end."""
        run = ObservedRun(make_env(n_cores=8), tracer=True)
        system = open_system("p2kvs", run.env, workers=2)
        ops = list(fillrandom(600, value_size=112, seed=4))
        for window in (ops[:300], ops[300:]):
            since = len(run.tracer.rows)
            metrics = run.closed_loop(system, split_stream(window, 4))
            assert run.attribution is metrics.attribution
            assert run.window == (run.window[0], metrics.finished_at)
            assert_same_attribution(
                run.attribution, fig06_from_spans(run.env, run.window, since)
            )
        assert since > 0

    def test_metrics_attribution_only_with_tracer(self):
        args = dbbench.build_parser().parse_args(
            ["--num", "300", "--threads", "2", "--workers", "2",
             "--cores", "8", "--benchmarks", "fillrandom"]
        )
        result = dbbench.run_benchmark("fillrandom", args)
        assert result["qps"] > 0 and "latency_attribution" not in result


class TestMetricsCollectorContract:
    def test_overlapping_collectors_assert(self):
        from repro.harness.metrics import MetricsCollector

        env = make_env(n_cores=4)
        first = MetricsCollector(env, "a")
        first.start()
        second = MetricsCollector(env, "b")
        with pytest.raises(AssertionError):
            second.start()
        first.finish(n_ops=0, user_bytes_written=0.0, memory_bytes=0)
        # sequential windows are fine once the first has finished
        second.start()
        second.finish(n_ops=0, user_bytes_written=0.0, memory_bytes=0)

    def test_restart_same_collector_is_allowed(self):
        from repro.harness.metrics import MetricsCollector

        env = make_env(n_cores=4)
        collector = MetricsCollector(env, "a")
        collector.start()
        collector.start()  # idempotent re-start of the active collector


class TestCliTraceOut:
    def test_dbbench_trace_out(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = dbbench.main(
            ["--num", "400", "--threads", "2", "--workers", "2",
             "--cores", "8", "--system", "p2kvs",
             "--benchmarks", "fillrandom", "--trace-out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "latency attribution" in printed
        assert str(out) in printed
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_dbbench_trace_out_multiple_benchmarks(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = dbbench.main(
            ["--num", "300", "--threads", "2", "--workers", "2",
             "--cores", "8", "--benchmarks", "fillrandom,readrandom",
             "--trace-out", str(out)]
        )
        assert rc == 0
        for name in ("fillrandom", "readrandom"):
            per = tmp_path / ("t-%s.json" % name)
            assert per.exists(), name
            assert json.loads(per.read_text())["traceEvents"]

    def test_ycsb_trace_out(self, tmp_path, capsys):
        from repro.tools import ycsb

        out = tmp_path / "y.json"
        rc = ycsb.main(
            ["--workload", "A", "--records", "300", "--ops", "300",
             "--threads", "2", "--workers", "2", "--cores", "8",
             "--system", "p2kvs", "--trace-out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["traceEvents"]


# ---------------------------------------------------------------------------
# Differential recorder test: the row-storing tracer against one that keeps
# an object and an args dict per span (the parent's recorder, kept here as
# the oracle), and the retention gate the rows exist for
# ---------------------------------------------------------------------------


class ListSpan:
    """A span handle, the API production code no longer has, kept as the
    reference: opened by ``begin()``, its args merged by ``set()`` and
    ``finish()``, the object itself recorded at ``finish()``."""

    __slots__ = ("name", "cat", "track", "start", "end", "args", "aid", "_tracer")

    def __init__(self, tracer, name, cat, track, start, args, aid=None, end=None):
        self._tracer, self.name, self.cat, self.track = tracer, name, cat, track
        self.start, self.end, self.args, self.aid = start, end, args, aid

    @property
    def finished(self):
        return self.end is not None

    def set(self, **args):
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self

    def finish(self, **args):
        if self.end is None:
            if args:
                self.set(**args)
            self.end = self._tracer.sim._now
            self._tracer.record(self)
        return self


class ListTracer:
    """Reference recorder: every span an object in ``events``, its arguments
    a dict; ``rows``/``records``/``spans`` present it to the consumers,
    which read rows."""

    enabled = True

    def __init__(self, sim, max_events=2_000_000):
        self.sim, self.max_events = sim, max_events
        self.events, self.dropped, self.aids = [], 0, count(1)

    def begin(self, name, cat, track, args=None, aid=None):
        return ListSpan(self, name, cat, track, self.sim._now, args, aid)

    def async_begin(self, name, cat, track, args=None):
        return self.begin(name, cat, track, args, next(self.aids))

    def complete(self, name, cat, track, start, end, keys=None, vals=(), aid=None):
        args = None if keys is None else dict(zip(keys, vals))
        self.record(ListSpan(self, name, cat, track, start, args, aid, end))

    def instant(self, name, cat, track, keys=None, vals=()):
        self.complete(name, cat, track, self.sim._now, self.sim._now, keys, vals)

    def burst(self, category, core_track, thread, start, end, track, duration):
        self.complete(category, "core", core_track, start, end, ("thread",), (thread,))
        if duration > 0:
            self.complete(category, "busy", track, end - duration, end)

    def record(self, span):
        if len(self.events) >= self.max_events:
            self.dropped += 1
        else:
            self.events.append(span)

    def clear(self):
        self.events, self.dropped = [], 0

    rows = property(lambda self: self.events * Tracer.WIDTH)  # for len()
    spans = property(lambda self: self.events.__iter__)

    def records(self, since=0):
        spans = self.events[since // Tracer.WIDTH:]
        return [(s.name, s.cat, s.track, s.start, s.end, s.aid, None) for s in spans]


def span_rows(tracer):
    return [
        (s.name, s.cat, s.track, s.start, s.end, s.args, s.aid) for s in tracer.events
    ]


_label = st.sampled_from(["a", "b"])
_track = st.sampled_from(["t:0", "t:1", "u:0"])
_value = st.one_of(
    st.integers(0, 3), st.dictionaries(st.sampled_from("xy"), st.floats(0, 1))
)
_some_args = st.dictionaries(st.sampled_from(["k", "n", "v"]), _value, max_size=3)
_args = st.one_of(st.none(), _some_args)
_trace_op = st.one_of(
    st.tuples(st.just("tick")),
    st.tuples(st.sampled_from(["begin", "async_begin"]), _label, _track, _args),
    st.tuples(st.just("set"), st.integers(0, 7), _some_args),
    st.tuples(st.just("finish"), st.integers(0, 7), _some_args),
    st.tuples(st.sampled_from(["complete", "instant"]), _label, _track, _args),
    st.tuples(st.just("burst"), _label, _track, st.sampled_from([0.0, 0.25])),
    st.tuples(st.just("clear")),
)


class _OpenSpan:
    """What a production site keeps in locals between a span's start and
    its end, here for the ops ``_drive`` sends the row writer."""

    def __init__(self, tracer, name, track, args, is_async):
        self.tracer, self.name, self.track, self.args = tracer, name, track, args
        self.start, self.done = tracer.sim._now, False
        self.aid = next(tracer.aids) if is_async else None

    def set(self, **args):
        self.args = dict(self.args or {}, **args)

    def finish(self, **args):
        tracer = self.tracer
        if not self.done:
            if args:
                self.set(**args)
            keys = None if self.args is None else tuple(self.args)
            vals = () if self.args is None else tuple(self.args.values())
            tracer.complete(self.name, "c", self.track, self.start, tracer.sim._now,
                            keys, vals, self.aid)
            self.done = True


def _drive(tracer_cls, ops, cap):
    """Run ``ops`` against a fresh recorder on a hand-cranked clock: the
    reference through its span handles, the row tracer through the one-call
    writer a site calls where the span ends."""
    sim = SimpleNamespace(_now=0.0)
    tracer, handles = tracer_cls(sim, max_events=cap), []
    rows = tracer_cls is Tracer
    for op in ops:
        if op[0] == "tick":
            sim._now += 0.5
        elif op[0] in ("begin", "async_begin"):
            args = None if op[3] is None else dict(op[3])  # set() mutates it
            if rows:
                handles.append(_OpenSpan(tracer, op[1], op[2], args, op[0] == "async_begin"))
            else:
                handles.append(getattr(tracer, op[0])(op[1], "c", op[2], args))
        elif op[0] in ("set", "finish") and handles:
            handle = handles[op[1] % len(handles)]
            # A second finish() is a no-op on both; set() after finish() is
            # not driven (the reference's handle would rewrite its record).
            if op[0] == "finish":
                handle.finish(**op[2])
            elif not (handle.done if rows else handle.finished):
                handle.set(**op[2])
        elif op[0] in ("complete", "instant"):
            keys = None if op[3] is None else tuple(op[3])
            vals = () if op[3] is None else tuple(op[3].values())
            when = (sim._now - 0.25, sim._now) if op[0] == "complete" else ()
            getattr(tracer, op[0])(op[1], "c", op[2], *when, keys, vals)
        elif op[0] == "burst":
            tracer.burst(op[1], op[2], "th", sim._now - 0.5, sim._now, "t:th", op[3])
        elif op[0] == "clear":
            tracer.clear()
    return tracer


@settings(max_examples=300, deadline=None)
@given(st.lists(_trace_op, max_size=40), st.sampled_from([0, 1, 5, 2_000_000]))
def test_rows_record_what_the_object_list_recorded(ops, cap):
    rows, objects = _drive(Tracer, ops, cap), _drive(ListTracer, ops, cap)
    assert span_rows(rows) == span_rows(objects)
    assert rows.dropped == objects.dropped
    assert len(rows.rows) == len(objects.rows) <= cap * Tracer.WIDTH
    assert json.dumps(to_chrome_events(rows)) == json.dumps(to_chrome_events(objects))


def test_a_record_is_what_the_span_was_at_finish():
    """A row holds the values its site passed when the span ended: a
    container changed afterwards does not rewrite it (the object list
    recorded the handle itself, which a late set() could)."""
    tracer = Tracer(SimpleNamespace(_now=1.0))
    vals = [1, 2]
    tracer.complete("a", "c", "t:0", 0.5, 1.0, ("n", "k"), vals)
    vals.append(3)
    vals[0] = 9
    assert span_rows(tracer) == [("a", "c", "t:0", 0.5, 1.0, {"n": 1, "k": 2}, None)]


@pytest.mark.no_sanitize
@settings(max_examples=100, deadline=None)
@given(_program, st.one_of(st.none(), st.integers(0, 3)), st.sampled_from([0, 1, 9, 10**6]))
def test_kernel_spans_are_the_same_rows(program, seed, cap):
    """The kernel's own call sites (CPU bursts, waits, device IOs), driven by
    test_sim_core's program generator."""
    seen = []

    def installer(cls):
        def install(sim):
            sim.tracer = cls(sim, max_events=cap)
            seen.append(sim.tracer)

        return install

    results = [
        _run_program(program, Simulator, (installer(cls),), seed)
        for cls in (Tracer, ListTracer)
    ]
    assert results[0] == results[1]
    assert span_rows(seen[0]) == span_rows(seen[1])
    assert seen[0].dropped == seen[1].dropped


def _observed_fill(observe):
    """A 2 000-op p2kvs-8 fill over 16 threads, ready to run; with
    ``observe`` under tracer, edge log and a 0.1 ms sampler."""
    env = make_env()
    planes = None
    if observe:
        planes = install_tracer(env), install_edgelog(env)
        install_stats(env, interval_ms=0.1)
    system = open_system("p2kvs", env, workers=8)
    return env, system, split_stream(list(fillrandom(2000, seed=3)), 16), planes


def _retained_growth(observe):
    """GC-tracked objects a 2 000-op p2kvs-8 fill leaves behind, the
    collector paused so nothing is untracked or freed behind the count."""
    env, system, streams, planes = _observed_fill(observe)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        run_closed_loop(env, system, streams)
        if observe:  # every view built once: a cache would keep them
            assert len(planes[0].events) == len(planes[0].rows) // Tracer.WIDTH
            assert all(map(planes[1].edge, range(planes[1].n_edges)))
        return len(gc.get_objects()) - before, planes
    finally:
        gc.enable()


def test_observers_retain_no_tracked_object_per_record():
    """The gate the row storage exists for, host-independent: CPython's
    cyclic collector costs per tracked object, so a recorder must not leave
    one behind per record.  The object-list recorders left 1.03; the rows
    leave 0.004 (the sampler's series, mostly); the bound sits below the 0.03
    that keeping only the request spans' argument dicts would cost."""
    plain, _ = _retained_growth(observe=False)
    observed, (tracer, edgelog) = _retained_growth(observe=True)
    records = len(tracer.rows) // tracer.WIDTH + edgelog.n_edges + edgelog.n_resumes
    assert records > 50_000
    assert (observed - plain) / records < 0.01


#: the modules whose functions an observer record is paid for in.
OBSERVER_MODULES = ("repro.trace", "repro.critpath", "repro.sim.wakeup")
#: trace rows and wakeup edges of that fill: 16.97 and 8.06 a op.
ROWS, EDGES = 33_942, 16_123


@pytest.mark.no_sanitize
def test_an_observer_record_costs_about_one_call():
    """The observers' host cost, host-independent: Python calls into the
    observer modules per op of the fill.  Writing each record at the site
    that produces it — one tracer call per CPU burst, rows written in place,
    an edge stamped without a helper, a track bound only when its process
    changes — took them from 70.5 to 48.1 an op; a span written in one call
    where it ends, with no handle, and a request's perf counters passed flat
    took them to 36.4; deleting the per-request perf counters, so a request's
    row carries only its own keys, took them to 32.0.  The records themselves
    must not change."""
    env, system, streams, (tracer, edgelog) = _observed_fill(observe=True)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith(
            OBSERVER_MODULES
        ):
            calls += 1

    sys.setprofile(count)
    try:
        run_closed_loop(env, system, streams)
    finally:
        sys.setprofile(None)
    assert (len(tracer.rows) // tracer.WIDTH, edgelog.n_edges) == (ROWS, EDGES)
    assert calls / 2000 <= 33


@pytest.mark.no_sanitize
def test_an_unobserved_op_costs_what_it_did():
    """The other side of that gate: every Python call per op of the same
    fill with no observer installed (110.5; 141.5 before a one-writer group
    stopped paying for followers and the write path's dispatch steps became
    plain calls, 142.2 before its steps that cannot wait did), so no
    observer change moves work onto the workloads that run without one."""
    env, system, streams, _ = _observed_fill(observe=False)
    calls = count_calls(lambda: run_closed_loop(env, system, streams))
    assert calls / 2000 <= 111


@pytest.mark.no_sanitize
def test_an_unobserved_scan_costs_what_it_did():
    """The same count for perfbench's ``scan`` shape (p2KVS-8 YCSB-E, about
    7.7 sub-scans an op): 568.8 calls an op.  617.0 before a table cursor was
    built without a factory and probed the block cache itself, a merge's
    seek kept its own loop and a fork checked its statuses inline; 706.6
    before a memtable run became a slice, the join of a fork stopped
    building a closure per child, and a merge over cached blocks, a cached
    seek's landing and a sub-scan's completion stopped making calls they
    never needed."""
    env, system, streams = _ycsb_e(600)
    calls = count_calls(lambda: run_closed_loop(env, system, streams))
    assert calls / 600 <= 569


@pytest.mark.no_sanitize
def test_a_scan_over_sorted_levels_costs_what_it_did():
    """The same count on the shape the gate above never reaches: 16-thread
    RocksDB under YCSB-E over 6 000 records, where every sub-scan has a
    cursor over a level >= 1 (two L0 files, then L1 and L2): 73.94 calls an
    op; 102.59 while a level's cursor was a cursor over per-file cursors,
    delegating each step to the file's."""
    env = make_env()
    system = open_system("rocksdb", env)
    workload = YCSBWorkload("E", 6000, 112, 3)
    preload(env, system, list(workload.load_ops()), 8)
    streams = split_stream(list(workload.ops(600)), 16)
    levels = system.store.versions.current.levels
    assert levels[1] and levels[2]
    calls = count_calls(lambda: run_closed_loop(env, system, streams))
    assert system.store.versions.current.levels[1]
    assert calls / 600 <= 73.95


@pytest.mark.no_sanitize
def test_a_read_over_sorted_levels_costs_what_it_did():
    """The same count on the point-lookup path over levels >= 1: 16-thread
    RocksDB uniform reads over 6 000 random fills, where the tree holds two
    L0 files, then L1 and L2: 85.90 calls an op; 89.43 while a version held
    a copy of each table's metadata beside it and a lookup asked the version
    for the number of levels and for each level's list."""
    env = make_env()
    system = open_system("rocksdb", env)
    preload(env, system, list(fillrandom(6000, 112, 3)), 8)
    streams = split_stream(list(readrandom(1000, 6000, seed=4)), 16)
    levels = system.store.versions.current.levels
    assert levels[1] and levels[2]
    calls = count_calls(lambda: run_closed_loop(env, system, streams))
    levels = system.store.versions.current.levels
    assert levels[1] and levels[2]
    assert calls / 1000 <= 85.91


def _p2kvs_reads():
    """p2KVS-8 uniform point reads over 16 threads after 6 000 random fills,
    perfbench's ``read`` shape without its cold caches; ready to run."""
    env = make_env()
    system = open_system("p2kvs", env, workers=8)
    preload(env, system, list(fillrandom(6000, 112, 3)), 8)
    return env, system, split_stream(list(readrandom(1000, 6000, seed=4)), 16)


@pytest.mark.no_sanitize
def test_a_p2kvs_read_costs_what_it_did():
    """The same count on p2KVS's point-lookup path (user verb, request,
    worker, instance): 76.64 calls an op; 76.85 while a merged batch reached
    its class's step through a call that only picked it, 81.61 while a lone
    read completed inside a worker generator that only delegated to the
    engine's lookup and the user's ``get`` delegated to ``get_status``."""
    env, system, streams = _p2kvs_reads()
    calls = count_calls(lambda: run_closed_loop(env, system, streams))
    assert calls / 1000 <= 76.65


def count_generator_frames(run) -> int:
    """Generator frames created while ``run()`` runs: a ``call`` event on a
    generator's code for a frame not seen before (each resume is a ``call``
    too).  The frames are kept until the count ends, so no id is reused, and
    the collector is paused, so no generator left suspended by an earlier run
    is finalized (a ``call`` too) inside the count."""
    frames = {}

    def count(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & CO_GENERATOR:
            frames.setdefault(id(frame), frame)

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return len(frames)


def _ycsb_e(n):
    """p2KVS-8 under YCSB-E (95 % scans of up to 100 keys) after loading
    ``n`` * 20 / 3 records, perfbench's ``scan`` shape; ready to run."""
    env = make_env()
    system = open_system("p2kvs", env, workers=8)
    workload = YCSBWorkload("E", n * 20 // 3, 112, 3)
    preload(env, system, list(workload.load_ops()), 8)
    return env, system, split_stream(list(workload.ops(n)), 16)


@pytest.mark.no_sanitize
def test_a_storage_step_that_cannot_wait_is_a_call():
    """Generator frames created per op, host-independent.  A cursor step
    over cached blocks, a merge seek, a WAL with nothing to flush, a write
    with no backpressure and a sequence already published are plain calls
    that return ``()``; only a step that waits builds a generator.  Scan:
    119.38 -> 42.59 an op (five a sub-scan are the worker's, the engine's and
    the merge's own); the fill: 12.64 -> 9.95.  A step that only picks the
    next one (the harness's verb, the worker's batch class, the engine's
    put) returns that step's generator instead of delegating to it: scan
    42.59 -> 33.66, fill 9.95 -> 5.38.  A merge whose blocks are cached is a
    call, and a sub-scan's rows go straight back to the worker loop: scan
    33.66 -> 18.27.  A lone request completed by the worker loop from what
    its step returned, and a user verb that only builds its request
    returning the submit's generator: a p2KVS point read 6.62 -> 5.16, the
    fill 5.38 -> 4.93."""
    env, system, streams = _ycsb_e(600)
    frames = count_generator_frames(lambda: run_closed_loop(env, system, streams))
    assert frames / 600 <= 18.27
    env, system, streams, _ = _observed_fill(observe=False)
    frames = count_generator_frames(lambda: run_closed_loop(env, system, streams))
    assert frames / 2000 <= 4.94
    env, system, streams = _p2kvs_reads()
    frames = count_generator_frames(lambda: run_closed_loop(env, system, streams))
    assert frames / 1000 <= 5.16
