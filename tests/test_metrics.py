"""Unit tests for the observability layer: the exact histogram, counter
groups, event log, the sim-time sampler, the exporters, and the collector
slot discipline (release / scoped_collector)."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import LSMEngine, make_env, rocksdb_options
from repro.harness.metrics import MetricsCollector, scoped_collector
from tests.conftest import run_process
from repro.metrics import (
    CounterGroup,
    EventLog,
    Histogram,
    Sampler,
    StatsRegistry,
    install_stats,
    prometheus_text,
    snapshot_json,
    timeseries_csv,
    write_stats_files,
)
from repro.metrics.export import BUCKET_BOUNDS
from repro.monitor import HealthMonitor
from repro.tools import dbbench, serve

# ---------------------------------------------------------------------------
# Histogram: exact samples, nearest-rank percentiles
# ---------------------------------------------------------------------------


def test_histogram_empty():
    h = Histogram()
    assert h.count == 0
    assert h.percentile(50) == 0.0
    assert h.p99 == 0.0
    assert h.mean == 0.0
    assert h.min == h.max == 0.0
    assert h.summary()["count"] == 0


def test_histogram_single_sample_is_exact():
    h = Histogram()
    h.record(3.5e-4)
    assert h.p50 == h.p99 == h.min == h.max == h.mean == 3.5e-4


def test_histogram_percentiles_are_recorded_samples():
    h = Histogram()
    for v in (3.2e-5, 1e-6, 8e-6, 2e-6, 1.6e-5, 4e-6):  # any arrival order
        h.record(v)
    # Nearest rank: ceil(p/100 * 6) -> ranks 3, 6, 6 of the sorted samples.
    assert (h.p50, h.p95, h.p99) == (4e-6, 3.2e-5, 3.2e-5)
    assert (h.min, h.max, h.count) == (1e-6, 3.2e-5, 6)
    assert h.sum == pytest.approx(6.3e-5)


def test_histogram_beyond_last_prometheus_bound_stays_exact():
    h = Histogram()
    huge = BUCKET_BOUNDS[-1] * 100.0
    h.record(1e-3)
    h.record(huge)
    assert h.p99 == h.max == huge
    assert h.cumulative(BUCKET_BOUNDS)[-1] == 1  # only +Inf holds it


def test_histogram_merge_matches_combined_recording():
    a, b, combined = Histogram(), Histogram(), Histogram()
    for i in range(1, 50):
        v = i * 1e-6
        (a if i % 2 else b).record(v)
        combined.record(v)
    assert a.merge(b) is a
    assert a.count == combined.count
    assert a.sum == pytest.approx(combined.sum)
    assert a.min == combined.min and a.max == combined.max
    assert a.summary() == combined.summary()


def test_histogram_merge_empty_cases():
    a, b = Histogram(), Histogram()
    a.merge(b)  # empty into empty
    assert a.count == 0
    b.record(2.0e-6)
    a.merge(b)  # non-empty into empty
    assert (a.min, a.max, a.count, a.sum) == (2.0e-6, 2.0e-6, 1, 2.0e-6)
    b.merge(Histogram())  # empty into non-empty is a no-op
    assert b.count == 1


_SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=60
)


@given(xs=_SAMPLES, p=st.floats(min_value=0.0, max_value=100.0))
def test_histogram_percentile_is_nearest_rank(xs, p):
    h = Histogram()
    for x in xs:
        h.record(x)
    if not xs:
        assert h.percentile(p) == 0.0
        return
    assert h.percentile(p) == sorted(xs)[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


@given(a=_SAMPLES, b=_SAMPLES)
def test_histogram_merge_equals_recording_both(a, b):
    merged, direct = Histogram(), Histogram()
    other = Histogram()
    for x in a:
        merged.record(x)
        direct.record(x)
    for x in b:
        other.record(x)
        direct.record(x)
    merged.merge(other)
    assert merged.count == direct.count == len(a) + len(b)
    assert merged.sum == pytest.approx(direct.sum)
    for p in (0, 50, 95, 99, 99.9, 100):
        assert merged.percentile(p) == direct.percentile(p)
    assert (merged.min, merged.max) == (direct.min, direct.max)


@given(xs=st.lists(st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
                   max_size=60))
def test_prometheus_buckets_match_brute_force(xs):
    reg = StatsRegistry()
    hist = reg.histogram("lat")
    for x in xs:
        hist.record(x)
    text = prometheus_text(reg)
    lines = [l for l in text.splitlines() if l.startswith("p2kvs_lat_bucket")]
    counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
    assert counts[:-1] == [sum(1 for x in xs if x <= b) for b in BUCKET_BOUNDS]
    assert counts == sorted(counts)  # cumulative, monotone
    assert lines[-1] == 'p2kvs_lat_bucket{le="+Inf"} %d' % len(xs)
    assert "p2kvs_lat_count %d" % len(xs) in text


# ---------------------------------------------------------------------------
# CounterGroup / registry
# ---------------------------------------------------------------------------


def test_counter_group_api_and_registry_expansion():
    reg = StatsRegistry()
    grp = reg.group("engine.db-0")
    grp.add("flushes")
    grp.add("wal_bytes", 4096)
    assert grp.get("flushes") == 1.0
    assert grp.get("missing") == 0.0
    assert grp.as_dict() == {"flushes": 1.0, "wal_bytes": 4096.0}
    reg.group("obm").add("rebalances", 2)
    values = reg.counter_values()
    assert values["engine.db-0.flushes"] == 1.0
    assert values["engine.db-0.wal_bytes"] == 4096.0
    assert values["obm.rebalances"] == 2.0
    assert list(values) == sorted(values)  # export order is sorted


def test_registry_group_fresh_replaces_after_reopen():
    reg = StatsRegistry()
    reg.group("engine.db-0").add("flushes", 7)
    assert reg.group("engine.db-0").get("flushes") == 7.0  # get-or-create
    fresh = reg.group("engine.db-0", fresh=True)  # simulated crash+reopen
    assert fresh.get("flushes") == 0.0
    assert reg.counter_values().get("engine.db-0.flushes", 0.0) == 0.0


def test_registry_histogram_fresh_and_gauges():
    reg = StatsRegistry()
    reg.histogram("w.batch").record(1e-6)
    assert reg.histogram("w.batch").count == 1
    assert reg.histogram("w.batch", fresh=True).count == 0
    depth = [3]
    reg.gauge("q.depth", lambda: depth[0])
    assert reg.gauge_values() == {"q.depth": 3.0}
    depth[0] = 5
    assert reg.gauge_values() == {"q.depth": 5.0}


# ---------------------------------------------------------------------------
# EventLog
# ---------------------------------------------------------------------------


def test_event_log_begin_end_summary():
    log = EventLog()
    t0 = log.begin("write_stall", 1.0, engine="db-0")
    t1 = log.begin("compaction_backlog", 2.0)
    assert log.active_count() == 2
    assert log.active_count("write_stall") == 1
    log.end(t0, 1.5)
    assert log.active_count("write_stall") == 0
    summary = log.summary()
    assert summary["write_stall"] == {
        "count": 1, "total_seconds": 0.5, "active": 0,
    }
    assert summary["compaction_backlog"]["active"] == 1
    dicts = log.as_dicts()
    assert dicts[0]["duration"] == pytest.approx(0.5)
    assert dicts[0]["detail"] == {"engine": "db-0"}
    assert dicts[1]["end"] is None and dicts[1]["duration"] is None
    log.end(t1, 4.0)
    assert log.summary()["compaction_backlog"]["total_seconds"] == 2.0


def test_engine_stalls_land_in_event_log():
    """Write stalls and compaction backlog are recorded as begin/end events
    on the env's registry (the sampler output and checks.txt surface them)."""
    env = make_env(n_cores=4)
    options = rocksdb_options(
        write_buffer_size=1024,  # tiny memtable forces L0 pileup + stalls
        l0_compaction_trigger=2,
        l0_slowdown_trigger=3,
        l0_stop_trigger=4,
        target_file_size=1024,
        max_bytes_for_level_base=4096,
    )
    engine = run_process(env, LSMEngine.open(env, "db", options))

    def writer(t):
        ctx = env.cpu.new_thread("writer-%d" % t)
        for i in range(300):
            yield from engine.put(ctx, b"k%07d" % (t * 1000000 + i), b"v" * 100)

    for t in range(2):
        env.sim.spawn(writer(t), "w%d" % t)
    env.sim.run()
    summary = env.metrics.events.summary()
    assert summary["write_stall"]["count"] > 0
    assert summary["write_stall"]["total_seconds"] > 0.0
    assert "compaction_backlog" in summary
    # Every stall that began also ended, with a valid interval.
    for entry in env.metrics.events.as_dicts():
        if entry["kind"] == "write_stall":
            assert entry["end"] is not None
            assert entry["end"] >= entry["begin"]
            assert entry["detail"]["engine"] == "db"
            assert entry["detail"]["reason"]


# ---------------------------------------------------------------------------
# --stats on the service plane
# ---------------------------------------------------------------------------


def test_serve_stats_with_fault_retries_exports_them(tmp_path, capsys):
    # Observers on *and* faults on: the combination that once crashed, when
    # a retry counter was written to a per-request record with no slot for it.
    trace = tmp_path / "trace.json"
    assert serve.main([
        "--scenario", "uniform", "--shards", "2", "--ops", "300",
        "--key-space", "200", "--stats", "--fault-rate", "0.05",
        "--stats-out", str(tmp_path / "stats"), "--trace-out", str(trace),
    ]) == 0
    assert json.loads(trace.read_text())["traceEvents"]
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["counters"]["faults.io_retries"] > 0


def test_stats_leave_a_p2kvs_trace_byte_identical(tmp_path, capsys):
    """--stats exports the registry and the sampler; it writes nothing onto
    the trace, so a p2KVS request row's arguments are its own either way."""

    def trace(tag, extra=()):
        out = tmp_path / ("%s.json" % tag)
        assert dbbench.main([
            "--benchmarks", "fillrandom", "--system", "p2kvs", "--threads", "4",
            "--workers", "2", "--num", "500", "--trace-out", str(out), *extra,
        ]) == 0
        return out.read_bytes()

    observed = trace("stats", ["--stats", "--stats-out", str(tmp_path / "s")])
    assert observed == trace("plain")
    assert b'"request:PUT"' in observed


@pytest.mark.parametrize("scenario,monitor", [
    pytest.param(scenario, monitor, id=scenario + ("-monitor" if monitor else ""))
    for monitor in (False, True) for scenario in ("uniform", "hotkey", "migration")
])
def test_serve_stats_samples_the_window_without_moving_the_report(
        tmp_path, scenario, monitor):
    """``serve --stats`` starts the sampler over the measured window (it
    used to write a header-only CSV), and observing moves no SLO byte —
    with the health monitor ticking in the same window too, once the
    monitor's own ``health`` and ``detection`` keys are set aside."""

    def report(tag, extra=()):
        out = tmp_path / ("slo-%s.json" % tag)
        assert serve.main([
            "--scenario", scenario, "--shards", "4", "--ops", "300",
            "--key-space", "200", "--json", str(out), *extra,
        ]) == 0
        return out.read_bytes()

    stats = tmp_path / "stats"
    observed = report("stats", ["--stats", "--stats-interval-ms", "0.01",
                                "--stats-out", str(stats)]
                      + (["--monitor"] if monitor else []))
    if monitor:
        observed = json.loads(observed)
        assert observed.pop("health")["windows_observed"] > 0
        assert observed.pop("detection")["alerts"]["page"] == 0
        assert observed == json.loads(report("plain"))
    else:
        assert observed == report("plain")
    lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert lines[0].startswith("time,") and len(lines) > 10


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def _tick_env_with_gauge():
    env = make_env(n_cores=2)
    state = {"v": 0.0}
    env.metrics.gauge("test.v", lambda: state["v"])
    return env, state


def test_sampler_ticks_at_interval_and_stops():
    env, state = _tick_env_with_gauge()
    sampler = Sampler(env, interval=0.5)

    def driver():
        sampler.start()
        for i in range(5):
            state["v"] = float(i)
            yield env.sim.timeout(1.0)
        sampler.stop()

    env.sim.spawn(driver(), "driver")
    env.sim.run()  # must terminate: stopped ticker exits on wakeup
    times = [t for t, _row in sampler.samples]
    assert times == [pytest.approx(0.5 * k) for k in range(len(times))]
    assert len(times) >= 8
    assert "test.v" in sampler.column_names()


def _monitor_over_gauge(env, interval):
    monitor = HealthMonitor(env, window=interval)
    monitor.add_series("test.v", "gauge", env.metrics.gauges["test.v"].read)
    return monitor


#: The two periodic observers, built over ``_tick_env_with_gauge``'s gauge.
#: Both keep ``(t, row)`` rows in ``samples``: the monitor's first tick takes
#: its baselines, and each later one closes a window (one row).
OBSERVERS = {
    "sampler": lambda env, interval: Sampler(env, interval=interval),
    "monitor": _monitor_over_gauge,
}


def _row_times(observer):
    return [t for t, _row in observer.samples]


def _start_is_idempotent_and_restartable(kind):
    env, _state = _tick_env_with_gauge()
    observer = OBSERVERS[kind](env, 0.25)

    def driver():
        observer.start()
        observer.start()  # second start must not spawn a second ticker
        yield env.sim.timeout(1.0)
        observer.stop()
        yield env.sim.timeout(1.0)
        observer.start()  # a fresh ticker, same observer
        yield env.sim.timeout(0.6)
        observer.stop()

    env.sim.spawn(driver(), "driver")
    env.sim.run()
    times = _row_times(observer)
    assert times == sorted(times)
    assert len(times) == len(set(times))  # no duplicated ticks
    # A gap where the observer was stopped, then rows resume.
    assert any(b - a > 0.25 * 1.5 for a, b in zip(times, times[1:]))


def test_sampler_start_is_idempotent_and_restartable():
    _start_is_idempotent_and_restartable("sampler")


def test_monitor_start_is_idempotent_and_restartable():
    _start_is_idempotent_and_restartable("monitor")


@pytest.mark.parametrize("kind,restart", [
    pytest.param(kind, restart,
                 id=("" if kind == "sampler" else kind + "-") + str(restart))
    for kind in sorted(OBSERVERS, reverse=True) for restart in (None, 0.0, 0.3)
])
def test_sampler_finish_takes_the_last_row_and_leaves_the_clock(kind, restart):
    """``finish()`` adds the window's final row, and stopping withdraws the
    pending tick: the run ends at the model's last event.  A stop/start
    within one interval (``restart``: when) leaves one ticker, and the
    stopped ticker's tick never fires to move the clock either.  The same
    holds for both periodic observers."""
    env, _state = _tick_env_with_gauge()
    observer = OBSERVERS[kind](env, 0.4)

    def driver():
        observer.start()
        if restart is not None:
            yield env.sim.timeout(restart)
            observer.stop()
            observer.start()
            yield env.sim.timeout(0.05)
        else:
            yield env.sim.timeout(1.0)
        observer.finish()

    env.sim.spawn(driver(), "driver")
    env.sim.run()
    times = _row_times(observer)
    assert env.sim.now == times[-1]
    assert times == {
        ("sampler", None): [0.0, pytest.approx(0.4), pytest.approx(0.8), 1.0],
        ("sampler", 0.0): [0.0, 0.05],
        ("sampler", 0.3): [0.0, 0.3, pytest.approx(0.35)],
        ("monitor", None): [pytest.approx(0.4), pytest.approx(0.8), 1.0],
        ("monitor", 0.0): [0.05],
        ("monitor", 0.3): [pytest.approx(0.35)],
    }[kind, restart]


def test_sampler_rejects_nonpositive_interval():
    env, _state = _tick_env_with_gauge()
    with pytest.raises(ValueError):
        Sampler(env, interval=0.0)


def test_install_stats_installs_sampler():
    env = make_env(n_cores=2)
    assert env.metrics.sampler is None
    sampler = install_stats(env, interval_ms=2.0)
    assert env.metrics.sampler is sampler
    assert sampler.interval == pytest.approx(0.002)
    assert not sampler.running  # installed, not started


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _populated_registry():
    reg = StatsRegistry()
    reg.group("engine.db-0").add("flushes", 3)
    reg.group("obm").add("rebalances", 1)
    reg.gauge("obm.queue_depth", lambda: 4.0)
    reg.histogram("w0.batch").record(2e-6)
    reg.provider("device.bytes", lambda: {"wal": 100.0, "flush": 200.0})
    token = reg.events.begin("write_stall", 0.5)
    reg.events.end(token, 0.75)
    return reg


def test_snapshot_json_round_trips():
    doc = json.loads(snapshot_json(_populated_registry()))
    assert doc["counters"]["engine.db-0.flushes"] == 3.0
    assert doc["gauges"]["obm.queue_depth"] == 4.0
    assert doc["histograms"]["w0.batch"]["count"] == 1
    assert doc["providers"]["device.bytes"]["flush"] == 200.0
    assert doc["events"][0]["kind"] == "write_stall"
    assert doc["events"][0]["duration"] == pytest.approx(0.25)


def test_prometheus_text_format():
    text = prometheus_text(_populated_registry())
    assert "# HELP p2kvs_engine_db_0_flushes counter engine.db-0.flushes" in text
    assert "# TYPE p2kvs_engine_db_0_flushes counter" in text
    assert "p2kvs_engine_db_0_flushes 3" in text
    assert "# TYPE p2kvs_obm_queue_depth gauge" in text
    assert "# TYPE p2kvs_w0_batch histogram" in text
    assert 'p2kvs_w0_batch_bucket{le="+Inf"} 1' in text
    assert "p2kvs_w0_batch_sum " in text
    assert "p2kvs_w0_batch_count 1" in text
    assert text.endswith("\n")


def test_prometheus_histogram_buckets_are_cumulative():
    reg = StatsRegistry()
    hist = reg.histogram("lat")
    for v in (1e-6, 2e-6, 5e-6, 1e-3):
        hist.record(v)
    hist.record(1e12)  # beyond the last finite bound
    text = prometheus_text(reg)
    lines = [l for l in text.splitlines() if l.startswith("p2kvs_lat_bucket")]
    # One line per log-spaced bound, plus +Inf.
    assert len(lines) == len(BUCKET_BOUNDS) + 1
    counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
    assert counts == sorted(counts)  # cumulative, monotone
    assert counts[-2] == 4  # last finite bound: everything but the 1e12
    assert lines[-1] == 'p2kvs_lat_bucket{le="+Inf"} 5'
    assert "p2kvs_lat_count 5" in text
    # Byte-stable across repeated exports.
    assert prometheus_text(reg) == text


def test_timeseries_csv_shape():
    env, state = _tick_env_with_gauge()
    sampler = Sampler(env, interval=0.5)

    def driver():
        sampler.start()
        state["v"] = 7.0
        yield env.sim.timeout(1.2)
        sampler.stop()

    env.sim.spawn(driver(), "driver")
    env.sim.run()
    csv = timeseries_csv(sampler)
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "time"
    assert "test.v" in header  # alongside the machine gauges make_env adds
    assert len(lines) >= 3  # header + ticks at 0, 0.5, 1.0
    col = header.index("test.v")
    assert lines[2].split(",")[col] == "7"


def test_write_stats_files(tmp_path):
    env, _state = _tick_env_with_gauge()
    sampler = install_stats(env, interval_ms=500.0)

    def driver():
        sampler.start()
        yield env.sim.timeout(1.0)
        sampler.stop()

    env.sim.spawn(driver(), "driver")
    env.sim.run()
    base = str(tmp_path / "stats")
    paths = write_stats_files(env.metrics, base)
    assert sorted(paths) == ["csv", "json", "prom"]
    for path in paths.values():
        with open(path) as f:
            assert f.read().strip()
    # Without a sampler the CSV is skipped.
    bare = write_stats_files(StatsRegistry(), str(tmp_path / "bare"))
    assert sorted(bare) == ["json", "prom"]


# ---------------------------------------------------------------------------
# Collector slot discipline
# ---------------------------------------------------------------------------


def test_collector_overlap_asserts_and_release_frees_slot(env):
    a = MetricsCollector(env, "sys-a")
    a.start()
    b = MetricsCollector(env, "sys-b")
    with pytest.raises(AssertionError, match="active MetricsCollector"):
        b.start()
    a.release()
    b.start()  # slot is free again
    b.release()


def test_scoped_collector_releases_on_exception(env):
    with pytest.raises(RuntimeError):
        with scoped_collector(env, "sys") as c:
            c.start()
            raise RuntimeError("boom")
    assert getattr(env, "_active_collector", None) is None
    with scoped_collector(env, "sys2") as c2:
        c2.start()  # previous scope must not leak into this one


# ---------------------------------------------------------------------------
# Zero overhead with the edge log off (and on)
# ---------------------------------------------------------------------------


def _stats_outputs(with_edgelog):
    """Run a small write workload with stats on and return every exporter's
    output plus the final simulated clock."""
    from repro.critpath import install_edgelog

    env = make_env(n_cores=4)
    if with_edgelog:
        install_edgelog(env)
    install_stats(env)
    engine = run_process(env, LSMEngine.open(env, "db", rocksdb_options()))

    def writer():
        ctx = env.cpu.new_thread("writer")
        for i in range(200):
            yield from engine.put(ctx, b"k%07d" % i, b"v" * 100)

    env.sim.spawn(writer(), "w")
    env.sim.run()
    return {
        "now": env.sim.now,
        "prom": prometheus_text(env.metrics),
        "json": snapshot_json(env.metrics),
    }


def test_edgelog_does_not_change_metrics_exports():
    """Installing the critical-path edge log must not move simulated time or
    any exported metric: recording is pure observation (docs/CRITPATH.md's
    determinism contract, checked here at the exporter level)."""
    plain = _stats_outputs(with_edgelog=False)
    logged = _stats_outputs(with_edgelog=True)
    assert plain["now"] == logged["now"]
    assert plain["prom"] == logged["prom"]
    assert plain["json"] == logged["json"]
