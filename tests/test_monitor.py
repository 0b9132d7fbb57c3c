"""Tests for the online health-monitoring plane (repro.monitor).

Covers the promises docs/MONITOR.md makes: windowed telemetry semantics
(counter deltas, gauge reads, histogram-mean windows, bounded retention),
every alert rule's positive and negative fixtures (including the burn-rate
rule's fast-only / slow-only negatives), deterministic incident timelines
across reruns and ``--schedule-seed`` perturbation, zero page-severity
false positives on the pinned clean serve scenarios, and scored fault
detection (finite MTTD) through the faultbench campaign.
"""

import json

import pytest

from repro.engine import make_env
from repro.metrics.export import prometheus_text, timeseries_csv
from repro.metrics.registry import EventLog, StatsRegistry
from repro.metrics.sampler import Sampler
from repro.monitor import (
    EWMA,
    BurnRate,
    HealthMonitor,
    QueueSaturation,
    RateOfChange,
    SeriesTap,
    ShardSilence,
    Threshold,
    WindowStore,
    render_narrative,
    score_detection,
)
from repro.tools import faultbench, serve


# ---------------------------------------------------------------------------
# Windowed telemetry
# ---------------------------------------------------------------------------


class TestEWMA:
    def test_first_sample_initialises(self):
        ew = EWMA(alpha=0.5)
        assert ew.value is None
        assert ew.update(10.0) == 10.0

    def test_smoothing(self):
        ew = EWMA(alpha=0.5)
        ew.update(0.0)
        assert ew.update(8.0) == 4.0
        assert ew.update(8.0) == 6.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EWMA(alpha=0.0)
        with pytest.raises(ValueError):
            EWMA(alpha=1.5)


class TestSeriesTap:
    def test_counter_windows_to_deltas(self):
        box = {"v": 10.0}
        tap = SeriesTap("c", "counter", lambda: box["v"])
        tap.baseline()
        box["v"] = 25.0
        assert tap.observe() == 15.0
        box["v"] = 25.0
        assert tap.observe() == 0.0

    def test_counter_without_baseline_measures_from_zero(self):
        tap = SeriesTap("c", "counter", lambda: 7.0)
        assert tap.observe() == 7.0

    def test_gauge_reads_instantaneous(self):
        box = {"v": 3.0}
        tap = SeriesTap("g", "gauge", lambda: box["v"])
        assert tap.observe() == 3.0
        box["v"] = 0.0
        assert tap.observe() == 0.0

    def test_hist_mean_is_window_local(self):
        box = {"count": 2, "sum": 10.0}
        tap = SeriesTap("h", "hist_mean", lambda: (box["count"], box["sum"]))
        tap.baseline()
        box["count"], box["sum"] = 4, 30.0  # 2 new obs totalling 20
        assert tap.observe() == 10.0
        assert tap.observe() == 0.0  # empty window -> 0, not stale mean

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SeriesTap("x", "rate", lambda: 0)


class TestWindowStore:
    def test_retention_drops_oldest_and_counts(self):
        store = WindowStore(retention=3)
        for i in range(5):
            store.append("s", float(i), 1.0, float(i))
        assert store.values("s") == [2.0, 3.0, 4.0]
        assert store.dropped("s") == 2
        assert store.dropped() == 2
        assert store.window_count("s") == 5

    def test_last_and_ewma(self):
        store = WindowStore()
        assert store.last("s") is None
        assert store.ewma("s") is None
        store.append("s", 1.0, 1.0, 4.0)
        assert store.last("s") == 4.0
        assert store.ewma("s") == 4.0

    def test_summary_shape(self):
        store = WindowStore()
        store.append("a", 1.0, 1.0, 2.0)
        store.append("a", 2.0, 1.0, 6.0)
        digest = store.summary()["a"]
        assert digest["windows"] == 2
        assert digest["last"] == 6.0
        assert digest["max"] == 6.0
        assert digest["dropped"] == 0


# ---------------------------------------------------------------------------
# Alert rules (fixture-level: hand-built window stores)
# ---------------------------------------------------------------------------


def _feed(store, series, values, t0=0.0, dt=1.0):
    t = t0
    for v in values:
        t += dt
        store.append(series, t, dt, float(v))
    return t


class TestThresholdRule:
    def test_fires_after_consecutive_breaches(self):
        store = WindowStore()
        rule = Threshold("r", "s", limit=5, for_windows=2)
        _feed(store, "s", [7])
        assert rule.evaluate(store, 1.0) is None  # streak 1 of 2
        _feed(store, "s", [8], t0=1.0)
        state, evidence = rule.evaluate(store, 2.0)
        assert state == "fire"
        assert evidence["streak"] == 2
        assert len(evidence["windows"]) == 2

    def test_streak_resets_on_quiet_window(self):
        store = WindowStore()
        rule = Threshold("r", "s", limit=5, for_windows=2)
        for value in [7, 0, 7]:
            _feed(store, "s", [value])
            assert rule.evaluate(store, 0.0) is None

    def test_resolves_when_back_under(self):
        store = WindowStore()
        rule = Threshold("r", "s", limit=1)
        _feed(store, "s", [2])
        assert rule.evaluate(store, 1.0)[0] == "fire"
        _feed(store, "s", [0])
        assert rule.evaluate(store, 2.0)[0] == "resolve"

    def test_no_data_no_transition(self):
        assert Threshold("r", "s", limit=1).evaluate(WindowStore(), 0.0) is None


class TestQueueSaturationRule:
    def test_limit_is_fraction_of_cap(self):
        rule = QueueSaturation("q", "depth", cap=48, fraction=0.9)
        assert rule.limit == pytest.approx(43.2)
        assert rule.severity == "warn"

    def test_fires_only_when_pinned(self):
        store = WindowStore()
        rule = QueueSaturation("q", "depth", cap=10, fraction=0.9,
                               for_windows=2)
        _feed(store, "depth", [9])
        assert rule.evaluate(store, 1.0) is None
        _feed(store, "depth", [10])
        assert rule.evaluate(store, 2.0)[0] == "fire"


class TestRateOfChangeRule:
    def test_fires_on_spike_over_baseline(self):
        store = WindowStore()
        rule = RateOfChange("r", "lat", factor=3.0, baseline_windows=4)
        _feed(store, "lat", [1, 1, 1, 1])
        for _ in range(4):
            assert rule.evaluate(store, 0.0) is None
        _feed(store, "lat", [5])
        state, evidence = rule.evaluate(store, 5.0)
        assert state == "fire"
        assert evidence["baseline"] == 1.0

    def test_min_baseline_guards_wakeup_from_zero(self):
        store = WindowStore()
        rule = RateOfChange("r", "lat", factor=3.0, baseline_windows=2,
                            min_baseline=0.5)
        _feed(store, "lat", [0, 0, 100])
        assert rule.evaluate(store, 3.0) is None  # baseline 0 < min -> mute


class TestBurnRateRule:
    def _rule(self):
        # slo=0.9 -> budget 10%; burn 1.0 at exactly 10% errors.
        return BurnRate("b", "bad", "total", slo=0.9, burn=2.0,
                        fast_windows=2, slow_windows=4)

    def test_fires_when_both_lookbacks_burn(self):
        store, rule = WindowStore(), self._rule()
        _feed(store, "total", [10, 10, 10, 10])
        _feed(store, "bad", [2, 2, 2, 2])  # 20% errors = burn 2.0
        state, evidence = rule.evaluate(store, 4.0)
        assert state == "fire"
        assert evidence["burn_fast"] == pytest.approx(2.0)
        assert evidence["burn_slow"] == pytest.approx(2.0)

    def test_fast_only_blip_does_not_fire(self):
        store, rule = WindowStore(), self._rule()
        _feed(store, "total", [10, 10, 10, 10])
        _feed(store, "bad", [0, 0, 2, 2])  # fast burns 2.0, slow only 1.0
        assert rule.evaluate(store, 4.0) is None

    def test_slow_only_history_does_not_fire(self):
        store, rule = WindowStore(), self._rule()
        _feed(store, "total", [10, 10, 10, 10])
        _feed(store, "bad", [4, 4, 0, 0])  # slow burns 2.0, fast 0 (recovered)
        assert rule.evaluate(store, 4.0) is None

    def test_zero_traffic_burns_nothing(self):
        store, rule = WindowStore(), self._rule()
        _feed(store, "total", [0, 0])
        _feed(store, "bad", [0, 0])
        assert rule.evaluate(store, 2.0) is None

    def test_resolves_when_fast_window_recovers(self):
        store, rule = WindowStore(), self._rule()
        _feed(store, "total", [10, 10, 10, 10])
        _feed(store, "bad", [2, 2, 2, 2])
        assert rule.evaluate(store, 4.0)[0] == "fire"
        _feed(store, "total", [10, 10], t0=4.0)
        _feed(store, "bad", [0, 0], t0=4.0)
        assert rule.evaluate(store, 6.0)[0] == "resolve"


class TestShardSilenceRule:
    def test_never_fires_unarmed(self):
        store = WindowStore()
        rule = ShardSilence("w", "progress", for_windows=2)
        _feed(store, "progress", [0])
        for _ in range(5):
            assert rule.evaluate(store, 0.0) is None

    def test_fires_after_silence_and_resolves_on_progress(self):
        store = WindowStore()
        rule = ShardSilence("w", "progress", for_windows=2)
        _feed(store, "progress", [5])
        assert rule.evaluate(store, 1.0) is None  # armed
        _feed(store, "progress", [0])
        assert rule.evaluate(store, 2.0) is None  # silent 1 of 2
        _feed(store, "progress", [0])
        state, evidence = rule.evaluate(store, 3.0)
        assert state == "fire"
        assert evidence["silent_windows"] == 2
        _feed(store, "progress", [3])
        assert rule.evaluate(store, 4.0)[0] == "resolve"

    def test_guard_series_explains_the_quiet(self):
        store = WindowStore()
        rule = ShardSilence("w", "progress", for_windows=2,
                            unless_series="migrating")
        _feed(store, "progress", [5])
        _feed(store, "migrating", [0])
        assert rule.evaluate(store, 1.0) is None
        # Quiet windows during an active migration never count as silence.
        for t in (2.0, 3.0, 4.0):
            _feed(store, "progress", [0])
            _feed(store, "migrating", [1])
            assert rule.evaluate(store, t) is None
        # Migration over: the silence clock starts fresh.
        _feed(store, "progress", [0])
        _feed(store, "migrating", [0])
        assert rule.evaluate(store, 5.0) is None
        _feed(store, "progress", [0])
        _feed(store, "migrating", [0])
        assert rule.evaluate(store, 6.0)[0] == "fire"


# ---------------------------------------------------------------------------
# HealthMonitor end-to-end on the simulator
# ---------------------------------------------------------------------------


def _run_monitored_sim(schedule_seed=None):
    """A tiny simulated workload: a counter that progresses then halts."""
    env = make_env(n_cores=2)
    if schedule_seed is not None:
        env.sim.perturb_schedule(schedule_seed)
    work = env.metrics.group("toy")
    mon = HealthMonitor(env, window=1e-3)
    mon.add_series("toy.work", "counter", lambda: work.get("work"))
    mon.add_rule(ShardSilence("toy-silence", "toy.work", for_windows=2))

    def workload():
        for _ in range(5):
            work.add("work", 3)
            yield env.sim.timeout(1e-3)
        # Go silent for 4 windows, then resume.
        yield env.sim.timeout(4e-3)
        work.add("work")
        yield env.sim.timeout(1e-3)
        mon.finish()

    env.sim.spawn(workload(), "toy")
    mon.start()
    env.sim.run()
    return mon


class TestHealthMonitor:
    def test_silence_fires_and_resolves(self):
        mon = _run_monitored_sim()
        assert [i.rule for i in mon.incidents] == ["toy-silence"]
        incident = mon.incidents[0]
        assert incident.resolved_at is not None
        assert incident.fired_at < incident.resolved_at

    def test_timeline_identical_across_reruns_and_seeds(self):
        base = json.dumps(_run_monitored_sim().timeline(), sort_keys=True)
        rerun = json.dumps(_run_monitored_sim().timeline(), sort_keys=True)
        perturbed = json.dumps(
            _run_monitored_sim(schedule_seed=7).timeline(), sort_keys=True
        )
        assert base == rerun == perturbed

    def test_finalize_synthesizes_silence_windows(self):
        env = make_env(n_cores=2)
        work = env.metrics.group("toy")
        mon = HealthMonitor(env, window=1e-3)
        mon.add_series("toy.work", "counter", lambda: work.get("work"))
        mon.add_rule(ShardSilence("toy-silence", "toy.work", for_windows=2))

        def workload():
            for _ in range(3):
                work.add("work")
                yield env.sim.timeout(1e-3)
            # Without a stop the ticker would run the heap forever; the
            # crash path (faultbench) instead aborts the whole sim.
            mon.finish()

        env.sim.spawn(workload(), "toy")
        mon.start()
        env.sim.run()
        # The sim is over ("crash"); the scraper keeps observing silence.
        n = mon.finalize(env.sim.now + 5e-3)
        assert n >= 2
        assert mon.synthetic_windows == n
        pages = mon.page_incidents()
        assert len(pages) == 1 and pages[0].synthetic

    def test_stop_drops_the_partial_window_and_finish_closes_it(self):
        def run(end):
            env = make_env(n_cores=2)
            mon = HealthMonitor(env, window=1.0)
            mon.add_series("g", "gauge", lambda: 1.0)

            def workload():
                yield env.sim.timeout(0.5)
                end(mon)

            env.sim.spawn(workload(), "toy")
            mon.start()
            env.sim.run()
            # Either way the pending tick is withdrawn: the run ends at 0.5.
            assert env.sim.now == 0.5 and not mon.running
            return mon

        assert run(HealthMonitor.stop).windows_observed == 0
        finished = run(HealthMonitor.finish)
        assert finished.windows_observed == 1
        assert finished.last_window_end == 0.5

    def test_alert_counts_split_severities(self):
        mon = _run_monitored_sim()
        counts = mon.alert_counts()
        assert counts == {"page": 1, "warn": 0}


def test_monitored_serve_ends_at_the_unmonitored_instant(tmp_path, monkeypatch, capsys):
    """The load driver finishes the monitor like the sampler: its pending
    tick is withdrawn, so a monitored — or fully observed — serve run leaves
    the sim clock where the plain run leaves it."""
    ends, finished = [], []
    real_load, real_finish = serve.run_service_load, HealthMonitor.finish

    def load(env, *args, **kwargs):
        facts = real_load(env, *args, **kwargs)
        ends.append(env.sim.now)
        return facts

    def finish(monitor):
        tick = monitor._tick
        real_finish(monitor)
        finished.append(all(entry[3] is not tick for entry in monitor.env.sim._heap))

    monkeypatch.setattr(serve, "run_service_load", load)
    monkeypatch.setattr(HealthMonitor, "finish", finish)
    base = ["--scenario", "uniform", "--ops", "300"]
    for extra in ([], ["--monitor"], [
        "--monitor", "--stats", "--stats-out", str(tmp_path / "stats"),
        "--critpath", "--critpath-out", str(tmp_path / "critpath"),
    ]):
        assert serve.main(base + extra) == 0
    assert ends == [pytest.approx(1.604155e-3, abs=1e-9)] * 3
    assert ends[1] == ends[2] == ends[0]
    assert finished == [True, True]  # no monitor tick left on the heap


class TestDetectionScoring:
    def test_clean_run_counts_pages_as_false_positives(self):
        mon = _run_monitored_sim()  # fires one (spurious) page
        report = score_detection(mon, None, "clean")
        assert report["detected"] is None
        assert report["false_positives"] == 1

    def test_faulted_run_scores_mttd(self):
        mon = _run_monitored_sim()
        injected_at = mon.incidents[0].fired_at - 1e-3
        report = score_detection(
            mon, {"injected_at": injected_at, "kind": "crash", "site": None},
            "faulted",
        )
        assert report["detected"] is True
        assert report["detected_by"] == "toy-silence"
        assert report["mttd_s"] == pytest.approx(1e-3)
        assert report["false_positives"] == 0

    def test_narrative_renders_fire_and_detection(self):
        mon = _run_monitored_sim()
        truth = {"injected_at": 0.005, "kind": "crash", "site": "wal"}
        text = render_narrative(
            mon.timeline(), score_detection(mon, truth, "x")
        )
        assert "toy-silence" in text
        assert "MTTD" in text


# ---------------------------------------------------------------------------
# Bounded metrics retention (EventLog + Sampler)
# ---------------------------------------------------------------------------


class TestEventLogBound:
    def test_cap_drops_new_entries_and_counts(self):
        log = EventLog(max_entries=2)
        t1 = log.begin("a", 1.0)
        t2 = log.begin("a", 2.0)
        t3 = log.begin("a", 3.0)
        assert (t1, t2, t3) == (0, 1, -1)
        assert log.dropped == 1
        log.end(t3, 4.0)  # dropped token: a no-op, not an IndexError
        assert len(log.entries) == 2

    def test_snapshot_surfaces_drop_count(self):
        registry = StatsRegistry()
        registry.events = EventLog(max_entries=1)
        registry.events.begin("a", 1.0)
        registry.events.begin("a", 2.0)
        assert registry.snapshot()["events_dropped"] == 1


class TestSamplerBound:
    def test_cap_evicts_oldest_rows(self):
        env = make_env(n_cores=2)
        sampler = Sampler(env, interval=1.0, max_samples=3)
        for _ in range(5):
            sampler.sample_once()
        assert len(sampler.samples) == 3
        assert sampler.dropped == 2

    def test_csv_carries_drop_comment_only_when_dropped(self):
        env = make_env(n_cores=2)
        env.metrics.gauge("g", lambda: 1.0)
        sampler = Sampler(env, interval=1.0, max_samples=2)
        sampler.sample_once()
        assert not timeseries_csv(sampler).startswith("#")
        for _ in range(3):
            sampler.sample_once()
        assert timeseries_csv(sampler).startswith("# dropped_samples=2")


class TestPrometheusShardLabels:
    def test_shard_metrics_collapse_into_labelled_family(self):
        registry = StatsRegistry()
        for shard in (0, 1):
            grp = registry.group("service.shard-%d" % shard)
            grp.add("completed", 10 + shard)
        registry.group("service").add("offered", 30)
        text = prometheus_text(registry)
        assert 'p2kvs_service_completed{shard="0"} 10' in text
        assert 'p2kvs_service_completed{shard="1"} 11' in text
        assert "p2kvs_service_shard_0_completed" not in text
        # One HELP/TYPE block for the family, not one per shard.
        assert text.count("# TYPE p2kvs_service_completed counter") == 1
        # Plain names are untouched.
        assert "p2kvs_service_offered 30" in text

    def test_shard_gauges_get_labels_too(self):
        registry = StatsRegistry()
        registry.gauge("service.shard-3.queue_depth", lambda: 7.0)
        text = prometheus_text(registry)
        assert 'p2kvs_service_queue_depth{shard="3"} 7' in text


# ---------------------------------------------------------------------------
# CLI integration: monitored serve scenarios + the faultbench scorecard
# ---------------------------------------------------------------------------

_MON_ARGS = ["--ops", "400", "--shards", "2", "--monitor"]


def _mon_args(tmp_path, tag, extra=()):
    return _MON_ARGS + ["--monitor-out", str(tmp_path / ("%s.json" % tag))] + list(extra)


class TestMonitorCLI:
    """The monitor runs as ``serve --monitor``: its document is
    ``--monitor-out``, ``--expect-clean`` and an undetected fault fail the run."""

    def test_document_byte_identical_across_reruns_and_seeds(
        self, tmp_path, capsys
    ):
        assert serve.main(_mon_args(tmp_path, "a")) == 0
        assert serve.main(_mon_args(tmp_path, "b")) == 0
        assert serve.main(
            _mon_args(tmp_path, "c", ["--schedule-seed", "7"])
        ) == 0
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert a == (tmp_path / "c.json").read_bytes()

    def test_pinned_clean_scenarios_raise_zero_pages(self, tmp_path, capsys):
        # The zero-false-positive contract, over all four pinned scenarios
        # (scaled down; the full-size runs back this in make smoke).
        for scenario in ("uniform", "hotkey", "migration", "diurnal"):
            argv = _mon_args(tmp_path, scenario) + [
                "--scenario", scenario, "--ops", "600", "--expect-clean",
            ]
            assert serve.main(argv) == 0, scenario
            document = json.loads(
                (tmp_path / ("%s.json" % scenario)).read_text()
            )
            assert document["health"]["alerts"]["page"] == 0, scenario
            assert document["detection"]["false_positives"] == 0, scenario

    def test_fault_run_scores_detection(self, tmp_path, capsys):
        argv = _mon_args(tmp_path, "fault") + ["--fault-rate", "0.02"]
        assert serve.main(argv) == 0
        detection = json.loads((tmp_path / "fault.json").read_text())["detection"]
        assert detection["detected"] is True
        assert detection["mttd_s"] > 0
        assert detection["ground_truth"]["kind"] == "device-fault"

    def test_expectations_fail_the_run(self, tmp_path, capsys, monkeypatch):
        from repro.tools import common

        real = common.score_detection

        def undetected(*args):
            return dict(real(*args), detected=False)

        monkeypatch.setattr(common, "score_detection", undetected)
        assert serve.main(_mon_args(tmp_path, "u", ["--fault-rate", "0.02"])) == 1
        assert "not detected" in capsys.readouterr().err
        monkeypatch.undo()
        # The injected fault pages, so the run is not clean.
        argv = _mon_args(tmp_path, "p", ["--fault-rate", "0.02", "--expect-clean"])
        assert serve.main(argv) == 1
        assert "expected a clean run" in capsys.readouterr().err

    def test_replay_renders_narrative(self, tmp_path, capsys):
        # The written document is enough to re-render the narrative the run
        # printed: a round trip through the JSON.
        assert serve.main(_mon_args(tmp_path, "r", ["--fault-rate", "0.02"])) == 0
        printed = capsys.readouterr().out
        document = json.loads((tmp_path / "r.json").read_text())
        narrative = render_narrative(document["health"], document["detection"])
        assert "monitor:" in narrative and "detection:" in narrative
        assert narrative in printed

    def test_serve_embeds_health_block(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert serve.main([
            "--scenario", "uniform", "--shards", "2", "--ops", "300",
            "--monitor", "--json", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["health"]["windows_observed"] > 0
        assert set(report["health"]["alerts"]) == {"page", "warn"}
        assert "service.completed" in report["health"]["series"]
        assert report["detection"]["false_positives"] == 0


class TestFaultbenchDetection:
    def test_transient_and_crash_scenarios_detect(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        rc = faultbench.main([
            "--fault-seed", "7",
            "--scenario", "engine-nvme-transient",
            "--scenario", "engine-nvme-crash-wal-append",
            "--out", str(out),
        ])
        assert rc == 0
        campaign = json.loads(out.read_text())
        assert campaign["detection_summary"]["n_scored"] == 2
        assert campaign["detection_summary"]["n_detected"] == 2
        by_name = {r["detection"]["scenario"]: r["detection"]
                   for r in campaign["scenarios"]}
        transient = by_name["engine-nvme-transient"]
        assert transient["detected_by"] == "device-error-rate"
        crash = by_name["engine-nvme-crash-wal-append"]
        assert crash["detected_by"] == "shard-silence"
        for d in by_name.values():
            assert d["mttd_s"] > 0
            assert d["false_positives"] == 0
