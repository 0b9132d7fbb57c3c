"""Tests for the experiment harness: systems, runners, metrics windows."""

import pytest

from repro.engine import make_env, rocksdb_options
from repro.harness import (
    KVellSystem,
    Metrics,
    MetricsCollector,
    MultiInstanceSystem,
    P2KVSSystem,
    ShapeCheck,
    SingleInstanceSystem,
    WiredTigerSystem,
    open_system,
    preload,
    run_closed_loop,
    run_open_loop,
)
from repro.harness.paper import CLAIMS
from repro.metrics import install_stats
from repro.monitor import attach_store_monitor
from repro.systems import BENCH_SHAPE
from repro.workloads import fillrandom, make_key, readrandom, split_stream


def small_opts():
    return rocksdb_options(**{**BENCH_SHAPE, "write_buffer_size": 16 * 1024})


class TestSystems:
    def test_single_instance_executes_all_verbs(self, env):
        system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
        ops = [
            ("insert", make_key(1), b"v1"),
            ("update", make_key(1), b"v2"),
            ("read", make_key(1), None),
            ("rmw", make_key(1), b"v3"),
            ("scan", make_key(0), 5),
            ("range", make_key(0), make_key(9)),
        ]
        metrics = run_closed_loop(env, system, [ops])
        assert metrics.n_ops == len(ops)
        assert metrics.qps > 0

    def test_unknown_verb_raises(self, env):
        system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
        with pytest.raises(ValueError):
            run_closed_loop(env, system, [[("explode", b"k", None)]])

    def test_multi_instance_routes_by_thread(self, env):
        system = open_system(env, MultiInstanceSystem.open(env, 2, small_opts))
        streams = split_stream(fillrandom(100), 2)
        run_closed_loop(env, system, streams)
        assert all(
            e.counters.get("write_requests") > 0 for e in system.engines
        )

    def test_p2kvs_system_sync_and_async(self, env):
        sync = open_system(env, P2KVSSystem.open(env, n_workers=2))
        m1 = run_closed_loop(env, sync, split_stream(fillrandom(200), 4))
        assert m1.n_ops == 200

        env2 = make_env(n_cores=8)
        async_sys = open_system(
            env2, P2KVSSystem.open(env2, n_workers=2, async_window=16)
        )
        m2 = run_closed_loop(env2, async_sys, split_stream(fillrandom(200), 4))
        assert m2.n_ops == 200
        # Async latencies recorded via the completion callbacks.
        assert m2.latency_of("write").count == 200

    def test_kvell_system(self, env):
        system = open_system(env, KVellSystem.open(env, n_workers=2))
        metrics = run_closed_loop(env, system, split_stream(fillrandom(150), 4))
        assert metrics.n_ops == 150
        assert system.memory_bytes() > 0

    def test_wiredtiger_system(self, env):
        system = open_system(env, WiredTigerSystem.open(env))
        metrics = run_closed_loop(env, system, split_stream(fillrandom(100), 2))
        assert metrics.n_ops == 100


class TestRunners:
    def test_preload_not_measured(self, env):
        system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
        preload(env, system, fillrandom(300), n_threads=4)
        metrics = run_closed_loop(
            env, system, split_stream(readrandom(100, 300), 2)
        )
        # The measured window contains only the reads.
        assert metrics.n_ops == 100
        assert metrics.user_bytes_written == 0

    def test_latency_recorded_per_class(self, env):
        system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
        preload(env, system, fillrandom(100), n_threads=2)
        ops = [("read", make_key(1), None), ("insert", make_key(999), b"v")]
        metrics = run_closed_loop(env, system, [ops])
        assert metrics.latency_of("read").count == 1
        assert metrics.latency_of("write").count == 1
        assert metrics.avg_latency > 0
        assert metrics.p99_latency >= metrics.avg_latency * 0.5

    def test_open_loop_offered_rate_controls_duration(self, env):
        system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
        ops = list(fillrandom(200))
        metrics = run_open_loop(env, system, ops, rate=100_000)
        # 200 ops at 100 KQPS: the run spans ~2 ms of simulated time.
        assert 0.5e-3 < metrics.elapsed < 20e-3
        assert metrics.latency_of("write").count == 200

    def test_open_loop_brackets_the_observers(self):
        """An open-loop window starts and finishes the installed sampler and
        health monitor, as a closed-loop one does, without moving the run."""

        def run(observe):
            env = make_env(n_cores=8)
            system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
            observers = (install_stats(env, interval_ms=0.05),
                         attach_store_monitor(env)) if observe else ()
            metrics = run_open_loop(env, system, list(fillrandom(400)), rate=200_000)
            return metrics.elapsed, env.sim.now, observers

        elapsed, end, (sampler, monitor) = run(observe=True)
        assert (elapsed, end) == run(observe=False)[:2]
        assert len(sampler.samples) > 10 and monitor.windows_observed > 5
        assert sampler.samples[-1][0] == monitor.samples[-1][0] == end
        assert not sampler.running and not monitor.running

    def test_write_amplification_positive_under_writes(self, env):
        system = open_system(env, SingleInstanceSystem.open(env, small_opts()))
        metrics = run_closed_loop(env, system, split_stream(fillrandom(2000), 4))
        assert metrics.write_amplification > 1.0
        assert metrics.io_amplification >= metrics.write_amplification
        assert 0 < metrics.bandwidth_utilization < 1.5
        assert metrics.cpu_utilization > 0


class TestRunCase:
    """benchmarks.common.run_case, the figure suite's one case path."""

    def test_a_case_that_raises_releases_the_measuring_slot(self):
        from benchmarks.common import open_case, run_case

        system, env = open_case("rocksdb")
        with pytest.raises(ValueError):
            run_case(system, [("explode", b"k", None)], 1, env=env)
        assert env._active_collector is None
        # The next window on the same env starts cleanly, preload included.
        metrics, _ = run_case(
            system, readrandom(50, 100), 2, env=env, preload=fillrandom(100)
        )
        assert metrics.n_ops == 50

    def test_open_loop_case_is_scoped_too(self):
        from benchmarks.common import open_case, run_case

        system, env = open_case("rocksdb")
        with pytest.raises(ValueError):
            run_case(system, [("explode", b"k", None)], None, env=env, rate=1e5)
        assert env._active_collector is None
        metrics, _ = run_case(system, fillrandom(50), None, env=env, rate=1e5)
        assert metrics.latency_of("write").count == 50

    def test_engine_overrides_reach_the_engine_and_stay_strict(self):
        from benchmarks.common import FIGURE_ENGINE, open_case

        system, _ = open_case("rocksdb", engine={"pipelined_write": False})
        assert system.engine.options.pipelined_write is False
        assert system.engine.options.block_cache_bytes == FIGURE_ENGINE["block_cache_bytes"]
        with pytest.raises(ValueError, match="engine"):
            open_case("kvell", engine={"pipelined_write": False})


class TestAssertShapes:
    """benchmarks.common.assert_shapes holds a figure to the claims table."""

    def test_a_missing_or_extra_claim_fails_before_anything_is_written(
        self, tmp_path, monkeypatch
    ):
        import benchmarks.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
        checks = [
            ShapeCheck(key, 1.0, 1.0)
            for key, claim in CLAIMS.items()
            if claim.figure == "fig12"
        ]
        with pytest.raises(ValueError, match=checks[-1].claim):
            common.assert_shapes("fig12", checks[:-1])
        for extra in ("fig05.pinning", "fig12.no_such_claim"):
            with pytest.raises(ValueError, match=extra):
                common.assert_shapes("fig12", checks + [ShapeCheck(extra, 1.0, 1.0)])
        assert list(tmp_path.iterdir()) == []
        common.assert_shapes("fig12", checks)
        assert (tmp_path / "fig12.checks.txt").exists()


class TestMetricsCollector:
    def test_window_deltas_only(self, env):
        collector = MetricsCollector(env, "x")

        def burn():
            ctx = env.cpu.new_thread("t")
            yield env.device.write(1000, category="wal")
            yield env.cpu.exec(ctx, 1e-3)

        env.sim.spawn(burn())
        env.sim.run()
        collector.start()  # everything above is outside the window

        def more():
            yield env.device.write(500, category="flush")

        env.sim.spawn(more())
        env.sim.run()
        metrics = collector.finish(n_ops=1, user_bytes_written=100, memory_bytes=0)
        assert metrics.device_write_bytes == 500
        assert metrics.device_bytes.get("flush") == 500
        assert metrics.device_bytes.get("wal", 0) == 0

    def test_memory_peak_tracked(self, env):
        collector = MetricsCollector(env, "x")
        collector.start()
        collector.note_memory(100)
        collector.note_memory(5000)
        collector.note_memory(200)
        metrics = collector.finish(1, 0, memory_bytes=50)
        assert metrics.memory_bytes == 5000

    def test_zero_elapsed_guards(self, env):
        collector = MetricsCollector(env, "x")
        collector.start()
        metrics = collector.finish(0, 0, 0)
        assert metrics.qps == 0
        assert metrics.cpu_utilization == 0
        assert metrics.bandwidth_utilization == 0
        assert metrics.write_amplification == 0
