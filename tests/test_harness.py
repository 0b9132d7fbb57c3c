"""Tests for the experiment harness: systems, runners, metrics windows."""

import pytest

from repro.engine import make_env, rocksdb_options
from repro.harness import (
    KVellSystem,
    Metrics,
    MetricsCollector,
    MultiInstanceSystem,
    P2KVSSystem,
    SingleInstanceSystem,
    WiredTigerSystem,
    open_system,
    preload,
    run_closed_loop,
    run_open_loop,
)
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
