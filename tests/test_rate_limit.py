"""Tests for the SILK-style compaction rate limiter."""

import pytest

from repro.engine import LSMEngine, rocksdb_options
from tests.conftest import run_process


def key(i):
    return b"user%08d" % i


SHAPE = dict(
    write_buffer_size=2048,
    target_file_size=2048,
    max_bytes_for_level_base=8192,
    l0_compaction_trigger=2,
)


def run_load(env, limit):
    options = rocksdb_options(compaction_rate_limit=limit, **SHAPE)
    engine = run_process(env, LSMEngine.open(env, "db", options))
    ctx = env.cpu.new_thread("u")

    def work():
        for i in range(3000):
            yield from engine.put(ctx, key(i), b"v" * 100)

    run_process(env, work())
    # Closed loop: writers drain before run_process returns, so sim time is
    # the workload window (no post-window drain skews the rate).
    compaction_writes = env.device.bytes_by_kind().get("write:compaction", 0.0)
    return engine, compaction_writes / env.sim.now


class TestRateLimit:
    def test_cap_bounds_sustained_compaction_rate(self, env):
        limit = 20 * 1024 * 1024  # 20 MB/s
        engine, rate = run_load(env, limit)
        assert engine.counters.get("compactions") > 0
        assert rate <= limit * 1.25  # pacing granularity slack

    def test_unthrottled_runs_much_faster_than_a_tight_cap(self):
        from repro.engine.env import make_env

        env_free = make_env(n_cores=8)
        _, rate_free = run_load(env_free, None)
        env_tight = make_env(n_cores=8)
        _, rate_tight = run_load(env_tight, 10 * 1024 * 1024)
        assert rate_free > rate_tight

    def test_data_correct_under_throttling(self, env):
        options = rocksdb_options(
            compaction_rate_limit=10 * 1024 * 1024, **SHAPE
        )
        engine = run_process(env, LSMEngine.open(env, "db", options))
        ctx = env.cpu.new_thread("u")

        def work():
            for i in range(1200):
                yield from engine.put(ctx, key(i % 400), b"v%d" % i)
            out = []
            for i in (0, 200, 399):
                out.append((yield from engine.get(ctx, key(i))))
            return out

        assert run_process(env, work()) == [b"v800", b"v1000", b"v1199"]

    def test_default_is_unthrottled(self, env):
        engine = run_process(env, LSMEngine.open(env, "db", rocksdb_options()))
        assert engine.options.compaction_rate_limit is None
