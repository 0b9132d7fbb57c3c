"""RANGE support across every system under test, via the harness verb."""

import pytest

from repro.baselines import KVellLike
from repro.harness import preload, run_closed_loop
from repro.systems import open_system
from repro.workloads import fillrandom, make_key
from tests.conftest import run_process

N_KEYS = 200


def build(env, kind):
    opts = {"workers": 2} if kind in ("multi", "p2kvs", "kvell") else {}
    return open_system(kind, env, **opts)


@pytest.mark.parametrize("kind", ["rocksdb", "p2kvs", "kvell", "wiredtiger"])
def test_range_verb_returns_bounded_sorted_pairs(env, kind):
    system = build(env, kind)
    preload(env, system, fillrandom(N_KEYS), n_threads=2)
    ops = [("range", make_key(50), make_key(59))]
    metrics = run_closed_loop(env, system, [ops])
    assert metrics.n_ops == 1
    assert metrics.latency_of("scan").count == 1


def test_kvell_range_query_contents(env):
    kvell = KVellLike(env, n_workers=3)
    ctx = env.cpu.new_thread("u")

    def work():
        for i in range(60):
            yield from kvell.put(ctx, make_key(i), b"v%d" % i)
        return (yield from kvell.range_query(ctx, make_key(10), make_key(14)))

    pairs = run_process(env, work())
    assert pairs == [(make_key(i), b"v%d" % i) for i in range(10, 15)]


def test_multi_instance_range_uses_thread_local_engine(env):
    system = build(env, "multi")
    preload(env, system, fillrandom(N_KEYS), n_threads=2)
    # Each thread only sees its own instance's keys — the paper's
    # multi-instance practice has no global range semantics.
    ops = [("range", make_key(0), make_key(199))]
    metrics = run_closed_loop(env, system, [ops])
    assert metrics.n_ops == 1
