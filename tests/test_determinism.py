"""End-to-end determinism: identical seeds give byte-identical results, and
seeded schedule perturbation must not change final DB state or metrics."""

import hashlib
import json

import pytest

from repro.analysis.perturb import (
    PerturbationMismatch,
    diff_paths,
    fingerprint,
    run_perturbed,
)
from repro.critpath import critpath_report, install_edgelog
from repro.engine import LSMEngine, make_env, rocksdb_options
from repro.harness import preload, run_closed_loop
from repro.harness.report import format_blame_table
from repro.trace import install_tracer
from repro.metrics import install_stats, timeseries_csv
from repro.sim.core import Simulator
from repro.systems import BENCH_SHAPE, open_system
from repro.workloads import YCSBWorkload
from tests.conftest import run_process

RECORDS = 400
OPS = 600
THREADS = 2


def _open_p2kvs(env):
    return open_system("p2kvs", env, workers=4)


def _db_fingerprint(env, system, keys):
    """sha256 over every (key, value) read back from the live system."""
    digest = hashlib.sha256()
    box = []

    def reader():
        ctx = env.cpu.new_thread("fingerprint")
        for key in keys:
            value = yield from system.kvs.get(ctx, key)
            digest.update(key)
            digest.update(value if value is not None else b"\0missing")
        box.append(digest.hexdigest())

    env.sim.spawn(reader())
    env.sim.run()
    return box[0]


def _run_ycsb_a(schedule_seed=None, stats=False, critpath=False):
    """One small YCSB-A run on p2KVS; returns metrics dict + DB digest.

    With ``stats=True`` the observability layer is on (per-request perf
    contexts + a fine-grained sampler) and the result also carries the
    sampled time series as CSV text plus the registry counter values.
    With ``critpath=True`` the wakeup edge log and tracer are on and the
    result carries the rendered blame table plus the edge-log counters.
    """
    env = make_env(n_cores=8)
    if schedule_seed is not None:
        env.sim.perturb_schedule(schedule_seed)
    if stats:
        install_stats(env, interval_ms=0.05)
    tracer = install_tracer(env) if critpath else None
    edgelog = install_edgelog(env) if critpath else None
    system = _open_p2kvs(env)
    workload = YCSBWorkload("A", RECORDS, value_size=112, seed=5)
    preload(env, system, workload.load_ops(), n_threads=THREADS)
    ops = list(workload.ops(OPS))
    streams = [[] for _ in range(THREADS)]
    for i, op in enumerate(ops):
        streams[i % THREADS].append(op)
    t0 = env.sim.now
    metrics = run_closed_loop(env, system, streams)
    out = {
        "ops": metrics.n_ops,
        "qps": metrics.qps,
        "avg_latency": metrics.avg_latency,
        "p99_latency": metrics.p99_latency,
        "elapsed": metrics.elapsed,
    }
    if critpath:
        # Extract before the fingerprint pass adds unrelated sim activity.
        report = critpath_report(edgelog, tracer, (t0, t0 + metrics.elapsed))
        out["blame"] = format_blame_table(report["blame"])
        out["makespan_blame"] = report["makespan"]["blame"]
        out["edge_counts"] = report["counts"]
    keys = sorted({op[1] for op in workload.load_ops()})
    out["db"] = _db_fingerprint(env, system, keys)
    if stats:
        out["series"] = timeseries_csv(env.metrics.sampler)
        out["counters"] = env.metrics.counter_values()
    return out


# ---------------------------------------------------------------------------
# identical seeds -> byte-identical runs
# ---------------------------------------------------------------------------


def test_ycsb_a_twice_is_byte_identical():
    first = json.dumps(_run_ycsb_a(), sort_keys=True)
    second = json.dumps(_run_ycsb_a(), sort_keys=True)
    assert first == second


def test_kvell_repeat_runs_identical():
    """Regression for the set-iteration fix in baselines/kvell.py: page IOs
    are issued in sorted order, so repeat runs agree exactly."""

    def run_once():
        env = make_env(n_cores=8)
        system = open_system("kvell", env, workers=4)
        workload = YCSBWorkload("A", 300, value_size=112, seed=3)
        preload(env, system, workload.load_ops(), n_threads=2)
        ops = list(workload.ops(400))
        streams = [ops[0::2], ops[1::2]]
        metrics = run_closed_loop(env, system, streams)
        return (metrics.n_ops, metrics.qps, metrics.avg_latency, metrics.elapsed)

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# schedule perturbation
# ---------------------------------------------------------------------------


def test_ycsb_a_schedule_perturbation_stable():
    """Acceptance criterion: final DB state and throughput metrics identical
    across >= 3 perturbation seeds on a YCSB-A smoke."""
    results = run_perturbed(_run_ycsb_a, seeds=(1, 2, 3))
    assert len({fingerprint(r) for r in results.values()}) == 1
    # ... and the perturbed runs also match the unperturbed baseline.
    assert fingerprint(_run_ycsb_a()) == fingerprint(results[1])


def test_perturbation_actually_shuffles_and_is_caught():
    """A deliberately order-dependent model must trip PerturbationMismatch —
    proof the perturbation really explores different same-time orders."""

    def run(seed):
        sim = Simulator()
        sim.perturb_schedule(seed)
        order = []

        def proc(i):
            yield sim.timeout(1.0)  # all six wake at the same instant
            order.append(i)

        for i in range(6):
            sim.spawn(proc(i), "p%d" % i)
        sim.run()
        return order

    with pytest.raises(PerturbationMismatch):
        run_perturbed(run, seeds=(1, 2, 3, 4, 5))


def test_perturbation_is_reproducible_per_seed():
    def run(seed):
        sim = Simulator()
        sim.perturb_schedule(seed)
        order = []

        def proc(i):
            yield sim.timeout(1.0)
            order.append(i)

        for i in range(6):
            sim.spawn(proc(i), "p%d" % i)
        sim.run()
        return order

    assert run(7) == run(7)
    assert run(7) != list(range(6)) or run(8) != list(range(6))


# ---------------------------------------------------------------------------
# observability determinism (see repro/metrics/sampler.py)
# ---------------------------------------------------------------------------


def test_sampler_series_byte_identical_across_reruns():
    """Enabled stats are exactly as deterministic as the kernel: two
    identical runs emit byte-identical sampled CSV and counter values."""
    first = _run_ycsb_a(stats=True)
    second = _run_ycsb_a(stats=True)
    assert first["series"] == second["series"]
    assert first["counters"] == second["counters"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_sampler_series_stable_under_schedule_perturbation():
    """Satellite acceptance: the sampled time series survives --schedule-seed
    perturbation byte-for-byte, like every other result."""
    results = run_perturbed(
        lambda seed: _run_ycsb_a(schedule_seed=seed, stats=True), seeds=(1, 2, 3)
    )
    assert len({fingerprint(r) for r in results.values()}) == 1
    assert fingerprint(_run_ycsb_a(stats=True)) == fingerprint(results[1])


def test_critpath_blame_byte_identical_across_reruns():
    """Satellite acceptance: the blame table and edge-log counters of two
    identical runs are byte-identical — the walk is fully deterministic."""
    first = _run_ycsb_a(critpath=True)
    second = _run_ycsb_a(critpath=True)
    assert first["blame"] == second["blame"]
    assert first["edge_counts"] == second["edge_counts"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_critpath_blame_stable_under_schedule_perturbation():
    """Satellite acceptance: --schedule-seed perturbation must not change
    the extracted blame table or the edge counts."""
    results = run_perturbed(
        lambda seed: _run_ycsb_a(schedule_seed=seed, critpath=True), seeds=(1, 2, 3)
    )
    assert len({fingerprint(r) for r in results.values()}) == 1
    assert fingerprint(_run_ycsb_a(critpath=True)) == fingerprint(results[1])


def test_stats_on_does_not_perturb_simulation_results():
    """Zero-overhead contract, strong form: turning the observability layer
    ON must not change throughput, latency, or final DB state — sampler
    ticks and perf contexts never touch CPU, device, or lock state."""
    plain = _run_ycsb_a()
    stats = _run_ycsb_a(stats=True)
    assert {k: stats[k] for k in plain} == plain


def test_critpath_on_does_not_perturb_simulation_results():
    """Zero-overhead contract for the edge log: recording wakeup edges
    never advances simulated time or touches scheduling state, so results
    with --critpath on equal the plain run exactly."""
    plain = _run_ycsb_a()
    critpath = _run_ycsb_a(critpath=True)
    assert {k: critpath[k] for k in plain} == plain


def test_critpath_does_not_perturb_stats_outputs():
    """Zero-interference both ways: the sampled series and counters with the
    edge log installed are byte-identical to stats-only runs."""
    stats_only = _run_ycsb_a(stats=True)
    both = _run_ycsb_a(stats=True, critpath=True)
    assert both["series"] == stats_only["series"]
    assert both["counters"] == stats_only["counters"]


# ---------------------------------------------------------------------------
# write-group leader hand-off (audit regression, see engine/write_group.py)
# ---------------------------------------------------------------------------


def test_write_group_leader_handoff_is_fifo(env):
    """With grouping disabled every writer must lead in arrival order —
    the hand-off pops the pending deque FIFO, never by dict/set order."""
    options = rocksdb_options(group_commit=False, **BENCH_SHAPE)
    engine = run_process(env, LSMEngine.open(env, "db", options))
    leaders = []
    original_lead = engine.coordinator._lead

    def recording_lead(writer):
        leaders.append(writer.ctx.name)
        return original_lead(writer)

    engine.coordinator._lead = recording_lead

    def writer(i):
        ctx = env.cpu.new_thread("writer-%d" % i)
        # Tiny stagger fixes arrival order without letting writes finish.
        yield env.sim.timeout(i * 1e-9)
        yield from engine.put(ctx, b"key-%d" % i, b"value-%d" % i)

    for i in range(6):
        env.sim.spawn(writer(i), "w%d" % i)
    env.sim.run()
    assert leaders == ["writer-%d" % i for i in range(6)]


# ---------------------------------------------------------------------------
# perturb helpers
# ---------------------------------------------------------------------------


def test_fingerprint_is_order_insensitive_for_dicts():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})


def test_diff_paths_locates_differences():
    a = {"qps": 100, "nested": {"p99": 5, "same": 1}, "list": [1, 2]}
    b = {"qps": 101, "nested": {"p99": 6, "same": 1}, "list": [1, 3]}
    diffs = "\n".join(diff_paths(a, b))
    assert "$.qps" in diffs and "$.nested.p99" in diffs and "$.list[1]" in diffs
    assert "same" not in diffs


def test_run_perturbed_returns_results_on_success():
    results = run_perturbed(lambda seed: {"ok": True}, seeds=(1, 2))
    assert results == {1: {"ok": True}, 2: {"ok": True}}
