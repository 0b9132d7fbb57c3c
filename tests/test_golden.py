"""Golden-fingerprint byte-identity suite for the simulator fast path.

The kernel/engine/storage fast-path work (ROADMAP item 4) is only shippable
because every sim-side output byte is pinned: these tests hash dbbench
results, serve SLO reports and critical-path blame across all seven systems
against fingerprints committed *before* the fast path landed
(``tests/golden/fingerprints.json``).  Any optimization that changes event
ordering, cost arithmetic or record encoding fails here first.

Each pinned configuration is also re-run under ``--schedule-seed`` and with
the observability hooks attached (sanitizer, zone profiler, critpath
edgelog), asserting the *same* fingerprint: the one-branch-off hook
contract means none of them may perturb simulated results.

Refresh (only when a sim-side change is intentional)::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/test_golden.py -q
"""

import hashlib
import json
import os

import pytest

from benchmarks.common import open_case, run_case, run_ycsb
from repro.baselines import wiredtiger_adapter_factory
from repro.engine.env import make_env
from repro.harness import P2KVSSystem, open_system, preload, run_closed_loop
from repro.perf import zones as _perf_zones
from repro.systems import system_names
from repro.tools import dbbench, serve, whatif, ycsb
from repro.workloads import (
    YCSBWorkload,
    facebook_mixed_workload,
    fillrandom,
    make_key,
    readrandom,
)
from tests.conftest import run_process

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "fingerprints.json")
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: volatile keys stripped before hashing: host file paths and artifact
#: locations vary per run; everything else in a report is sim-side.
_VOLATILE = ("_file", "_files", "trace_file", "stats_files")


def _strip(obj):
    if isinstance(obj, dict):
        return {
            k: _strip(v)
            for k, v in obj.items()
            if not any(k.endswith(s) or k == s for s in _VOLATILE)
        }
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    if isinstance(obj, float):
        # 10 significant digits: float *summation order* may legally differ
        # under --schedule-seed (same-time shuffles reassociate latency
        # sums), moving the last ulp; any genuine model change moves far
        # more than the 11th digit.
        return float("%.10g" % obj)
    return obj


def fingerprint(obj) -> str:
    blob = json.dumps(_strip(obj), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_goldens() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as f:
        return json.load(f)


_RECORDED = {}


def check(name: str, fp: str) -> None:
    if UPDATE:
        _RECORDED[name] = fp
        return
    goldens = _load_goldens()
    assert name in goldens, (
        "no golden for %r: run REPRO_UPDATE_GOLDENS=1 pytest %s" % (name, __file__)
    )
    assert fp == goldens[name], (
        "%s: fingerprint %s != golden %s — sim-side output changed; the fast "
        "path must be byte-identical (or refresh goldens for an intentional "
        "model change)" % (name, fp, goldens[name])
    )


@pytest.fixture(scope="module", autouse=True)
def _write_goldens_on_update():
    yield
    if UPDATE and _RECORDED:
        goldens = _load_goldens()
        goldens.update(_RECORDED)
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as f:
            json.dump(goldens, f, indent=2, sort_keys=True)
            f.write("\n")


# -- dbbench ----------------------------------------------------------------

_DBBENCH_COMMON = ["--threads", "4", "--workers", "2", "--device", "nvme",
                   "--seed", "0", "--num", "500"]


def _dbbench_result(bench: str, extra=()) -> dict:
    argv = ["--benchmarks", bench] + _DBBENCH_COMMON + list(extra)
    args = dbbench.build_parser().parse_args(argv)
    return dbbench.run_benchmark(bench, args)


@pytest.mark.parametrize("system", system_names())
def test_dbbench_fillrandom_golden(system):
    result = _dbbench_result("fillrandom", ["--system", system])
    check("dbbench:fillrandom:%s" % system, fingerprint(result))


@pytest.mark.parametrize("system", ("p2kvs", "rocksdb"))
def test_dbbench_readrandom_golden(system):
    result = _dbbench_result("readrandom", ["--system", system])
    check("dbbench:readrandom:%s" % system, fingerprint(result))


@pytest.mark.parametrize("seed", (3, 11))
def test_dbbench_schedule_seed_invariant(seed):
    """--schedule-seed shuffles same-time delivery; results must not move."""
    result = _dbbench_result(
        "fillrandom", ["--system", "p2kvs", "--schedule-seed", str(seed)]
    )
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


def test_dbbench_sanitizer_off_path():
    """The sanitizer hooks (monitor) must not change simulated results."""
    result = _dbbench_result("fillrandom", ["--system", "p2kvs", "--sanitize"])
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


@pytest.mark.no_sanitize
def test_dbbench_profiler_off_path():
    """The wall-clock zone profiler must not change simulated results."""
    with _perf_zones.attach():
        result = _dbbench_result("fillrandom", ["--system", "p2kvs"])
    check("dbbench:fillrandom:p2kvs", fingerprint(result))


# -- critical-path blame ----------------------------------------------------


def _critpath_blame(extra=(), tmp_base="golden-critpath"):
    result = _dbbench_result(
        "fillrandom",
        ["--system", "p2kvs", "--critpath", "--critpath-out", tmp_base]
        + list(extra),
    )
    return result["critpath"]


def test_critpath_blame_golden(tmp_path):
    blame = _critpath_blame(tmp_base=str(tmp_path / "cp"))
    check("critpath:fillrandom:p2kvs", fingerprint(blame))


def test_critpath_blame_schedule_seed_invariant(tmp_path):
    blame = _critpath_blame(["--schedule-seed", "5"], str(tmp_path / "cp"))
    check("critpath:fillrandom:p2kvs", fingerprint(blame))


# -- serve (sharded service plane) ------------------------------------------

_SERVE_ARGV = ["--scenario", "uniform", "--shards", "2", "--ops", "300",
               "--key-space", "200", "--seed", "42"]


def _serve_report(extra=()) -> dict:
    args = serve.build_parser().parse_args(_SERVE_ARGV + list(extra))
    return serve.run_scenario(args)


def test_serve_report_golden():
    check("serve:uniform:2shard", fingerprint(_serve_report()))


def test_serve_report_schedule_seed_invariant():
    report = _serve_report(["--schedule-seed", "9"])
    check("serve:uniform:2shard", fingerprint(report))


def test_serve_migration_golden():
    """The one scenario that moves partitions mid-run: offered-heat counts,
    the rebalance plan, the partition-copy filter and directory moves."""
    report = _serve_report(["--scenario", "migration"])
    assert [m["partition"] for m in report["moves"]] == [25, 22]
    assert report["rebalance_shed"] == 36
    check("serve:migration", fingerprint(report))


# -- the run path every CLI shares (tools.common) ----------------------------
#
# These go through main(argv) and read the --json artifact back, so they pin
# what a *user* of each tool gets — parser, driver loop, observer install
# order, exports — not one internal function's return value.


def _main_json(tool, argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert tool.main(list(argv) + ["--json", str(out)]) == 0
    capsys.readouterr()
    return json.loads(out.read_text())


def test_ycsb_result_golden(tmp_path, capsys):
    results = _main_json(
        ycsb,
        ["--workload", "A", "--system", "p2kvs", "--workers", "2", "--threads",
         "4", "--records", "500", "--ops", "500", "--seed", "0"],
        tmp_path, capsys,
    )
    check("ycsb:A:p2kvs", fingerprint(results[0]))


_YCSB_E_ARGV = ["--workload", "E", "--system", "p2kvs", "--workers", "2",
                "--seed", "0"]


def test_ycsb_scan_golden(tmp_path, capsys):
    """SCAN through the merging iterator over memtables + multi-block SSTs
    (~1 300 block loads): pins seek/next CPU charges and block-load order."""
    results = _main_json(
        ycsb,
        _YCSB_E_ARGV + ["--threads", "4", "--records", "4000", "--ops", "300"],
        tmp_path, capsys,
    )
    check("ycsb:E:p2kvs", fingerprint(results[0]))


@pytest.mark.parametrize("extra", ([], ["--schedule-seed", "7"],
                                   ["--schedule-seed", "3"]))
def test_ycsb_scan_schedule_seed_invariant(extra, tmp_path, capsys):
    """One client thread, so no scan races an insert (with several, a
    different tie order legitimately shows a scan different data and every
    mixed YCSB run moves); each SCAN still forks to both workers and loads
    ~800 blocks, and the tie order among those must not matter."""
    results = _main_json(
        ycsb,
        _YCSB_E_ARGV + ["--threads", "1", "--records", "1000", "--ops", "200"]
        + extra,
        tmp_path, capsys,
    )
    check("ycsb:E:p2kvs:1thread", fingerprint(results[0]))


def test_range_query_golden():
    """RANGE forked to both p2KVS workers and merged: pins the returned
    pairs, the simulated latency of every RANGE and the device reads."""
    env = make_env(n_cores=8)
    system = open_system(env, P2KVSSystem.open(env, n_workers=2))
    preload(env, system, fillrandom(4000), n_threads=2)
    streams = [
        [("range", make_key(t * 900 + i * 37), make_key(t * 900 + i * 37 + 60))
         for i in range(20)]
        for t in range(4)
    ]
    metrics = run_closed_loop(env, system, streams)
    ctx = env.cpu.new_thread("golden-range")
    pairs = run_process(
        env, system.store.range_query(ctx, make_key(1000), make_key(1200))
    )
    check(
        "range:p2kvs",
        fingerprint(
            {
                "elapsed": metrics.elapsed,
                "latency": metrics.latency_of("scan").summary(),
                "device_read_bytes": metrics.device_read_bytes,
                "cpu_busy": metrics.cpu_busy,
                "pairs": [(k.decode(), hashlib.sha256(v).hexdigest()[:8])
                          for k, v in pairs],
                "now": env.sim.now,
            }
        )
    )


# -- figure-shaped cases (benchmarks.common.run_case) ------------------------
#
# Scaled-down cells of the figure suite, built through the same ``run_case``
# the figures use, so a change that moves a figure moves a tier-1 golden too
# (``make figures`` is the full-size gate).  Same contract as the dbbench
# goldens above: pinned as run, no ``--schedule-seed`` variant — concurrent
# clients race writes, so a different tie order legitimately moves them.


def _case_facts(metrics, env) -> dict:
    return {
        "elapsed": metrics.elapsed,
        "qps": metrics.qps,
        "latency": {cls: metrics.latency[cls].summary() for cls in sorted(metrics.latency)},
        "device_bytes": dict(sorted(metrics.device_bytes.items())),
        "cpu_busy": metrics.cpu_busy,
        "now": env.sim.now,
    }


def test_figure_facebook_write_heavy_golden():
    """bench_facebook_mixed's write-heavy RocksDB cell in miniature: 16
    clients, 20/77/3 get/put/scan over SST-resident data, so scans suspended
    on block loads race inserts (the cell PR 15 moved with no gate watching)."""
    ops = facebook_mixed_workload(2500, 8000, get_ratio=0.20, put_ratio=0.77, seed=9)
    metrics, env = run_case("rocksdb", ops, 16, preload=fillrandom(8000))
    check("figure:facebook-write-heavy:rocksdb", fingerprint(_case_facts(metrics, env)))


def test_figure_ycsb_a_golden():
    """bench_fig16's RocksDB YCSB-A cell at 32 threads in miniature (the cell
    that drifted 5 % between the seed and PR 11)."""
    workload = YCSBWorkload("A", 6000, seed=3)
    metrics, env = run_ycsb("rocksdb", workload, 4000, 32)
    check("figure:ycsb-a:rocksdb:32threads", fingerprint(_case_facts(metrics, env)))


def _obm_read_batches(system) -> int:
    return sum(w.counters.get("obm_read_batches") for w in system.kvs.workers)


def test_figure_p2kvs_on_leveldb_read_golden():
    """bench_fig22's p2KVS-8 read cell in miniature: LevelDB has no
    multiget, so every OBM read batch takes the one-process-per-key path."""
    system, env = open_case("p2kvs", workers=8, flavor="leveldb")
    metrics, _ = run_case(
        system, readrandom(4000, 6000), 16, env=env, preload=fillrandom(6000)
    )
    assert _obm_read_batches(system) > 0
    check("figure:p2kvs-8:leveldb:readrandom", fingerprint(_case_facts(metrics, env)))


def test_figure_p2kvs_on_wiredtiger_golden():
    """bench_fig23's p2KVS-8 cells in miniature: fill (no batch write, so
    OBM-write is off) then cold reads (no multiget) on WiredTiger instances."""
    env = make_env(n_cores=44, page_cache_bytes=512 * 1024)
    system = open_system(
        env,
        P2KVSSystem.open(
            env,
            n_workers=8,
            adapter_open=wiredtiger_adapter_factory(cache_bytes=256 * 1024),
        ),
    )
    facts = {}
    for phase, ops in (("fill", fillrandom(4000)), ("read", readrandom(4000, 4000))):
        metrics, _ = run_case(system, ops, 16, env=env)
        facts[phase] = _case_facts(metrics, env)
    assert _obm_read_batches(system) > 0
    check("figure:p2kvs-8:wiredtiger:fill-read", fingerprint(facts))


def test_dbbench_observed_golden(tmp_path, capsys):
    """Every plane attached at once: the base columns equal the unobserved
    run's (observers never perturb the simulation), and the artifact keys
    plus every exported plane's content are pinned."""
    plain = _dbbench_result("fillrandom", ["--system", "p2kvs"])
    argv = ["--benchmarks", "fillrandom", "--system", "p2kvs"] + _DBBENCH_COMMON
    observed = _main_json(
        dbbench,
        argv + ["--trace-out", str(tmp_path / "t.json"), "--critpath",
                "--critpath-out", str(tmp_path / "cp"), "--stats",
                "--stats-out", str(tmp_path / "s")],
        tmp_path, capsys,
    )[0]
    check("dbbench:fillrandom:p2kvs",
          fingerprint({k: observed[k] for k in plain}))
    artifacts = sorted(set(observed) - set(plain))
    assert sorted(observed["stats_files"]) == ["csv", "json", "prom"]
    for path in [observed["trace_file"], observed["critpath_file"]] + list(
        observed["stats_files"].values()
    ):
        assert os.path.exists(path), path
    check("dbbench:fillrandom:p2kvs:observed",
          fingerprint({"artifact_keys": artifacts, "result": observed}))
    # The exported bytes themselves: the recorders' storage may change, the
    # files they write may not.
    for plane in ("trace", "critpath"):
        with open(observed[plane + "_file"], "rb") as f:
            check("dbbench:fillrandom:p2kvs:observed:" + plane,
                  hashlib.sha256(f.read()).hexdigest()[:16])


def test_whatif_payload_golden(tmp_path, capsys):
    payload = _main_json(
        whatif,
        ["--system", "p2kvs", "--workers", "2", "--threads", "4", "--num",
         "500", "--experiments", "wal-write-0.8x"],
        tmp_path, capsys,
    )
    check("whatif:wal-write-0.8x", fingerprint(payload))


def test_monitor_document_golden(tmp_path, capsys):
    out = tmp_path / "monitor.json"
    argv = ["--scenario", "uniform", "--ops", "300", "--monitor-out", str(out)]
    assert serve.main(argv) == 0
    capsys.readouterr()
    check("monitor:uniform", fingerprint(json.loads(out.read_text())))
