"""Host-profiling plane tests: zone mechanics, the report tree, the stack
sampler's speedscope export, the instrument-tax harness, non-interference
(byte-identical sim reports with ``--profile`` on vs off, across reruns and
schedule seeds) and the zero-overhead off path.

Everything here touches *host* wall time, so the assertions are structural
(counts, nesting, monotonicity), never about absolute durations.
"""

import json
import textwrap

import pytest

from repro.analysis.lint import lint_source
from repro.perf import zones
from repro.perf.report import format_zone_tree, zone_tree
from repro.perf.sampling import StackSampler
from repro.perf.tax import COUNTED_OPS, LAYERS, format_tax, measure_tax
from repro.perf.zones import ZoneProfiler


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with the global probe disabled."""
    zones.uninstall()
    yield
    zones.uninstall()


# ---------------------------------------------------------------------------
# zone mechanics
# ---------------------------------------------------------------------------


def test_zone_enter_leave_accumulates():
    p = ZoneProfiler()
    p.start()
    p.enter("kernel.dispatch")
    p.leave()
    p.enter("kernel.dispatch")
    p.leave()
    p.stop()
    rec = p.zones["kernel.dispatch"]
    assert rec[0] == 2
    assert rec[1] >= rec[2] > 0
    snap = p.snapshot()
    assert snap["zones"]["kernel.dispatch"]["count"] == 2


def test_nested_zone_self_excludes_child():
    p = ZoneProfiler()
    p.start()
    p.enter("outer")
    p.enter("outer.inner")
    # burn a little host time inside the child so the split is visible
    sum(range(20000))
    p.leave()
    p.leave()
    p.stop()
    outer, inner = p.zones["outer"], p.zones["outer.inner"]
    # outer's total includes the child; its self time does not
    assert outer[1] >= inner[1]
    assert outer[2] == outer[1] - inner[1]
    # attributed = sum of self times = wall spent inside at least one zone
    assert p.attributed_ns == outer[2] + inner[2]
    assert p.attributed_ns <= p.wall_ns()


def test_reentrant_same_name_nests():
    p = ZoneProfiler()
    p.start()
    p.enter("z")
    p.enter("z")
    p.leave()
    p.leave()
    p.stop()
    rec = p.zones["z"]
    assert rec[0] == 2
    # self of both occurrences sums to the outer total (inner counted once)
    assert rec[2] == pytest.approx(rec[1] - (rec[1] - rec[2]))
    assert p.attributed_ns == rec[2]


def test_unwind_closes_to_token_depth():
    p = ZoneProfiler()
    p.start()
    tok = p.enter("dispatch")
    p.enter("a")
    p.enter("b")
    # simulate an exception tearing out of a callback: unwind, don't leave
    p.unwind(tok)
    assert p._stack == []
    assert set(p.zones) == {"dispatch", "a", "b"}
    p.stop()
    snap = p.snapshot()
    assert snap["coverage"] <= 1.0 + 1e-9
    assert snap["unattributed_ns"] >= 0


def test_outer_zone_unwinds_when_the_run_raises():
    """A run that raises must not leave its outer ``harness.run`` zone open,
    or every later run under the same profiler nests beneath it."""
    from repro.engine import make_env
    from repro.harness import run_closed_loop
    from repro.systems import open_system

    def run(ops):
        env = make_env(n_cores=4)
        return run_closed_loop(env, open_system("rocksdb", env), [ops])

    with zones.attach() as prof:
        with pytest.raises(ValueError):
            run([("explode", b"k", b"v")])  # unknown verb: not a KVError
        assert prof._stack == []
        run([("insert", b"k", b"v")])
    snap = prof.snapshot()
    assert snap["zones"]["harness.run"]["count"] == 2
    assert prof._stack == []
    assert sum(z["self_ns"] for z in snap["zones"].values()) == snap["attributed_ns"]


def test_snapshot_window_and_coverage_bounds():
    p = ZoneProfiler()
    snap = p.snapshot()
    assert snap == {
        "wall_ns": 0,
        "attributed_ns": 0,
        "unattributed_ns": 0,
        "coverage": 0.0,
        "zones": {},
    }
    p.start()
    p.enter("only")
    p.leave()
    p.stop()
    wall_after_stop = p.wall_ns()
    assert wall_after_stop == p.snapshot()["wall_ns"]  # window closed
    assert 0.0 < p.snapshot()["coverage"] <= 1.0


def test_install_uninstall_manage_global():
    assert zones.PROFILER is None
    prof = zones.install()
    assert zones.PROFILER is prof
    zones.uninstall()
    assert zones.PROFILER is None
    with zones.attach() as prof2:
        assert zones.PROFILER is prof2
        prof2.enter("x")
        prof2.leave()
    assert zones.PROFILER is None
    assert prof2.wall_ns() > 0


# ---------------------------------------------------------------------------
# report tree
# ---------------------------------------------------------------------------


def _fake_snapshot():
    # hand-built snapshot: 100us wall, 90 attributed across a 2-level tree
    zmap = {
        "engine.batch.encode": {"count": 3, "total_ns": 20000, "self_ns": 20000},
        "engine.compaction.merge": {"count": 1, "total_ns": 30000, "self_ns": 30000},
        "kernel.dispatch": {"count": 9, "total_ns": 90000, "self_ns": 40000},
    }
    attributed = sum(z["self_ns"] for z in zmap.values())
    return {
        "wall_ns": 100000,
        "attributed_ns": attributed,
        "unattributed_ns": 100000 - attributed,
        "coverage": attributed / 100000.0,
        "zones": zmap,
    }


def test_zone_tree_groups_by_prefix():
    tree = zone_tree(_fake_snapshot())
    assert tree["name"] == "attributed"
    assert tree["cum_ns"] == 90000
    children = {c["name"]: c for c in tree["children"]}
    assert set(children) == {"engine", "kernel"}
    engine = children["engine"]
    assert engine["cum_ns"] == 50000
    mid = {c["name"]: c for c in engine["children"]}
    assert set(mid) == {"engine.batch", "engine.compaction"}
    merge = mid["engine.compaction"]["children"][0]
    assert merge["name"] == "engine.compaction.merge"
    assert merge["cum_ns"] == 30000
    encode = mid["engine.batch"]["children"][0]
    assert encode["count"] == 3
    # children sorted by descending cumulative time
    assert [c["name"] for c in tree["children"]] == ["engine", "kernel"]


def test_format_zone_tree_mentions_unattributed():
    text = format_zone_tree(_fake_snapshot())
    assert "unattributed" in text
    assert "dispatch" in text  # nested nodes print their last segment
    assert "90.0%" in text  # the root line accounts for coverage


def test_format_zone_tree_min_share_prunes():
    text = format_zone_tree(_fake_snapshot(), min_share=0.25)
    assert "merge" in text
    assert "encode" not in text  # engine.batch subtree is 20% < 25%


# ---------------------------------------------------------------------------
# stack sampler / speedscope
# ---------------------------------------------------------------------------


def _burn(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def test_sampler_collapsed_and_speedscope():
    sampler = StackSampler(interval_us=50.0)
    sampler.start()
    for _ in range(200):
        _burn(2000)
    sampler.stop()
    collapsed = sampler.collapsed()
    assert collapsed, "expected at least one sampled stack"
    for line in collapsed.splitlines():
        frames, weight = line.rsplit(" ", 1)
        assert float(weight) > 0
        assert ";" in frames or frames
    assert any("_burn" in line for line in collapsed.splitlines())

    doc = sampler.speedscope("unit")
    # schema shape speedscope.app actually validates
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    frames = doc["shared"]["frames"]
    prof = doc["profiles"][0]
    assert prof["type"] == "sampled"
    assert prof["unit"] == "nanoseconds"
    assert len(prof["samples"]) == len(prof["weights"]) > 0
    for stack in prof["samples"]:
        for idx in stack:
            assert 0 <= idx < len(frames)
    assert prof["endValue"] == sum(prof["weights"])
    json.dumps(doc)  # must be JSON-serializable as-is


def test_sampler_noop_when_never_started():
    sampler = StackSampler()
    assert sampler.collapsed() == ""
    doc = sampler.speedscope("empty")
    assert doc["profiles"][0]["samples"] == []


# ---------------------------------------------------------------------------
# instrument tax
# ---------------------------------------------------------------------------


def test_tax_layers_and_format():
    assert LAYERS[0] == "off"
    report = {
        "base_wall_ns": 10_000_000,
        "layers": [
            {"layer": "off", "wall_ns": 10_000_000, "overhead_pct": 0.0,
             "gc_full": 0, "gc_ms": 0.5, "tracked_per_kop": 310.0,
             "calls_per_op": 146.3},
            {"layer": "trace", "wall_ns": 12_000_000, "overhead_pct": 20.0,
             "gc_full": 2, "gc_ms": 41.5, "tracked_per_kop": 16555.5,
             "calls_per_op": 163.7},
        ],
    }
    text = format_tax(report)
    assert "off" in text and "trace" in text
    assert "+20.0%" in text
    assert "gc full" in text and "41.5" in text and "16555.5" in text
    assert "calls/op" in text and "163.7" in text


def test_tax_counts_what_the_collector_did():
    """A layer that keeps tracked objects alive and forces a full collection
    shows up in its row; the callback is gone afterwards."""
    import gc

    def run(layer):
        kept = [[i] for i in range(3000)] if layer == "hoard" else None
        if layer == "hoard":
            gc.collect()
        return kept

    before = list(gc.callbacks)
    report = measure_tax(run, ops=1000, counted=run, layers=("off", "hoard"))
    assert gc.callbacks == before
    off, hoard = report["layers"]
    assert off["gc_full"] == 0 and hoard["gc_full"] == 1 and hoard["gc_ms"] > 0
    assert hoard["tracked_per_kop"] - off["tracked_per_kop"] >= 3000


def test_tax_counts_calls_per_op():
    """The counted pass: Python calls per op — a count, the same on every
    host — in each row and in the table."""

    def run(layer):
        def step():
            pass

        for _ in range(COUNTED_OPS * (2 if layer == "busy" else 1)):
            step()

    report = measure_tax(run, ops=1000, layers=("off", "busy"), counted=run)
    off, busy = report["layers"]
    assert (off["calls_per_op"], busy["calls_per_op"]) == (1.0, 2.0)
    assert "calls/op" in format_tax(report)


def test_tax_unknown_layer_rejected():
    from repro.tools.profile import run_workload

    with pytest.raises(ValueError):
        run_workload("nosuch")


# ---------------------------------------------------------------------------
# non-interference: byte-identical sim output with --profile on/off
# ---------------------------------------------------------------------------


def _dbbench_json(tmp_path, tag, extra=()):
    from repro.tools import dbbench

    out = tmp_path / ("bench-%s.json" % tag)
    argv = [
        "--benchmarks", "fillrandom", "--system", "p2kvs",
        "--workers", "2", "--threads", "4", "--num", "300",
        "--cores", "8", "--device", "nvme", "--seed", "0",
        "--json", str(out),
    ] + list(extra)
    assert dbbench.main(argv) == 0
    return out.read_bytes()


def test_dbbench_profile_does_not_change_report(tmp_path, capsys):
    plain = _dbbench_json(tmp_path, "plain")
    profiled = _dbbench_json(tmp_path, "prof", ["--profile"])
    again = _dbbench_json(tmp_path, "prof2", ["--profile"])
    assert profiled == plain
    assert again == plain
    # ...and under schedule perturbation: profiled-vs-plain at the same seed
    seeded_plain = _dbbench_json(tmp_path, "s7", ["--schedule-seed", "7"])
    seeded_prof = _dbbench_json(
        tmp_path, "s7p", ["--profile", "--schedule-seed", "7"]
    )
    assert seeded_prof == seeded_plain
    assert zones.PROFILER is None  # CLI uninstalls its profiler


def test_dbbench_profile_out_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "prof.json"
    _dbbench_json(tmp_path, "artifact", ["--profile-out", str(out)])
    snap = json.loads(out.read_text())
    assert 0.0 < snap["coverage"] <= 1.0
    assert "kernel.dispatch" in snap["zones"]
    # the profile tree goes to stderr: sim stdout must not mention it
    captured = capsys.readouterr()
    assert "attributed" not in captured.out
    assert "dispatch" in captured.err


def _serve_json(tmp_path, tag, extra=()):
    from repro.tools import serve

    out = tmp_path / ("slo-%s.json" % tag)
    argv = [
        "--scenario", "uniform", "--shards", "4", "--partitions", "8",
        "--ops", "200", "--rate", "600000", "--key-space", "200",
        "--dispatchers", "2", "--workers", "2", "--cores", "16",
        "--json", str(out),
    ] + list(extra)
    assert serve.main(argv) == 0
    return out.read_bytes()


def test_serve_profile_does_not_change_report(tmp_path, capsys):
    plain = _serve_json(tmp_path, "plain")
    profiled = _serve_json(tmp_path, "prof", ["--profile"])
    assert profiled == plain
    # the service plane's SLO report is byte-stable across schedule seeds,
    # so the profiled seeded run must match the unseeded plain bytes too
    seeded = _serve_json(
        tmp_path, "seed", ["--profile", "--schedule-seed", "99"]
    )
    assert seeded == plain


def test_disabled_probes_never_touch_the_profiler(monkeypatch):
    """With no profiler installed the probes must be dead code: poison every
    ZoneProfiler method and run a full benchmark."""
    from repro.tools import dbbench

    def _boom(*a, **k):  # pragma: no cover - must never run
        raise AssertionError("probe fired with PROFILER unset")

    monkeypatch.setattr(ZoneProfiler, "enter", _boom)
    monkeypatch.setattr(ZoneProfiler, "leave", _boom)
    monkeypatch.setattr(ZoneProfiler, "unwind", _boom)
    assert zones.PROFILER is None
    args = dbbench.build_parser().parse_args(
        ["--benchmarks", "fillrandom", "--system", "p2kvs", "--workers", "2",
         "--threads", "4", "--num", "200", "--cores", "8", "--seed", "0"]
    )
    result = dbbench.run_benchmark("fillrandom", args)
    assert result["ops"] == 200


# ---------------------------------------------------------------------------
# lint integration: the repro.perf allowlist
# ---------------------------------------------------------------------------


def test_wall_clock_rule_exempts_repro_perf_only():
    code = textwrap.dedent(
        """
        from time import perf_counter_ns

        def wall():
            return perf_counter_ns()
        """
    )
    inside = lint_source(code, module="repro.perf.zones")
    assert [d.rule for d in inside] == []
    outside = lint_source(code, module="repro.engine.db")
    assert "wall-clock" in [d.rule for d in outside]
    # bare-name calls are caught even outside the classic sim scopes
    tools = lint_source(code, module="repro.tools.newtool")
    assert "wall-clock" in [d.rule for d in tools]
