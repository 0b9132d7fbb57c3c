"""Determinism-lint unit tests: one hit and one miss per rule, plus
suppression, scoping and the CLI."""

import textwrap

import pytest

from repro.analysis.lint import RULES, lint_paths, lint_source


def _diags(code, module="repro.sim.testmodule"):
    return lint_source(textwrap.dedent(code), module=module)


def _rules(code, module="repro.sim.testmodule"):
    return [d.rule for d in _diags(code, module=module)]


def test_registry_has_required_rules():
    names = {rule.name for rule in RULES}
    assert {
        "wall-clock",
        "global-random",
        "unordered-iter",
        "lock-pairing",
        "condvar-wait-loop",
        "yield-in-critical",
        "adhoc-metrics",
        "unlabeled-wakeup",
    } <= names
    assert len(names) >= 5


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------


def test_wall_clock_hit():
    diags = lint_source("import time\nstart = time.time()\n")
    assert [d.rule for d in diags] == ["wall-clock"]
    assert diags[0].line == 2
    assert "sim.now" in diags[0].message


def test_wall_clock_miss_on_sim_time():
    assert _rules(
        """
        def proc(sim):
            start = sim.now
            yield sim.timeout(1.0)
        """
    ) == []


def test_wall_clock_variants():
    assert _rules("import time\ntime.sleep(1)\n") == ["wall-clock"]
    assert _rules("import datetime\nd = datetime.datetime.now()\n") == ["wall-clock"]


# ---------------------------------------------------------------------------
# global-random
# ---------------------------------------------------------------------------


def test_global_random_hit():
    diags = lint_source("import random\nx = random.random()\n")
    assert [d.rule for d in diags] == ["global-random"]
    assert "seeded" in diags[0].message


def test_global_random_miss_on_seeded_instance():
    assert _rules(
        """
        import random
        rng = random.Random(42)
        x = rng.random()
        y = rng.randint(0, 10)
        """
    ) == []


def test_global_random_urandom_hit():
    assert _rules("import os\nx = os.urandom(8)\n") == ["global-random"]


# ---------------------------------------------------------------------------
# unordered-iter
# ---------------------------------------------------------------------------


def test_unordered_iter_hit_on_set_name():
    diags = _diags(
        """
        def f(items):
            pending = set(items)
            for x in pending:
                schedule(x)
        """
    )
    assert [d.rule for d in diags] == ["unordered-iter"]


def test_unordered_iter_hit_on_literal_and_comprehension():
    assert _rules("for x in {1, 2, 3}:\n    pass\n") == ["unordered-iter"]
    assert _rules("out = [x for x in {1, 2}]\n") == ["unordered-iter"]


def test_unordered_iter_miss_when_sorted():
    assert _rules(
        """
        def f(items):
            pending = set(items)
            for x in sorted(pending):
                schedule(x)
        """
    ) == []


def test_unordered_iter_miss_on_list():
    assert _rules("for x in [1, 2, 3]:\n    pass\n") == []


# ---------------------------------------------------------------------------
# lock-pairing
# ---------------------------------------------------------------------------


def test_lock_pairing_hit():
    diags = _diags(
        """
        def f(self, ctx):
            yield self.lock.acquire(ctx)
            do_work()
        """
    )
    assert [d.rule for d in diags] == ["lock-pairing"]
    assert "1 time(s)" in diags[0].message


def test_lock_pairing_miss_when_balanced():
    assert _rules(
        """
        def f(self, ctx):
            yield self.lock.acquire(ctx)
            do_work()
            self.lock.release()
        """
    ) == []


def test_lock_pairing_counts_multiple():
    assert _rules(
        """
        def f(self, ctx):
            yield self.lock.acquire(ctx)
            self.lock.release()
            yield self.lock.acquire(ctx)
        """
    ) == ["lock-pairing"]


def test_lock_pairing_ignores_nested_function_release():
    # The async-put pattern: release inside a callback is a different
    # function scope, so the outer acquire is flagged (suppressible).
    code = """
    def f(self, ctx):
        yield self.window.acquire(ctx)
        def on_done(_r):
            self.window.release()
        submit(on_done)
    """
    assert _rules(code) == ["lock-pairing"]


# ---------------------------------------------------------------------------
# condvar-wait-loop
# ---------------------------------------------------------------------------


def test_condvar_wait_loop_hit():
    diags = _diags(
        """
        def f(self, ctx):
            yield self.cond.wait(ctx)
            consume()
        """
    )
    assert [d.rule for d in diags] == ["condvar-wait-loop"]


def test_condvar_wait_loop_miss_inside_while():
    assert _rules(
        """
        def f(self, ctx):
            while not self.ready:
                yield self.cond.wait(ctx)
            consume()
        """
    ) == []


# ---------------------------------------------------------------------------
# yield-in-critical
# ---------------------------------------------------------------------------


def test_yield_in_critical_hit():
    diags = _diags(
        """
        def f(self, ctx):
            yield self.lock.acquire(ctx)
            while not self.ready:
                yield self.cond.wait(ctx)
            self.lock.release()
        """
    )
    assert "yield-in-critical" in [d.rule for d in diags]


def test_yield_in_critical_miss_when_released_first():
    assert _rules(
        """
        def f(self, ctx):
            yield self.lock.acquire(ctx)
            self.lock.release()
            while not self.ready:
                yield self.cond.wait(ctx)
        """
    ) == []


# ---------------------------------------------------------------------------
# adhoc-metrics
# ---------------------------------------------------------------------------


def test_adhoc_metrics_hit_on_bare_counter_construction():
    diags = _diags(
        """
        class Engine:
            def __init__(self, env):
                self.counters = CounterGroup("engine.db")
                self.latency = Histogram()
        """,
        module="repro.engine.db",
    )
    assert [d.rule for d in diags] == ["adhoc-metrics", "adhoc-metrics"]
    assert "env.metrics" in diags[0].message


def test_adhoc_metrics_hit_on_collector_call():
    diags = _diags(
        """
        def flush(self):
            self.collector.record_latency("flush", 0.001)
        """,
        module="repro.storage.sstable",
    )
    assert [d.rule for d in diags] == ["adhoc-metrics"]


def test_adhoc_metrics_miss_on_registry_usage():
    assert _rules(
        """
        class Engine:
            def __init__(self, env):
                self.counters = env.metrics.group("engine.db", fresh=True)
                self.latency = env.metrics.histogram("engine.db.flush")
                env.metrics.gauge("engine.db.l0", lambda: 0)
        """,
        module="repro.engine.db",
    ) == []


def test_adhoc_metrics_miss_outside_scoped_packages():
    # The harness and benchmarks legitimately construct collectors and
    # histograms; only engine/core/storage/baselines are in scope.
    code = """
    def run(env):
        h = Histogram()
        collector.record_latency("write", 1e-5)
    """
    assert _rules(code, module="repro.harness.metrics") == []
    assert _rules(code, module="repro.sim.device") == []
    # In scope since KVellLike/WiredTigerLike built instruments no exporter
    # could see (`dbbench --system kvell --stats` lost their counters).
    for module in ("repro.engine.db", "repro.baselines.kvell"):
        assert _rules(code, module=module) == ["adhoc-metrics", "adhoc-metrics"]


def test_adhoc_metrics_line_suppression():
    code = (
        "h = Histogram()  # lint: disable=adhoc-metrics  (local scratch)\n"
    )
    assert _rules(code, module="repro.core.worker") == []


# ---------------------------------------------------------------------------
# unlabeled-wakeup
# ---------------------------------------------------------------------------


def test_unlabeled_wakeup_hit_on_direct_succeed():
    diags = _diags(
        """
        def release(self):
            ev = self._waiters.popleft()
            ev.succeed()
        """,
        module="repro.sim.mylock",
    )
    assert [d.rule for d in diags] == ["unlabeled-wakeup"]
    assert "wake(" in diags[0].message


def test_unlabeled_wakeup_miss_on_wake_helper():
    assert _rules(
        """
        from repro.sim.wakeup import wake

        def release(self):
            ev, since = self._waiters.popleft()
            wake(ev, resource="lock:wal", queued_at=since)
        """,
        module="repro.sim.mylock",
    ) == []


def test_unlabeled_wakeup_miss_on_annotated_completion():
    # A kernel-context completion stamps its edge and hands the event back
    # to Simulator.run; triggering it itself is still a finding.
    good = """
        from repro.sim.wakeup import annotated

        def _finish(self, item):
            return annotated(item.ev, "cpu", item.category, "resource")
        """
    bad = """
        from repro.sim.wakeup import annotated

        def _finish(self, item):
            annotated(item.ev, "cpu", item.category, "resource").succeed()
        """
    assert _rules(good, module="repro.sim.mycpu") == []
    assert _rules(bad, module="repro.sim.mycpu") == ["unlabeled-wakeup"]


def test_unlabeled_wakeup_scoped_to_sim_package():
    # Engine/harness code completes futures directly; only the kernel's
    # waiter releases must be edge-labeled.
    code = "def done(self):\n    self.future.succeed(42)\n"
    assert _rules(code, module="repro.engine.db") == []
    assert _rules(code, module="repro.sim.queues2") == ["unlabeled-wakeup"]


def test_unlabeled_wakeup_line_suppression():
    code = (
        "def fire(ev):\n"
        "    ev.succeed()  # lint: disable=unlabeled-wakeup  (edge pre-annotated)\n"
    )
    assert _rules(code, module="repro.sim.wakeup2") == []


# ---------------------------------------------------------------------------
# suppressions, scoping, runner
# ---------------------------------------------------------------------------


def test_line_suppression():
    code = "import time\nt = time.time()  # lint: disable=wall-clock  (test)\n"
    assert lint_source(code) == []


def test_line_suppression_only_covers_named_rule():
    code = "import time\nt = time.time()  # lint: disable=global-random\n"
    assert [d.rule for d in lint_source(code)] == ["wall-clock"]


def test_file_suppression():
    code = "# lint: disable-file=wall-clock\nimport time\na = time.time()\nb = time.time()\n"
    assert lint_source(code) == []


def test_wall_clock_covers_all_of_src_except_repro_perf():
    # wall-clock applies everywhere; repro.perf is the one exempt package
    # (the module allowlist, preferred over per-line disables).
    code = "import time\nt = time.time()\n"
    assert [d.rule for d in lint_source(code, module="repro.tools.dbbench")] == ["wall-clock"]
    assert [d.rule for d in lint_source(code, module="repro.engine.db")] == ["wall-clock"]
    assert lint_source(code, module="repro.perf.zones") == []
    assert lint_source(code, module="repro.perf.tax") == []


def test_lint_paths_on_tree(tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    (pkg / "good.py").write_text("x = 1\n")
    diags = lint_paths([str(tmp_path)])
    assert len(diags) == 1
    assert diags[0].rule == "wall-clock"
    assert diags[0].path.endswith("bad.py")
    assert diags[0].line == 2


def test_cli_reports_and_exits_nonzero(tmp_path, capsys):
    from repro.tools.check import main

    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import random\nx = random.random()\n")
    assert main(["--lint-only", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "global-random" in out

    (pkg / "bad.py").write_text("x = 1\n")
    assert main(["--lint-only", str(tmp_path)]) == 0


def test_cli_list_rules(capsys):
    from repro.tools.check import main

    assert main(["--lint-only", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "wall-clock" in out and "lock-pairing" in out


def test_repo_source_tree_is_clean():
    """The shipped src/ tree must stay lint-clean (acceptance criterion)."""
    import os

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    assert lint_paths([src]) == []
