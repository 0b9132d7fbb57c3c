"""Determinism-lint unit tests: a hit and a miss fixture for every rule (the
real source of its recorded catch where history has one), plus suppression,
scoping and the CLI."""

import textwrap

import pytest

from repro.analysis.lint import RULES, lint_paths, lint_source


def _diags(code, module="repro.sim.testmodule"):
    return lint_source(textwrap.dedent(code), module=module)


def _rules(code, module="repro.sim.testmodule"):
    return [d.rule for d in _diags(code, module=module)]


# ---------------------------------------------------------------------------
# one hit and one miss fixture per rule
# ---------------------------------------------------------------------------

# The first three rules caught real defects in this repository's history;
# their hit fixtures are the flagged lines, verbatim, inside a stub of the
# enclosing function, and the miss fixture is the fix that followed.  The
# other rules have never fired on a committed tree, or fired only where the
# finding became a reasoned suppression (docs/ANALYSIS.md, "Rule record").

#: 8be0c1d:src/repro/baselines/kvell.py:201,256 — KVell issued its page
#: reads in set order; the fix sorts them.
KVELL_READ_PAGES = '''
def _process_batch(self, ctx, partition, batch):
    ios = []
    read_pages = set()
    for page_key in read_pages:
        ios.append(
            self.env.device.read(PAGE_SIZE, category="read", random=True)
        )
        self.page_cache.put(page_key, True, PAGE_SIZE)
'''
KVELL_READ_PAGES_FIXED = KVELL_READ_PAGES.replace(
    "for page_key in read_pages:", "for page_key in sorted(read_pages):"
)

#: 8be0c1d:src/repro/core/worker.py:54 and e9d3564:src/repro/baselines/kvell.py:110
#: (the same line in both) — a batch-size histogram no exporter could see.
BATCH_SIZES = '''
def __init__(self, env, name):
    self.counters = Counter()
    self.batch_sizes = Histogram()
'''
BATCH_SIZES_FIXED = '''
def __init__(self, env, name):
    self.counters = env.metrics.group(name, fresh=True)
    self.batch_sizes = env.metrics.histogram(
        "%s.batch_size" % name, fresh=True
    )
'''

#: 8be0c1d:src/repro/sim/sync.py:42 — one of the 16 waiter releases that
#: bypassed the wakeup edge log until they went through wake().
LOCK_ACQUIRE = '''
def acquire(self, ctx=None, category: Optional[str] = None) -> Event:
    """Return an event that triggers once the lock is held by the caller."""
    ev = self.sim.event()
    if not self._locked:
        self._locked = True
        ev.succeed()
    else:
        self._waiters.append((ev, ctx, category, self.sim.now))
    return ev
'''
LOCK_ACQUIRE_FIXED = LOCK_ACQUIRE.replace(
    "ev.succeed()", 'wake(ev, resource=self._resource, category=category or "")'
)

#: rule -> (module, hit source, miss source).
FIXTURES = {
    "unordered-iter": (
        "repro.baselines.kvell", KVELL_READ_PAGES, KVELL_READ_PAGES_FIXED
    ),
    "adhoc-metrics": ("repro.core.worker", BATCH_SIZES, BATCH_SIZES_FIXED),
    "unlabeled-wakeup": ("repro.sim.sync", LOCK_ACQUIRE, LOCK_ACQUIRE_FIXED),
    "wall-clock": (
        "repro.service.pacer",
        "import time\nstart = time.time()\n",
        "def proc(sim):\n    start = sim.now\n",
    ),
    "global-random": (
        "repro.workloads.keys",
        "import random\nx = random.random()\n",
        "import random\nrng = random.Random(42)\nx = rng.random()\n",
    ),
    "lock-pairing": (
        "repro.engine.db",
        "def f(self, ctx):\n    yield self.lock.acquire(ctx)\n",
        "def f(self, ctx):\n    yield self.lock.acquire(ctx)\n"
        "    self.lock.release()\n",
    ),
    "condvar-wait-loop": (
        "repro.engine.db",
        "def f(self, ctx):\n    yield self.cond.wait(ctx)\n",
        "def f(self, ctx):\n    while not self.ready:\n"
        "        yield self.cond.wait(ctx)\n",
    ),
    "yield-in-critical": (
        "repro.engine.db",
        "def f(self, ctx):\n    yield self.lock.acquire(ctx)\n"
        "    while not self.ready:\n        yield self.cond.wait(ctx)\n"
        "    self.lock.release()\n",
        "def f(self, ctx):\n    yield self.lock.acquire(ctx)\n"
        "    self.lock.release()\n"
        "    while not self.ready:\n        yield self.cond.wait(ctx)\n",
    ),
    "crash-swallowed": (
        "repro.service.plane",
        "def drain(self):\n    try:\n        self.step()\n"
        "    except Exception:\n        self.log('oops')\n",
        "def drain(self):\n    try:\n        self.step()\n"
        "    except Exception:\n        self.log('oops')\n        raise\n",
    ),
    "unbounded-retry": (
        "repro.core.worker",
        "def submit(self, env, ctx):\n    while True:\n        try:\n"
        "            yield from self.io(ctx)\n            return\n"
        "        except KVError:\n            yield env.sim.timeout(0.001)\n",
        "def submit(self, env, ctx):\n    for _ in range(3):\n        try:\n"
        "            yield from self.io(ctx)\n            return\n"
        "        except KVError:\n            yield env.sim.timeout(0.001)\n",
    ),
}


#: the non-suspending acquire takes the lock as surely as the suspending one.
ACQUIRE_NOW = "def f(self, ctx):\n    yield from self.lock.acquire_now(ctx)\n"
WAIT_LOOP = "    while not self.ready:\n        yield self.cond.wait(ctx)\n"
RELEASE = "    self.lock.release()\n"
#: rule -> more (module, hit source, miss source) triples.
MORE_FIXTURES = {
    "lock-pairing": [
        ("repro.engine.write_group", ACQUIRE_NOW, ACQUIRE_NOW + RELEASE),
    ],
    "yield-in-critical": [
        (
            "repro.engine.write_group",
            ACQUIRE_NOW + WAIT_LOOP + RELEASE,
            ACQUIRE_NOW + RELEASE + WAIT_LOOP,
        ),
    ],
}


def test_registry_has_required_rules():
    names = [rule.name for rule in RULES]
    assert len(set(names)) == len(names)
    assert set(names) == set(FIXTURES)


@pytest.mark.parametrize("rule", sorted(rule.name for rule in RULES))
def test_every_rule_has_a_hit_and_a_miss_fixture(rule):
    for module, hit, miss in [FIXTURES[rule]] + MORE_FIXTURES.get(rule, []):
        assert _rules(hit, module=module) == [rule]
        assert _rules(miss, module=module) == []


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


def test_global_random_covers_the_simulation_stack():
    # The scopes a value can reach a scheduling decision from — the service
    # plane included — and id(), an object address, is banned with the RNGs.
    for code in ("import random\nx = random.random()\n", "key = id(x)\n"):
        assert _rules(code, module="repro.service.plane") == ["global-random"]
        assert _rules(code, module="repro.storage.sstable") == ["global-random"]
        assert _rules(code, module="repro.tools.dbbench") == []
    assert "id()" in _diags("key = id(x)\n", module="repro.service.plane")[0].message


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
# crash-swallowed
# ---------------------------------------------------------------------------


def test_crash_swallowed_hit_and_reraise_negative():
    bad = """
    def drain(self):
        try:
            self.step()
        except Exception:
            self.log("oops")
    """
    good = """
    from repro.faults.plane import CrashTriggered

    def drain(self):
        try:
            self.step()
        except CrashTriggered:
            self.note()
            raise
        except Exception:
            self.log("oops")
            raise
    """
    assert _rules(bad, module="repro.service.crashfix") == ["crash-swallowed"]
    assert _rules(good, module="repro.service.crashfix") == []


def test_crash_swallowed_bare_except_hit():
    assert _rules(
        """
        def drain(self):
            try:
                self.step()
            except:
                pass
        """,
        module="repro.engine.crashfix",
    ) == ["crash-swallowed"]


def test_crash_swallowed_sees_service_plane_handlers():
    """One rule over every module: the worker loops of repro.core and a
    handler in the service plane are held to the same contract."""
    code = """
    def drain(self):
        try:
            self.step()
        except Exception:
            self.log("oops")
    """
    for module in ("repro.core.worker", "repro.service.crashfix"):
        diags = _diags(code, module=module)
        assert [d.rule for d in diags] == ["crash-swallowed"]
        assert "'drain'" in diags[0].message


# ---------------------------------------------------------------------------
# unbounded-retry
# ---------------------------------------------------------------------------


def test_unbounded_retry_no_bound_hit():
    diags = _diags(
        """
        from repro.errors import KVError

        def submit(self, env, ctx):
            while True:
                try:
                    yield from self.io(ctx)
                    return
                except KVError:
                    yield env.sim.timeout(0.001)
        """,
        module="repro.core.retryfix",
    )
    assert [d.rule for d in diags] == ["unbounded-retry"]
    assert "never gives up" in diags[0].message


def test_unbounded_retry_no_backoff_hit():
    diags = _diags(
        """
        from repro.errors import KVError

        def submit(self, ctx):
            attempts = 0
            while True:
                try:
                    self.io(ctx)
                    return
                except KVError:
                    attempts = attempts + 1
                    if attempts >= 3:
                        raise
        """,
        module="repro.core.retryfix",
    )
    assert [d.rule for d in diags] == ["unbounded-retry"]
    assert "no backoff" in diags[0].message


def test_retry_negative_bounded_with_backoff():
    assert _rules(
        """
        from repro.errors import KVError

        def submit(self, env, ctx):
            attempts = 0
            while True:
                try:
                    yield from self.io(ctx)
                    return
                except KVError:
                    attempts = attempts + 1
                    if attempts >= 3:
                        raise
                    yield env.sim.timeout(0.001 * attempts)
        """,
        module="repro.core.retryfix",
    ) == []


def test_retry_negative_service_loop_exempt():
    # A dispatcher that dequeues fresh work each iteration is not a retry
    # loop, even though it catches retryable errors forever.
    assert _rules(
        """
        from repro.errors import KVError

        def dispatcher(self, ctx):
            while True:
                item = yield self.queue.get(ctx)
                try:
                    yield from self.handle(item)
                except KVError:
                    self.counters.add("retries")
        """,
        module="repro.service.loopfix",
    ) == []


def test_retry_negative_shutdown_flag_is_a_bound():
    assert _rules(
        """
        from repro.errors import KVError

        def flush_loop(self, env, ctx):
            while not self.closing:
                try:
                    yield from self.flush_once(ctx)
                except KVError:
                    yield env.sim.timeout(0.01)
        """,
        module="repro.engine.loopfix",
    ) == []


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


def test_lint_catches_wall_clock_in_service():
    """A wall-clock read that paces simulated time in the service plane is
    banned at the source — no dataflow proof that it reaches the sink."""
    code = """
    import time

    def pace(self, env, ctx):
        now = time.time()
        yield env.sim.timeout(now)
    """
    lint_diags = lint_source(textwrap.dedent(code), module="repro.service.taintfix")
    assert [d.rule for d in lint_diags] == ["wall-clock"]


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
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2:4: [global-random]" in out

    (pkg / "bad.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0


def test_cli_list_rules(capsys):
    from repro.tools.check import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.name in out


def test_cli_takes_only_paths_and_list_rules():
    from repro.tools.check import build_parser

    dests = {action.dest for action in build_parser()._actions}
    assert dests == {"help", "paths", "list_rules"}


def test_repo_source_tree_is_clean():
    """The shipped src/ tree must stay lint-clean (acceptance criterion)."""
    import os

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    assert lint_paths([src]) == []
