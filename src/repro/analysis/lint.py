"""Determinism lint: AST rules that keep the simulation reproducible.

The whole reproduction rests on the simulator being deterministic: one stray
``time.time()``, one module-level ``random.random()``, or one iteration over
an unordered set that reaches a scheduling decision silently corrupts every
figure.  Two rules guard the error contract the same way: no ``except`` may
swallow a simulated crash, and no retry of a retryable ``KVError`` may spin
forever.  Every rule looks at one function (or one module) at a time.
``python -m repro.tools.check`` (or ``make check``) runs every registered
rule over ``src/`` and fails on any diagnostic.

Adding a rule is one class::

    @register
    class MyRule(LintRule):
        name = "my-rule"
        description = "what it catches"
        scopes = ("repro.sim",)   # dotted-module prefixes; None = everywhere

        def check(self, module):
            yield self.diag(module, node, "message")

Suppressions are explicit and line-scoped::

    t = time.time()  # lint: disable=wall-clock  (reason...)

or file-scoped with ``# lint: disable-file=<rule>`` on its own line.
"""

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Diagnostic",
    "LintRule",
    "ModuleUnderLint",
    "RULES",
    "lint_paths",
    "lint_source",
    "register",
]

_DISABLE_LINE = re.compile(r"#\s*lint:\s*disable=([\w,\-]+)")
_DISABLE_FILE = re.compile(r"#\s*lint:\s*disable-file=([\w,\-]+)")


@dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return "%s:%d:%d: [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.rule,
            self.message,
        )


class ModuleUnderLint:
    """One parsed source file plus its suppression table."""

    def __init__(self, source: str, module: str, path: str):
        self.source = source
        self.module = module
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _DISABLE_LINE.search(text)
            if match:
                self.line_suppressions[lineno] = set(match.group(1).split(","))
            match = _DISABLE_FILE.search(text)
            if match:
                self.file_suppressions |= set(match.group(1).split(","))

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions:
            return True
        return rule in self.line_suppressions.get(line, ())


class LintRule:
    """Base class: subclass, set ``name``/``description``, implement check."""

    name = ""
    description = ""
    #: dotted-module prefixes the rule applies to; None applies everywhere.
    scopes: Optional[Tuple[str, ...]] = None
    #: dotted-module prefixes the rule *never* applies to — a module-level
    #: allowlist (e.g. repro.perf may read host clocks), preferred over
    #: per-line disables when a whole package is legitimately exempt.
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if any(
            module == scope or module.startswith(scope + ".")
            for scope in self.exempt
        ):
            return False
        if self.scopes is None:
            return True
        return any(
            module == scope or module.startswith(scope + ".")
            for scope in self.scopes
        )

    def diag(self, module: ModuleUnderLint, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
        )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        raise NotImplementedError


RULES: List[LintRule] = []


def register(cls):
    """Class decorator adding one rule instance to the global registry."""
    RULES.append(cls())
    return cls


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str:
    """'time.time' for Attribute/Name chains; '' when not a plain chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


@register
class WallClockRule(LintRule):
    """The kernel's clock is ``sim.now``; wall clocks desynchronize replays."""

    name = "wall-clock"
    description = (
        "no wall-clock calls (time.time/monotonic/perf_counter/sleep, "
        "datetime.now) anywhere in src/ — use sim.now / sim.timeout; "
        "repro.perf (the host profiling plane) is the one exempt package"
    )
    # Host time is forbidden *everywhere* in src/, not just the sim stack:
    # a wall read in a tool or report helper is one refactor away from a
    # scheduling decision.  repro.perf exists to hold every legal host-clock
    # read (docs/PROFILING.md), so it is exempt as a module allowlist
    # rather than via per-line disables.
    scopes = None
    exempt = ("repro.perf",)

    FORBIDDEN = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        # bare names, for `from time import perf_counter_ns` style imports
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "time_ns",
        "process_time",
        "process_time_ns",
    }

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in self.FORBIDDEN:
                    yield self.diag(
                        module,
                        node,
                        "%s() reads the wall clock; simulation code must use "
                        "sim.now / sim.timeout" % name,
                    )


@register
class GlobalRandomRule(LintRule):
    """Only seeded ``random.Random(seed)`` instances are reproducible."""

    name = "global-random"
    description = (
        "no module-level random functions, os.urandom, uuid, secrets or id() "
        "in the simulation stack — use a seeded random.Random instance"
    )
    # Every package whose values can reach a scheduling decision: a banned
    # source here needs no dataflow proof that it does.
    scopes = (
        "repro.sim",
        "repro.engine",
        "repro.core",
        "repro.storage",
        "repro.service",
        "repro.faults",
        "repro.baselines",
        "repro.workloads",
    )

    FORBIDDEN = {
        # an object address: differs from run to run
        "id",
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.uniform",
        "random.gauss",
        "random.expovariate",
        "random.betavariate",
        "random.seed",
        "random.getrandbits",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in self.FORBIDDEN:
                    yield self.diag(
                        module,
                        node,
                        "%s() differs from run to run; use a seeded "
                        "random.Random(seed) instance" % name,
                    )


@register
class UnorderedIterRule(LintRule):
    """Iteration order over a set is arbitrary; if it reaches a scheduling
    decision it breaks run-to-run determinism silently."""

    name = "unordered-iter"
    description = (
        "no iteration over set/frozenset expressions (or names bound to "
        "them in the same scope) — wrap in sorted() or use an ordered "
        "container"
    )
    scopes = None

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(_functions(module.tree))
        for scope in scopes:
            set_names = {
                target.id
                for node in _own_nodes(scope)
                if isinstance(node, ast.Assign) and _is_set_expr(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }

            def _setish(expr: ast.AST) -> bool:
                if _is_set_expr(expr):
                    return True
                return isinstance(expr, ast.Name) and expr.id in set_names

            for node in _own_nodes(scope):
                iters = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and node.args
                ):
                    iters.append(node.args[0])
                for it in iters:
                    if _setish(it):
                        yield self.diag(
                            module,
                            it,
                            "iteration over an unordered set; iteration order "
                            "is arbitrary — use sorted(...) or an ordered "
                            "container",
                        )


def _lock_calls(func: ast.AST) -> Tuple[dict, dict]:
    """Receiver -> its acquire calls (``acquire`` or the non-suspending
    ``acquire_now``), receiver -> its release calls, in one function body."""
    acquires: Dict[str, List[ast.Call]] = {}
    releases: Dict[str, List[ast.Call]] = {}
    for node in _own_nodes(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = _dotted(node.func.value)
            if recv and node.func.attr in ("acquire", "acquire_now"):
                acquires.setdefault(recv, []).append(node)
            elif recv and node.func.attr == "release":
                releases.setdefault(recv, []).append(node)
    return acquires, releases


def _waits(func: ast.AST) -> Iterator[ast.Yield]:
    """Every ``yield X.wait(...)`` in one function body."""
    for node in _own_nodes(func):
        if (
            isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "wait"
        ):
            yield node


@register
class LockPairingRule(LintRule):
    """A lexical acquire/release imbalance in one function is how leaked
    critical sections (and the silent-hang deadlocks they cause) start."""

    name = "lock-pairing"
    description = (
        "every X.acquire(...) or X.acquire_now(...) must have a matching "
        "X.release() in the same function body"
    )
    scopes = None

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for func in _functions(module.tree):
            acquires, releases = _lock_calls(func)
            for recv, calls in acquires.items():
                n_rel = len(releases.get(recv, ()))
                if len(calls) != n_rel:
                    yield self.diag(
                        module,
                        calls[0],
                        "%s.%s() appears %d time(s) but %s.release() "
                        "%d time(s) in %r; pair them lexically (try/finally) "
                        "or suppress with a reason if released elsewhere"
                        % (recv, calls[0].func.attr, len(calls), recv, n_rel, func.name),
                    )


@register
class CondvarWaitLoopRule(LintRule):
    """`yield cond.wait()` must sit inside a while loop re-checking its
    predicate: a woken waiter holds no guarantee the condition still holds."""

    name = "condvar-wait-loop"
    description = (
        "yield X.wait(...) must be inside a while loop that re-checks the "
        "predicate after wakeup"
    )
    scopes = None

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for func in _functions(module.tree):
            parents: Dict[ast.AST, ast.AST] = {}
            for node in _own_nodes(func):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            for node in _waits(func):
                ancestor = parents.get(node)
                in_while = False
                while ancestor is not None:
                    if isinstance(ancestor, ast.While):
                        in_while = True
                        break
                    ancestor = parents.get(ancestor)
                if not in_while:
                    yield self.diag(
                        module,
                        node,
                        "condvar wait outside a while loop in %r; spurious or "
                        "early wakeups need a predicate re-check" % func.name,
                    )


@register
class YieldWaitInCriticalRule(LintRule):
    """Blocking on a condvar while holding a FIFO sim lock deadlocks the
    waker if it ever needs the same lock; the paper's hand-off protocols
    always release before sleeping."""

    name = "yield-in-critical"
    description = (
        "no yield X.wait(...) between Y.acquire() (or Y.acquire_now()) and "
        "Y.release() — release the lock before sleeping, then re-check the guard"
    )
    scopes = None

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for func in _functions(module.tree):
            spans: List[Tuple[int, int]] = []
            acquires, releases = _lock_calls(func)
            for recv, calls in acquires.items():
                rel_lines = sorted(r.lineno for r in releases.get(recv, ()))
                for a in sorted(c.lineno for c in calls):
                    nxt = [r for r in rel_lines if r > a]
                    if nxt:
                        spans.append((a, nxt[0]))
            if not spans:
                continue
            for node in _waits(func):
                for a, r in spans:
                    if a < node.lineno < r:
                        yield self.diag(
                            module,
                            node,
                            "condvar wait at line %d inside the critical "
                            "section [%d, %d] in %r; release the lock before "
                            "sleeping" % (node.lineno, a, r, func.name),
                        )
                        break


@register
class AdhocMetricsRule(LintRule):
    """Engine/core/storage/baseline instrumentation must go through the
    env's StatsRegistry (``env.metrics`` — see docs/METRICS.md): a bare
    ``CounterGroup()``/``Histogram()`` or a benchmark collector threaded
    into a component is invisible to the sampler and the exporters, so the
    metric silently disappears from every stats artifact."""

    name = "adhoc-metrics"
    description = (
        "no ad-hoc CounterGroup()/Histogram() construction or "
        "collector.record(...) calls in engine/core/storage/baselines — "
        "register instruments on env.metrics"
    )
    scopes = ("repro.engine", "repro.core", "repro.storage", "repro.baselines")

    ADHOC_CONSTRUCTORS = {"CounterGroup", "Histogram"}
    COLLECTOR_METHODS = {"record", "record_latency", "note_memory"}

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in self.ADHOC_CONSTRUCTORS
            ):
                yield self.diag(
                    module,
                    node,
                    "%s() is an ad-hoc stats object the registry cannot see; "
                    "use env.metrics.group(...) / env.metrics.histogram(...)"
                    % node.func.id,
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.COLLECTOR_METHODS
                and "collector" in _dotted(node.func.value).lower()
            ):
                yield self.diag(
                    module,
                    node,
                    "%s.%s() threads a benchmark collector through a "
                    "component; components record into env.metrics and the "
                    "harness reads the registry"
                    % (_dotted(node.func.value), node.func.attr),
                )


@register
class UnlabeledWakeupRule(LintRule):
    """Every blocked-process release inside the simulation kernel must go
    through :func:`repro.sim.wakeup.wake` so the edge log sees a typed
    wakeup edge; a bare ``event.succeed()`` produces an unlabeled "event"
    edge and the critical-path extractor loses the resource attribution
    (docs/CRITPATH.md)."""

    name = "unlabeled-wakeup"
    description = (
        "no direct X.succeed(...) calls in repro.sim — release waiters via "
        "repro.sim.wakeup.wake(event, ..., resource=...) so the critical-path "
        "edge log records who woke whom and why"
    )
    scopes = ("repro.sim",)

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "succeed"
            ):
                yield self.diag(
                    module,
                    node,
                    "%s.succeed() bypasses the wakeup edge log; call "
                    "repro.sim.wakeup.wake(...) with a resource label instead"
                    % (_dotted(node.func.value) or "<event>"),
                )


_RETRYABLE_ERRORS = {"KVError", "IOFailure", "TimedOut"}
_CRASH_SWALLOWERS = {"CrashTriggered", "Exception", "BaseException"}


def _caught_names(expr: Optional[ast.AST]) -> Optional[Set[str]]:
    """Last name components an ``except`` clause catches; None when bare."""
    if expr is None:
        return None
    names: Set[str] = set()
    elements = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    for element in elements:
        name = _dotted(element)
        if name:
            names.add(name.rsplit(".", 1)[-1])
    return names


@register
class CrashSwallowedRule(LintRule):
    """The error contract (docs/FAULTS.md): components degrade through typed
    ``KVError``s, and a simulated power loss (``CrashTriggered``) must abort
    the run.  A handler that can catch it — ``except CrashTriggered``,
    ``except Exception``, a bare ``except:`` — must re-raise."""

    name = "crash-swallowed"
    description = (
        "this except clause can catch CrashTriggered and does not "
        "re-raise; a simulated power loss would be silently ignored"
    )
    scopes = None

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for func in _functions(module.tree):
            yield from self._check_handlers(module, func)

    def _check_handlers(self, module: ModuleUnderLint, func: ast.AST) -> Iterator[Diagnostic]:
        for node in _own_nodes(func):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _caught_names(node.type)
            if caught is None:
                caught = {"<bare>"}
            swallowers = caught & (_CRASH_SWALLOWERS | {"<bare>"})
            if not swallowers:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue
            label = sorted(swallowers)[0]
            yield self.diag(
                module,
                node,
                "except %s in %r can swallow CrashTriggered without "
                "re-raising; a simulated power loss must abort the run, "
                "not be absorbed" % (
                    "(bare)" if label == "<bare>" else label, func.name),
            )


@register
class UnboundedRetryRule(LintRule):
    """A ``while True`` retry of a retryable ``KVError`` must give up after
    some attempts and back off between them, or a persistent fault turns
    into a simulation that never terminates."""

    name = "unbounded-retry"
    description = (
        "a retry loop on a retryable KVError must bound its attempts "
        "and back off between them"
    )
    scopes = None

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for func in _functions(module.tree):
            yield from self._check_retry_loops(module, func)

    def _check_retry_loops(self, module: ModuleUnderLint, func: ast.AST) -> Iterator[Diagnostic]:
        for loop in _own_nodes(func):
            if not isinstance(loop, ast.While):
                continue
            if not (
                isinstance(loop.test, ast.Constant) and loop.test.value is True
            ):
                # A real loop condition is itself a bound (worker shutdown
                # flags, drain conditions); only `while True` retries must
                # carry their own.
                continue
            if self._consumes_new_work(loop):
                continue
            has_backoff = any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "timeout"
                for n in ast.walk(loop)
            )
            for node in ast.walk(loop):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = _caught_names(node.type)
                if not caught or not (caught & _RETRYABLE_ERRORS):
                    continue
                last = node.body[-1] if node.body else None
                if isinstance(last, (ast.Raise, ast.Return, ast.Break)):
                    continue  # handler fails fast: not a retry
                has_bound = any(
                    isinstance(n, (ast.Raise, ast.Return, ast.Break))
                    for n in ast.walk(node)
                )
                error = sorted(caught & _RETRYABLE_ERRORS)[0]
                if not has_bound:
                    yield self.diag(
                        module,
                        node,
                        "retry of a retryable %s in %r never gives up: no "
                        "attempt bound (raise/return/break) is reachable "
                        "from the handler" % (error, func.name),
                    )
                if not has_backoff:
                    yield self.diag(
                        module,
                        node,
                        "retry of a retryable %s in %r has no backoff: add "
                        "a sim timeout between attempts" % (error, func.name),
                    )

    @staticmethod
    def _consumes_new_work(loop: ast.While) -> bool:
        """A loop that dequeues or condvar-waits before its try block is a
        service loop (fresh work each iteration), not a retry loop."""
        first_try = None
        for node in loop.body:
            if isinstance(node, ast.Try):
                first_try = node.lineno
                break
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "wait")
            ):
                if first_try is None or node.lineno < first_try:
                    return True
        return False


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def lint_module(module: ModuleUnderLint, rules: Optional[Sequence[LintRule]] = None) -> List[Diagnostic]:
    out = []
    for rule in rules if rules is not None else RULES:
        if not rule.applies_to(module.module):
            continue
        for diagnostic in rule.check(module):
            if not module.suppressed(rule.name, diagnostic.line):
                out.append(diagnostic)
    out.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return out


def lint_source(
    source: str,
    module: str = "repro.sim.testmodule",
    path: str = "<memory>",
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Diagnostic]:
    """Lint an in-memory source string (used by the unit tests)."""
    return lint_module(ModuleUnderLint(source, module, path), rules)


def _module_name(path: str) -> str:
    """Dotted module for a file path: .../src/repro/sim/core.py -> repro.sim.core."""
    normalized = path.replace("\\", "/")
    parts = normalized.split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    name = "/".join(parts)
    if name.endswith(".py"):
        name = name[:-3]
    name = name.replace("/__init__", "")
    return name.replace("/", ".")


def lint_paths(paths: Iterable[str]) -> List[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    import os

    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(
                    os.path.join(root, n) for n in names if n.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
    diagnostics: List[Diagnostic] = []
    for filename in sorted(files):
        with open(filename, "r") as f:
            source = f.read()
        diagnostics.extend(
            lint_module(ModuleUnderLint(source, _module_name(filename), filename))
        )
    return diagnostics
