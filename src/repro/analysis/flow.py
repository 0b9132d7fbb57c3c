"""Whole-program static flow analyses over the project call graph.

Where :mod:`repro.analysis.lint` checks one module at a time and
:mod:`repro.analysis.sanitizer` checks one *executed schedule* at a time,
the checkers here reason about every path through every function, across
call boundaries, using the :class:`~repro.analysis.callgraph.Project`
symbol table.  Three checkers:

* **lock discipline** (``lock-order-cycle``, ``blocking-while-locked``) —
  builds a static lock-order graph from lexical ``acquire``/``release``
  spans plus the locks reachable through calls made inside them, reports
  cycles (potential deadlocks on schedules no test ever ran), and reports
  any call chain that may block — condvar wait, queue hand-off, device IO —
  while a lock is held;
* **determinism taint** (``determinism-taint``) — source→sink dataflow
  from nondeterminism sources (wall clock, process-global RNG, ``id()``,
  unordered-set iteration) through assignments, returns and call arguments
  into scheduling/comparison sinks (``timeout``, ``exec``, ``submit``,
  ``sorted``/``sort``, ``heappush``, ``Random(seed)``), reporting the full
  propagation path;
* **status contract** (``status-discarded``, ``crash-swallowed``,
  ``unbounded-retry``) — every call producing a ``KVStatus`` must consume
  it, no ``except`` clause may swallow ``CrashTriggered`` without
  re-raising, and every ``while True`` retry of a retryable ``KVError``
  must be bounded and backed off.

Diagnostics reuse the lint :class:`~repro.analysis.lint.Diagnostic` and the
same ``# lint: disable=<rule>`` suppression machinery, and are emitted in a
deterministic order.  ``python -m repro.tools.check`` runs lint and flow
together; see docs/ANALYSIS.md.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import FunctionInfo, Project
from repro.analysis.lint import (
    Diagnostic,
    GlobalRandomRule,
    ModuleUnderLint,
    WallClockRule,
    _dotted,
    _is_set_expr,
    _module_name,
    _own_nodes,
)

__all__ = [
    "FLOW_CHECKERS",
    "FlowChecker",
    "analyze_project",
    "flow_rules",
    "register_flow",
]

#: max propagation-chain entries kept on a taint tag (diagnostic brevity).
_MAX_CHAIN = 6
#: fixpoint iteration cap — call-graph depth in this tree is far below it.
_MAX_PASSES = 20


class FlowChecker:
    """Base class: subclass, declare ``rules``, implement ``check``."""

    #: (rule-id, description) pairs this checker can emit.
    rules: Tuple[Tuple[str, str], ...] = ()

    def diag(
        self, func: FunctionInfo, node: ast.AST, rule: str, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=func.path,
            line=getattr(node, "lineno", func.lineno),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        raise NotImplementedError


FLOW_CHECKERS: List[FlowChecker] = []


def register_flow(cls):
    """Class decorator adding one checker instance to the registry."""
    FLOW_CHECKERS.append(cls())
    return cls


def flow_rules() -> List[Tuple[str, str]]:
    """Every (rule-id, description) the flow checkers can emit, sorted."""
    out = []
    for checker in FLOW_CHECKERS:
        out.extend(checker.rules)
    return sorted(out)


def _loc(func: FunctionInfo, node: ast.AST) -> str:
    return "%s:%d" % (func.path, getattr(node, "lineno", func.lineno))


def _is_spawn_arg(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """True when ``node`` is (inside) an argument to ``spawn(...)`` — a
    spawned generator runs as its own process, so its blocking is not the
    caller's blocking."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.Call):
            name = _dotted(current.func)
            if name.rsplit(".", 1)[-1] == "spawn":
                return True
        current = parents.get(current)
    return False


def _parents_of(func_node: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(func_node):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# ---------------------------------------------------------------------------
# lock discipline
# ---------------------------------------------------------------------------


#: methods that block the calling process (beyond taking another lock).
_BLOCKING_WAIT = "wait"
_DEVICE_METHODS = {"read", "write", "submit", "transfer"}
_QUEUE_METHODS = {"get", "put"}
#: calls that *model cost* rather than block on shared state: a critical
#: section is allowed to charge CPU time or sleep a bounded sim delay.
_ALLOWED_IN_CRITICAL = {"exec", "timeout"}


@dataclass
class _LockSummary:
    """What one function does, transitively, lock-wise."""

    #: lock-ids acquired anywhere inside (directly or via callees).
    acquires: Dict[str, str] = field(default_factory=dict)  # id -> loc
    #: first blocking operation, as (kind, description, location) or None.
    blocking: Optional[Tuple[str, str, str]] = None


class _LockAnalysis:
    """Shared state for the lock-discipline pass over one project."""

    def __init__(self, project: Project):
        self.project = project
        #: attr name -> sorted owner-class quals, for lock-typed attributes.
        self.lock_attr_owners: Dict[str, List[str]] = {}
        self._index_lock_attrs()
        self.local_types: Dict[str, Dict[str, str]] = {}
        self.summaries: Dict[str, _LockSummary] = {}

    _LOCK_CLASSES = (
        "repro.sim.sync.Lock",
        "repro.sim.sync.Semaphore",
    )

    def _index_lock_attrs(self) -> None:
        for cls_qual in sorted(self.project.classes):
            info = self.project.classes[cls_qual]
            for attr in sorted(info.attr_types):
                if info.attr_types[attr] in self._LOCK_CLASSES:
                    self.lock_attr_owners.setdefault(attr, []).append(cls_qual)
        for attr in self.lock_attr_owners:
            self.lock_attr_owners[attr].sort()

    def lock_id(self, recv: str, func: FunctionInfo) -> str:
        """A stable, project-wide identity for a lock receiver expression.

        ``self.read_lock`` inside a class whose ``__init__`` assigned it a
        ``Lock(...)`` becomes ``module.Class.read_lock``; an attribute name
        owned by exactly one class resolves the same way from any module;
        anything else keys on the bare attribute name (still deterministic,
        at worst merging same-named locks — a *may* over-approximation).
        """
        leaf = recv.rsplit(".", 1)[-1]
        if recv.startswith("self.") and func.class_name is not None:
            owners = self.lock_attr_owners.get(leaf, [])
            for owner in owners:
                if self.project.lookup_method(func.class_name, "__init__") and (
                    owner == func.class_name
                    or owner in [c.qualname for c in self.project.class_mro(func.class_name)]
                ):
                    return owner + "." + leaf
        owners = self.lock_attr_owners.get(leaf, [])
        if len(owners) == 1:
            return owners[0] + "." + leaf
        return leaf

    # -- summaries ---------------------------------------------------------

    def summarize_all(self) -> None:
        quals = sorted(self.project.functions)
        for qual in quals:
            self.local_types[qual] = self.project.local_types(qual)
            self.summaries[qual] = _LockSummary()
        for _ in range(_MAX_PASSES):
            changed = False
            for qual in quals:
                if self._summarize(qual):
                    changed = True
            if not changed:
                break

    def _classify_blocking(
        self, call: ast.Call, func: FunctionInfo
    ) -> Optional[Tuple[str, str]]:
        """(kind, description) when this very call blocks the process."""
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        recv = _dotted(call.func.value)
        lowered = recv.lower()
        if method == _BLOCKING_WAIT:
            return ("condvar", "%s.wait()" % (recv or "<cond>"))
        if method in _DEVICE_METHODS and "device" in lowered:
            return ("device-io", "%s.%s()" % (recv, method))
        if method in _QUEUE_METHODS and "queue" in lowered:
            return ("queue", "%s.%s()" % (recv, method))
        callee = self.project.resolve_call(
            call, func, self.local_types.get(func.qualname)
        )
        if callee is not None:
            if callee.module == "repro.sim.device" and method in _DEVICE_METHODS:
                return ("device-io", "%s.%s()" % (recv or "device", method))
            if callee.module == "repro.sim.queues" and method in _QUEUE_METHODS:
                return ("queue", "%s.%s()" % (recv or "queue", method))
        return None

    def _summarize(self, qual: str) -> bool:
        func = self.project.functions[qual]
        summary = self.summaries[qual]
        parents = _parents_of(func.node)
        changed = False
        blocking = summary.blocking
        for node in sorted(
            (n for n in _own_nodes(func.node) if isinstance(n, ast.Call)),
            key=lambda n: (n.lineno, n.col_offset),
        ):
            if _is_spawn_arg(node, parents):
                continue
            fname = _dotted(node.func)
            leaf = fname.rsplit(".", 1)[-1]
            if leaf in _ALLOWED_IN_CRITICAL:
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
                recv = _dotted(node.func.value)
                if recv:
                    lock = self.lock_id(recv, func)
                    if lock not in summary.acquires:
                        summary.acquires[lock] = _loc(func, node)
                        changed = True
                continue
            direct = self._classify_blocking(node, func)
            if direct is not None and blocking is None:
                blocking = (direct[0], direct[1], _loc(func, node))
                continue
            callee = self.project.resolve_call(
                node, func, self.local_types.get(qual)
            )
            if callee is None or callee.qualname == qual:
                continue
            sub = self.summaries.get(callee.qualname)
            if sub is None:
                continue
            for lock, loc in sub.acquires.items():
                if lock not in summary.acquires:
                    summary.acquires[lock] = loc
                    changed = True
            if sub.blocking is not None and blocking is None:
                kind, desc, loc = sub.blocking
                blocking = (
                    kind,
                    "%s() -> %s" % (callee.name, desc),
                    loc,
                )
        if blocking != summary.blocking:
            summary.blocking = blocking
            changed = True
        return changed

    # -- critical sections -------------------------------------------------

    def spans(self, func: FunctionInfo) -> List[Tuple[int, int, str, str]]:
        """Lexical (acquire_line, release_line, lock_id, receiver) spans."""
        acquires: Dict[str, List[int]] = {}
        releases: Dict[str, List[int]] = {}
        for node in _own_nodes(func.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = _dotted(node.func.value)
                if not recv:
                    continue
                if node.func.attr == "acquire":
                    acquires.setdefault(recv, []).append(node.lineno)
                elif node.func.attr == "release":
                    releases.setdefault(recv, []).append(node.lineno)
        out = []
        for recv in sorted(acquires):
            rel_lines = sorted(releases.get(recv, []))
            for a in sorted(acquires[recv]):
                nxt = [r for r in rel_lines if r > a]
                if nxt:
                    out.append((a, nxt[0], self.lock_id(recv, func), recv))
        return out


@register_flow
class LockDisciplineChecker(FlowChecker):
    """Static approximation of the runtime lock-order sanitizer: the graph
    covers every path in the source, not just the one schedule a test ran."""

    rules = (
        (
            "lock-order-cycle",
            "the static lock-order graph (A held while acquiring B, through "
            "calls) contains a cycle — a potential deadlock",
        ),
        (
            "blocking-while-locked",
            "a call chain may block — condvar wait, queue hand-off, device "
            "IO — while holding a lock; release before sleeping",
        ),
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        analysis = _LockAnalysis(project)
        analysis.summarize_all()
        #: (held, wanted) -> (func, node, via) first occurrence.
        edges: Dict[Tuple[str, str], Tuple[FunctionInfo, ast.AST, str]] = {}
        for qual in sorted(project.functions):
            func = project.functions[qual]
            spans = analysis.spans(func)
            if not spans:
                continue
            parents = _parents_of(func.node)
            nodes = sorted(
                (n for n in _own_nodes(func.node) if isinstance(n, ast.Call)),
                key=lambda n: (n.lineno, n.col_offset),
            )
            for a, r, held, recv in spans:
                for node in nodes:
                    if not (a < node.lineno < r):
                        continue
                    if _is_spawn_arg(node, parents):
                        continue
                    fname = _dotted(node.func)
                    leaf = fname.rsplit(".", 1)[-1]
                    if leaf in _ALLOWED_IN_CRITICAL:
                        continue
                    is_attr = isinstance(node.func, ast.Attribute)
                    if is_attr and node.func.attr == "acquire":
                        recv2 = _dotted(node.func.value)
                        if recv2 and recv2 != recv:
                            wanted = analysis.lock_id(recv2, func)
                            if wanted != held:
                                edges.setdefault(
                                    (held, wanted), (func, node, "directly")
                                )
                        continue
                    if is_attr and node.func.attr == "release":
                        continue
                    direct = analysis._classify_blocking(node, func)
                    if direct is not None:
                        yield self.diag(
                            func,
                            node,
                            "blocking-while-locked",
                            "%s while holding lock %r (acquired line %d in "
                            "%r) — a %s blocks this process inside the "
                            "critical section"
                            % (direct[1], held, a, func.name, direct[0]),
                        )
                        continue
                    callee = project.resolve_call(
                        node, func, analysis.local_types.get(qual)
                    )
                    if callee is None or callee.qualname == qual:
                        continue
                    sub = analysis.summaries.get(callee.qualname)
                    if sub is None:
                        continue
                    for lock in sorted(sub.acquires):
                        if lock != held:
                            edges.setdefault(
                                (held, lock),
                                (func, node, "via %s() [%s]" % (
                                    callee.name, sub.acquires[lock])),
                            )
                    if sub.blocking is not None:
                        kind, desc, loc = sub.blocking
                        yield self.diag(
                            func,
                            node,
                            "blocking-while-locked",
                            "call chain %s() -> %s [%s] may block (%s) while "
                            "holding lock %r (acquired line %d in %r)"
                            % (callee.name, desc, loc, kind, held, a, func.name),
                        )
        yield from self._cycle_diags(edges)

    def _cycle_diags(
        self, edges: Dict[Tuple[str, str], Tuple[FunctionInfo, ast.AST, str]]
    ) -> Iterator[Diagnostic]:
        graph: Dict[str, Set[str]] = {}
        for held, wanted in edges:
            graph.setdefault(held, set()).add(wanted)
        reported: Set[Tuple[str, ...]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = tuple(sorted(set(cycle)))
            if key in reported:
                continue
            reported.add(key)
            first = min(
                (e for e in edges if e[0] in key and e[1] in key),
                key=lambda e: (edges[e][0].path, edges[e][1].lineno),
            )
            func, node, via = edges[first]
            chain = " -> ".join(cycle + [cycle[0]])
            yield self.diag(
                func,
                node,
                "lock-order-cycle",
                "lock-order cycle %s (edge %s -> %s added here %s); two "
                "processes taking these locks in opposite orders deadlock"
                % (chain, first[0], first[1], via),
            )

    @staticmethod
    def _find_cycle(graph: Dict[str, Set[str]], start: str) -> Optional[List[str]]:
        path: List[str] = []
        on_path: Set[str] = set()
        visited: Set[str] = set()

        def dfs(node: str) -> Optional[List[str]]:
            if node in on_path:
                return path[path.index(node):]
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for succ in sorted(graph.get(node, ())):
                found = dfs(succ)
                if found is not None:
                    return found
            path.pop()
            on_path.remove(node)
            return None

        return dfs(start)


# ---------------------------------------------------------------------------
# determinism taint
# ---------------------------------------------------------------------------


#: modules whose scheduling sinks matter (the deterministic simulation);
#: tools/harness may read wall clocks for *reporting* without harm.
_TAINT_SINK_SCOPES = (
    "repro.sim",
    "repro.engine",
    "repro.core",
    "repro.storage",
    "repro.service",
    "repro.faults",
    "repro.baselines",
    "repro.workloads",
)

_SINK_METHODS = {"timeout", "exec", "submit", "sort", "heappush"}
_SINK_NAMES = {"sorted", "heappush"}
_SEED_SINKS = {"Random", "random.Random"}


@dataclass(frozen=True)
class _Src:
    """An intrinsic nondeterminism source plus its propagation chain."""

    desc: str
    chain: Tuple[str, ...]

    def extend(self, hop: str) -> "_Src":
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return _Src(self.desc, self.chain + (hop,))


@dataclass(frozen=True)
class _Param:
    index: int


@dataclass
class _TaintSummary:
    intrinsic: Optional[_Src] = None     # return value tainted regardless
    param_return: Tuple[int, ...] = ()   # param indices that flow to return


class _TaintAnalysis:
    def __init__(self, project: Project):
        self.project = project
        self.wall = set(WallClockRule.FORBIDDEN)
        self.rand = set(GlobalRandomRule.FORBIDDEN)
        self.summaries: Dict[str, _TaintSummary] = {}
        #: final per-function name->tags maps from the last bottom-up pass.
        self.names: Dict[str, Dict[str, Set[object]]] = {}
        #: (func_qual, param_index) -> _Src from the worst caller.
        self.param_taint: Dict[Tuple[str, int], _Src] = {}
        self.local_types: Dict[str, Dict[str, str]] = {}

    # -- expression tagging -------------------------------------------------

    def _source_of_call(self, call: ast.Call, func: FunctionInfo) -> Optional[_Src]:
        name = _dotted(call.func)
        if name in self.wall:
            return _Src("%s() [wall clock] at %s" % (name, _loc(func, call)), ())
        if name in self.rand:
            return _Src(
                "%s() [global RNG] at %s" % (name, _loc(func, call)), ()
            )
        if name == "id" and isinstance(call.func, ast.Name):
            return _Src("id() [address-dependent] at %s" % _loc(func, call), ())
        return None

    def _expr_tags(
        self,
        expr: ast.AST,
        func: FunctionInfo,
        names: Dict[str, Set[object]],
    ) -> Set[object]:
        tags: Set[object] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                tags |= names.get(node.id, set())
            elif isinstance(node, ast.Call):
                src = self._source_of_call(node, func)
                if src is not None:
                    tags.add(src)
                    continue
                callee = self.project.resolve_call(
                    node, func, self.local_types.get(func.qualname)
                )
                if callee is None:
                    continue
                if callee.module == "repro.perf" or callee.module.startswith(
                    "repro.perf."
                ):
                    # Anything the host-profiling plane returns is host time
                    # (or derived from it) by definition; tag it at the call
                    # boundary so a leak is caught even when the summary
                    # pass cannot see through the profiler's internals.
                    tags.add(
                        _Src(
                            "%s() [host time: repro.perf] at %s"
                            % (callee.name, _loc(func, node)),
                            (),
                        )
                    )
                    continue
                summary = self.summaries.get(callee.qualname)
                if summary is None:
                    continue
                if summary.intrinsic is not None:
                    tags.add(
                        summary.intrinsic.extend(
                            "returned by %s() at %s" % (callee.name, _loc(func, node))
                        )
                    )
                if summary.param_return:
                    args = list(node.args)
                    for index in summary.param_return:
                        # Account for the bound receiver: method param 0 is
                        # ``self``, which is not in the call's arg list.
                        offset = 1 if callee.class_name is not None else 0
                        pos = index - offset
                        if 0 <= pos < len(args):
                            for tag in self._expr_tags(args[pos], func, names):
                                tags.add(self._hop(tag, callee, func, node))
        return tags

    def _hop(self, tag: object, callee: FunctionInfo, func: FunctionInfo, node: ast.AST) -> object:
        if isinstance(tag, _Src):
            return tag.extend(
                "through %s() at %s" % (callee.name, _loc(func, node))
            )
        return tag

    def _set_iteration_sources(
        self, func: FunctionInfo, names: Dict[str, Set[object]]
    ) -> bool:
        """Taint loop/comprehension targets drawn from unordered sets."""
        set_names = {
            t.id
            for n in _own_nodes(func.node)
            if isinstance(n, ast.Assign) and _is_set_expr(n.value)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        changed = False
        for node in _own_nodes(func.node):
            pairs: List[Tuple[ast.AST, ast.AST]] = []
            if isinstance(node, ast.For):
                pairs.append((node.target, node.iter))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                pairs.extend((g.target, g.iter) for g in node.generators)
            for target, it in pairs:
                setish = _is_set_expr(it) or (
                    isinstance(it, ast.Name) and it.id in set_names
                )
                if not setish:
                    continue
                src = _Src(
                    "iteration over unordered set at %s" % _loc(func, it), ()
                )
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        if src not in names.get(t.id, set()):
                            names.setdefault(t.id, set()).add(src)
                            changed = True
        return changed

    # -- per-function fixpoint ---------------------------------------------

    def _analyze_function(self, qual: str) -> bool:
        func = self.project.functions[qual]
        names = self.names[qual]
        changed = False
        for index, param in enumerate(func.params):
            if _Param(index) not in names.get(param, set()):
                names.setdefault(param, set()).add(_Param(index))
                changed = True
        if self._set_iteration_sources(func, names):
            changed = True
        returns: Set[object] = set()
        statements = sorted(
            _own_nodes(func.node), key=lambda n: getattr(n, "lineno", 0)
        )
        for node in statements:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                tags = self._expr_tags(value, func, names)
                if not tags:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name) and not tags <= names.get(
                            t.id, set()
                        ):
                            names.setdefault(t.id, set()).update(tags)
                            changed = True
            elif isinstance(node, ast.For):
                tags = self._expr_tags(node.iter, func, names)
                if tags:
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name) and not tags <= names.get(
                            t.id, set()
                        ):
                            names.setdefault(t.id, set()).update(tags)
                            changed = True
            elif isinstance(node, ast.Return) and node.value is not None:
                returns |= self._expr_tags(node.value, func, names)
        summary = self.summaries[qual]
        intrinsic = summary.intrinsic
        for tag in sorted(
            (t for t in returns if isinstance(t, _Src)),
            key=lambda t: (t.desc, t.chain),
        ):
            if intrinsic is None:
                intrinsic = tag
            break
        param_return = tuple(
            sorted({t.index for t in returns if isinstance(t, _Param)})
        )
        if intrinsic != summary.intrinsic or param_return != summary.param_return:
            self.summaries[qual] = _TaintSummary(intrinsic, param_return)
            return True
        return changed

    def run(self) -> None:
        quals = sorted(self.project.functions)
        for qual in quals:
            self.summaries[qual] = _TaintSummary()
            self.names[qual] = {}
            self.local_types[qual] = self.project.local_types(qual)
        for _ in range(_MAX_PASSES):
            changed = False
            for qual in quals:
                if self._analyze_function(qual):
                    changed = True
            if not changed:
                break
        self._propagate_param_taint()

    def _propagate_param_taint(self) -> None:
        """Top-down: mark params that some call site feeds a tainted value."""
        for _ in range(_MAX_PASSES):
            changed = False
            for qual in sorted(self.project.functions):
                func = self.project.functions[qual]
                names = self.names[qual]
                for node in sorted(
                    (n for n in ast.walk(func.node) if isinstance(n, ast.Call)),
                    key=lambda n: (n.lineno, n.col_offset),
                ):
                    callee = self.project.resolve_call(
                        node, func, self.local_types.get(qual)
                    )
                    if callee is None:
                        continue
                    offset = 1 if callee.class_name is not None else 0
                    for pos, arg in enumerate(node.args):
                        index = pos + offset
                        key = (callee.qualname, index)
                        if key in self.param_taint:
                            continue
                        src = self._effective_src(
                            self._expr_tags(arg, func, names), qual
                        )
                        if src is not None:
                            self.param_taint[key] = src.extend(
                                "passed to %s(%s) at %s"
                                % (
                                    callee.name,
                                    callee.params[index]
                                    if index < len(callee.params)
                                    else "arg%d" % index,
                                    _loc(func, node),
                                )
                            )
                            changed = True
            if not changed:
                break

    def _effective_src(self, tags: Set[object], qual: str) -> Optional[_Src]:
        """Resolve Param tags through the computed caller taint."""
        candidates = [t for t in tags if isinstance(t, _Src)]
        for tag in tags:
            if isinstance(tag, _Param):
                src = self.param_taint.get((qual, tag.index))
                if src is not None:
                    candidates.append(src)
        if not candidates:
            return None
        return min(candidates, key=lambda t: (t.desc, t.chain))


@register_flow
class DeterminismTaintChecker(FlowChecker):
    """Flow-sensitive, call-aware upgrade of the wall-clock / global-random
    / unordered-iter lint rules: a source is only an error once it *reaches*
    a scheduling or comparison sink, and the diagnostic shows the path."""

    rules = (
        (
            "determinism-taint",
            "a nondeterministic value (wall clock, global RNG, id(), "
            "unordered-set iteration) flows into a scheduling/comparison "
            "sink; the run is no longer a pure function of its seeds",
        ),
        (
            "host-time-leak",
            "a value returned from the repro.perf host-profiling plane "
            "flows into a sim-side sink (timeout/exec/submit/sort key); "
            "profiling must never influence the simulation",
        ),
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        analysis = _TaintAnalysis(project)
        analysis.run()
        for qual in sorted(project.functions):
            func = project.functions[qual]
            if not func.module.startswith(_TAINT_SINK_SCOPES):
                continue
            names = analysis.names[qual]
            for node in sorted(
                (n for n in ast.walk(func.node) if isinstance(n, ast.Call)),
                key=lambda n: (n.lineno, n.col_offset),
            ):
                sink = self._sink_name(node)
                if sink is None:
                    continue
                exprs = list(node.args) + [k.value for k in node.keywords]
                for arg in exprs:
                    src = analysis._effective_src(
                        analysis._expr_tags(arg, func, names), qual
                    )
                    if src is None:
                        continue
                    path = " -> ".join((src.desc,) + src.chain + (
                        "sinks at %s(...) [%s]" % (sink, _loc(func, node)),
                    ))
                    rule = (
                        "host-time-leak"
                        if "[host time" in src.desc
                        else "determinism-taint"
                    )
                    yield self.diag(
                        func,
                        node,
                        rule,
                        "nondeterministic value reaches %s(...) in %r: %s"
                        % (sink, func.name, path),
                    )
                    break

    @staticmethod
    def _sink_name(node: ast.Call) -> Optional[str]:
        name = _dotted(node.func)
        if name in _SEED_SINKS:
            return name
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _SINK_METHODS:
                return name or node.func.attr
            return None
        if isinstance(node.func, ast.Name) and node.func.id in _SINK_NAMES:
            return node.func.id
        return None


# ---------------------------------------------------------------------------
# status contract
# ---------------------------------------------------------------------------


_STATUS_CONSTRUCTORS = {
    "KVStatus",
    "KVStatus.ok",
    "KVStatus.from_error",
    "KVStatus.not_found",
}
_RETRYABLE_ERRORS = {"KVError", "IOFailure", "TimedOut", "Stalled"}
_CRASH_SWALLOWERS = {"CrashTriggered", "Exception", "BaseException"}


class _StatusAnalysis:
    def __init__(self, project: Project):
        self.project = project
        self.returns_status: Set[str] = set()
        self.local_types = {
            qual: project.local_types(qual) for qual in project.functions
        }

    def run(self) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            for qual in sorted(self.project.functions):
                if qual in self.returns_status:
                    continue
                if self._function_returns_status(qual):
                    self.returns_status.add(qual)
                    changed = True
            if not changed:
                break

    def _function_returns_status(self, qual: str) -> bool:
        func = self.project.functions[qual]
        status_names: Set[str] = set()
        for _ in range(2):
            for node in _own_nodes(func.node):
                if isinstance(node, ast.Assign):
                    if self._is_status_expr(node.value, func, status_names):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                status_names.add(target.id)
        for node in _own_nodes(func.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._is_status_expr(node.value, func, status_names):
                    return True
        return False

    def _is_status_expr(
        self, expr: ast.AST, func: FunctionInfo, status_names: Set[str]
    ) -> bool:
        if isinstance(expr, (ast.YieldFrom, ast.Await)):
            return self._is_status_expr(expr.value, func, status_names)
        if isinstance(expr, ast.IfExp):
            return self._is_status_expr(
                expr.body, func, status_names
            ) or self._is_status_expr(expr.orelse, func, status_names)
        if isinstance(expr, ast.Name):
            return expr.id == "NOT_FOUND" or expr.id in status_names
        if isinstance(expr, ast.Call):
            name = _dotted(expr.func)
            if name in _STATUS_CONSTRUCTORS:
                return True
            callee = self.project.resolve_call(
                expr, func, self.local_types.get(func.qualname)
            )
            return (
                callee is not None and callee.qualname in self.returns_status
            )
        return False


@register_flow
class StatusContractChecker(FlowChecker):
    """Statically enforces the PR-5 error contract (docs/FAULTS.md): statuses
    are consumed, crashes propagate, retries terminate."""

    rules = (
        (
            "status-discarded",
            "the KVStatus produced by this call is discarded; an error "
            "outcome would vanish (a lost-ack bug under fault injection)",
        ),
        (
            "crash-swallowed",
            "this except clause can catch CrashTriggered and does not "
            "re-raise; a simulated power loss would be silently ignored",
        ),
        (
            "unbounded-retry",
            "a retry loop on a retryable KVError must bound its attempts "
            "and back off between them",
        ),
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        analysis = _StatusAnalysis(project)
        analysis.run()
        for qual in sorted(project.functions):
            func = project.functions[qual]
            yield from self._check_discards(project, analysis, func)
            yield from self._check_handlers(func)
            yield from self._check_retry_loops(func)

    # -- discarded statuses -------------------------------------------------

    def _check_discards(
        self, project: Project, analysis: _StatusAnalysis, func: FunctionInfo
    ) -> Iterator[Diagnostic]:
        for node in _own_nodes(func.node):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if isinstance(value, (ast.YieldFrom, ast.Await)):
                value = value.value
            if not isinstance(value, ast.Call):
                continue
            callee = project.resolve_call(
                value, func, analysis.local_types.get(func.qualname)
            )
            if callee is None or callee.qualname not in analysis.returns_status:
                continue
            yield self.diag(
                func,
                value,
                "status-discarded",
                "%s() returns a KVStatus that %r discards; check is_ok / "
                "raise_for_error() (or bind and consume it) so error "
                "outcomes cannot vanish" % (callee.name, func.name),
            )

    # -- crash swallowing ---------------------------------------------------

    def _check_handlers(self, func: FunctionInfo) -> Iterator[Diagnostic]:
        for node in _own_nodes(func.node):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._caught_names(node.type)
            if caught is None:
                caught = {"<bare>"}
            swallowers = caught & (_CRASH_SWALLOWERS | {"<bare>"})
            if not swallowers:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue
            label = sorted(swallowers)[0]
            yield self.diag(
                func,
                node,
                "crash-swallowed",
                "except %s in %r can swallow CrashTriggered without "
                "re-raising; a simulated power loss must abort the run, "
                "not be absorbed" % (
                    "(bare)" if label == "<bare>" else label, func.name),
            )

    @staticmethod
    def _caught_names(expr: Optional[ast.AST]) -> Optional[Set[str]]:
        if expr is None:
            return None
        names: Set[str] = set()
        elements = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        for element in elements:
            name = _dotted(element)
            if name:
                names.add(name.rsplit(".", 1)[-1])
        return names

    # -- retry loops --------------------------------------------------------

    def _check_retry_loops(self, func: FunctionInfo) -> Iterator[Diagnostic]:
        for loop in _own_nodes(func.node):
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
                caught = self._caught_names(node.type)
                if not caught or not (caught & _RETRYABLE_ERRORS):
                    continue
                last = node.body[-1] if node.body else None
                if isinstance(last, (ast.Raise, ast.Return, ast.Break)):
                    continue  # handler fails fast: not a retry
                has_bound = any(
                    isinstance(n, (ast.Raise, ast.Return, ast.Break))
                    for n in ast.walk(node)
                )
                if not has_bound:
                    yield self.diag(
                        func,
                        node,
                        "unbounded-retry",
                        "retry of a retryable %s in %r never gives up: no "
                        "attempt bound (raise/return/break) is reachable "
                        "from the handler"
                        % (sorted(caught & _RETRYABLE_ERRORS)[0], func.name),
                    )
                if not has_backoff:
                    yield self.diag(
                        func,
                        node,
                        "unbounded-retry",
                        "retry of a retryable %s in %r has no backoff: add "
                        "a sim timeout between attempts"
                        % (sorted(caught & _RETRYABLE_ERRORS)[0], func.name),
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


def analyze_project(
    project: Project, checkers: Optional[Sequence[FlowChecker]] = None
) -> List[Diagnostic]:
    """Run every flow checker over a loaded project, suppressions applied."""
    by_path: Dict[str, ModuleUnderLint] = {
        m.path: m for m in project.modules.values()
    }
    out: List[Diagnostic] = []
    for checker in checkers if checkers is not None else FLOW_CHECKERS:
        for diagnostic in checker.check(project):
            module = by_path.get(diagnostic.path)
            if module is not None and module.suppressed(
                diagnostic.rule, diagnostic.line
            ):
                continue
            out.append(diagnostic)
    out.sort(key=lambda d: (d.path, d.line, d.col, d.rule, d.message))
    return out
