"""The exported surface of ``src/repro`` stays the surface something uses.

Static half (ROADMAP item 4, docs/PROFILING.md "Reach audit"): every name a
module lists in ``__all__`` is loaded somewhere in the code a production run
can reach — ``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` — outside
its own definition; import lines and ``__all__`` lists do not count as uses.
A name only ``tests/`` uses is a mechanism only tests keep alive: delete it
with its tests, or allowlist it below under the exempt class that keeps it.

The same for settings (docs/PROFILING.md "Value audit"): every field of the
option records — ``EngineOptions``, ``CostModel``, ``DeviceSpec`` — is loaded
as an attribute somewhere in ``src/``; a field nothing reads is a value one
can set to no effect.

Dynamic half: the two off-states PR 20 made the rule cannot quietly come
back — a fresh kernel has no tracer object, and a default run records no
per-burst CPU series.
"""

import ast
import dataclasses
import pathlib

from repro.engine import make_env
from repro.engine.costs import CostModel
from repro.engine.options import EngineOptions
from repro.harness import run_closed_loop
from repro.sim.core import Simulator
from repro.sim.device import DeviceSpec
from repro.systems import open_system
from repro.workloads import fillrandom, split_stream

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRODUCTION = ("src", "benchmarks", "examples", "perfbench")

#: exported, used by no production code, kept by rule: name -> exempt class.
ALLOWED = {
    # test harness seams: how tests drive or undo a plane
    "uninstall_faults": "test seam (undo install_faults)",
    "lint_source": "test seam (lint one source string)",
    "run_perturbed": "test seam (a workload under several schedule seeds)",
}


def _loads(tree, skip):
    """Names and attributes loaded in ``tree``, not counting loads of a name
    inside its own top-level definition (``skip``: those names)."""
    used = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            owner = inside
            if node is tree and getattr(child, "name", None) in skip:
                owner = child.name
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id != owner:
                    used.add(child.id)
            elif isinstance(child, ast.Attribute):
                used.add(child.attr)
            visit(child, owner)

    visit(tree, None)
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_exported_name_is_used_by_production_code():
    exported = {}  # name -> defining module
    used = set()
    for top in PRODUCTION:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = []
            if top == "src" and path.name != "__init__.py":
                names = _exported(tree)
                for name in names:
                    exported[name] = str(path.relative_to(ROOT))
            used |= _loads(tree, set(names))
    unused = {name: where for name, where in exported.items() if name not in used}
    assert sorted(unused) == sorted(ALLOWED), (
        "exported but used by nothing under %s (delete it, or allowlist it "
        "with its exempt class): %s; stale allowlist entries: %s"
        % (
            "/".join(PRODUCTION),
            {n: w for n, w in unused.items() if n not in ALLOWED},
            sorted(set(ALLOWED) - set(unused)),
        )
    )


def test_every_option_record_field_is_read_by_production_code():
    read = set()  # every attribute src/ loads (a field's declaration is not one)
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        "%s.%s" % (cls.__name__, field.name)
        for cls in (EngineOptions, CostModel, DeviceSpec)
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert not unread, "option-record fields nothing in src/ reads: %s" % unread


def test_off_means_absent():
    assert Simulator().tracer is None
    env = make_env()
    assert env.sim.tracer is None
    system = open_system("p2kvs", env, workers=2)
    run_closed_loop(env, system, split_stream(list(fillrandom(200)), 2))
    assert sum(env.cpu.core_busy_time) > 0  # the run did burn CPU
    assert not hasattr(env.cpu, "trackers")
