"""Determinism lint and dynamic simulation sanitizers.

Two halves, one goal — keep the reproduction trustworthy:

* :mod:`repro.analysis.lint` — static AST rules (``python -m
  repro.tools.check --lint-only`` / ``make lint``) that reject nondeterminism at the
  source level: wall clocks, global RNGs, unordered-set iteration, unpaired
  lock acquire/release, condvar waits without a guard loop.
* :mod:`repro.analysis.sanitizer` — runtime monitors wired into the sim
  kernel: a lock-order graph with cycle (potential-deadlock) detection and a
  vector-clock happens-before data-race detector.
* :mod:`repro.analysis.perturb` — seeded schedule perturbation: shuffles
  same-time event delivery and asserts results are schedule-independent.
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.flow` — the
  whole-program pass (``python -m repro.tools.check``): a project symbol
  table and call graph feeding three interprocedural checkers — lock
  discipline (static lock-order cycles, blocking while locked),
  determinism taint (source→sink dataflow with reported paths), and the
  KVStatus/CrashTriggered/retry error contract.
* :mod:`repro.analysis.report` — the shared output contract: deterministic
  text/JSON/SARIF rendering and the committed-baseline machinery.
"""

from repro.analysis.callgraph import Project, load_project
from repro.analysis.flow import (
    FLOW_CHECKERS,
    FlowChecker,
    analyze_project,
    flow_rules,
    register_flow,
)
from repro.analysis.lint import Diagnostic, LintRule, RULES, lint_paths, lint_source, register
from repro.analysis.perturb import run_perturbed
from repro.analysis.sanitizer import Sanitizer, SanitizerError, install_sanitizer

__all__ = [
    "Diagnostic",
    "FLOW_CHECKERS",
    "FlowChecker",
    "LintRule",
    "Project",
    "RULES",
    "Sanitizer",
    "SanitizerError",
    "analyze_project",
    "flow_rules",
    "install_sanitizer",
    "lint_paths",
    "lint_source",
    "load_project",
    "register",
    "register_flow",
    "run_perturbed",
]
