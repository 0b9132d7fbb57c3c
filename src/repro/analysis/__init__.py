"""Determinism lint and dynamic simulation sanitizers.

Three parts, one goal — keep the reproduction trustworthy:

* :mod:`repro.analysis.lint` — static AST rules (``python -m
  repro.tools.check`` / ``make check``), each looking at one function or
  module: wall clocks, global RNGs and ``id()``, unordered-set iteration,
  unpaired lock acquire/release, condvar waits without a guard loop or
  inside a critical section, ad-hoc metrics, unlabeled wakeups, handlers
  that swallow a simulated crash, and retries that never give up.
* :mod:`repro.analysis.sanitizer` — runtime monitors wired into the sim
  kernel: a lock-order graph with cycle (potential-deadlock) detection and a
  vector-clock happens-before data-race detector.
* :mod:`repro.analysis.perturb` — seeded schedule perturbation: shuffles
  same-time event delivery and asserts results are schedule-independent.
"""

from repro.analysis.lint import Diagnostic, LintRule, RULES, lint_paths, lint_source, register
from repro.analysis.perturb import run_perturbed
from repro.analysis.sanitizer import Sanitizer, SanitizerError, install_sanitizer

__all__ = [
    "Diagnostic",
    "LintRule",
    "RULES",
    "Sanitizer",
    "SanitizerError",
    "install_sanitizer",
    "lint_paths",
    "lint_source",
    "register",
    "run_perturbed",
]
