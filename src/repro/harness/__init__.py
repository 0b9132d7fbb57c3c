"""Experiment harness: systems under test, load generation, metrics, reports."""

from repro.harness.metrics import Metrics, MetricsCollector
from repro.harness.report import (
    ShapeCheck,
    format_qps,
    format_table,
    print_section,
)
from repro.harness.report import print_shape_checks
from repro.harness.runner import (
    KVellSystem,
    MultiInstanceSystem,
    P2KVSSystem,
    SingleInstanceSystem,
    WiredTigerSystem,
    open_system,
    preload,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "KVellSystem",
    "Metrics",
    "MetricsCollector",
    "MultiInstanceSystem",
    "P2KVSSystem",
    "ShapeCheck",
    "SingleInstanceSystem",
    "WiredTigerSystem",
    "format_qps",
    "format_table",
    "open_system",
    "preload",
    "print_section",
    "print_shape_checks",
    "run_closed_loop",
    "run_open_loop",
]
