"""Experiment harness: systems under test, load generation, metrics, reports."""

from repro.harness.metrics import Metrics, MetricsCollector
from repro.harness.report import ShapeCheck, format_qps, format_table
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
    "run_closed_loop",
    "run_open_loop",
]
