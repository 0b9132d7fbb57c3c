"""``repro.monitor`` — the online health-monitoring plane.

Windowed telemetry over the live stats registry, a declarative alert-rule
engine (thresholds, rate-of-change, multi-window SLO burn rate, queue
saturation, silence watchdog) evaluated in sim time, and scored fault
detection (MTTD against the fault plane's injection ground truth).  See
docs/MONITOR.md for the rule catalogue and a worked walkthrough, and
``python -m repro.tools.serve --monitor`` for the CLI.
"""

from repro.monitor.monitor import DEFAULT_WINDOW, HealthMonitor, Incident
from repro.monitor.rules import (
    BurnRate,
    QueueSaturation,
    RateOfChange,
    Rule,
    ShardSilence,
    Threshold,
)
from repro.monitor.score import (
    ground_truth_from_env,
    render_narrative,
    score_detection,
)
from repro.monitor.service import attach_service_monitor, attach_store_monitor

__all__ = [
    "BurnRate",
    "DEFAULT_WINDOW",
    "HealthMonitor",
    "Incident",
    "QueueSaturation",
    "RateOfChange",
    "Rule",
    "ShardSilence",
    "Threshold",
    "attach_service_monitor",
    "attach_store_monitor",
    "ground_truth_from_env",
    "render_narrative",
    "score_detection",
]
