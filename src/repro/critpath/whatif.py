"""Causal "what-if" prediction from the makespan critical path.

Coz-style virtual speedup, exact instead of sampled: because the DES is
deterministic we can (a) *predict* the effect of speeding up one resource
from the blame the makespan path assigns to it, and (b) *measure* the true
effect by re-running the identical workload with that resource's service
time actually scaled (``CPUSet.category_scale`` /
``StorageDevice.category_scale`` / a respecced channel count).  Agreement
between the two is the end-to-end proof that the extracted path is causal —
``tests/test_critpath.py`` and ``make smoke`` assert it.

The prediction: over a measured window of length ``elapsed``, completions
are gated by the makespan path.  Scaling resource R's service time by
``factor`` removes ``blame(R) * (1 - factor)`` seconds from that path, so

    predicted_qps_delta = elapsed / (elapsed - saving) - 1

Adding a device channel instead relieves *channel queueing*: of the
``device_queue`` time on the path, roughly ``delta / (channels + delta)``
disappears (FIFO service with one more server).

Predictions are first-order: they ignore second-order scheduling shifts
(the path re-routing through the next-tightest resource), so the check
tolerance is deliberately loose — within 25% relative (2 pp absolute floor)
of the measured delta.
"""

from typing import Dict, List, Optional

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "check_prediction",
    "predicted_delta",
    "predicted_saving",
]


class Experiment:
    """One virtual-speedup experiment: a knob and how to predict it."""

    __slots__ = ("name", "kind", "category", "factor", "delta", "description")

    def __init__(
        self,
        name: str,
        kind: str,
        description: str,
        category: str = "",
        factor: float = 1.0,
        delta: int = 0,
    ):
        if kind not in ("cpu", "device", "channels"):
            raise ValueError("unknown experiment kind %r" % (kind,))
        self.name = name
        self.kind = kind
        self.category = category
        self.factor = factor
        self.delta = delta
        self.description = description

    def __repr__(self) -> str:
        return "Experiment(%r, %s)" % (self.name, self.description)


#: The pinned experiment menu (insertion order = presentation order).
EXPERIMENTS: Dict[str, Experiment] = {}
for _exp in [
    Experiment(
        "wal-write-0.8x",
        "device",
        "WAL device writes 0.8x service time",
        category="wal",
        factor=0.8,
    ),
    Experiment(
        "wal-write-0.5x",
        "device",
        "WAL device writes 0.5x service time",
        category="wal",
        factor=0.5,
    ),
    Experiment(
        "memtable-0.9x",
        "cpu",
        "memtable insert CPU 0.9x",
        category="memtable",
        factor=0.9,
    ),
    Experiment(
        "wal-cpu-0.8x",
        "cpu",
        "WAL serialization CPU 0.8x",
        category="wal",
        factor=0.8,
    ),
    Experiment(
        "channels+1",
        "channels",
        "one extra device channel",
        delta=1,
    ),
]:
    EXPERIMENTS[_exp.name] = _exp
del _exp


def _affected_seconds(rows: List[dict], experiment: Experiment) -> float:
    """Blame seconds on the makespan path that the experiment's knob scales."""
    total = 0.0
    for row in rows:
        label = row["label"]
        parts = label.split(":")
        if experiment.kind == "cpu":
            if parts[0] == "cpu" and parts[-1] == experiment.category:
                total += row["seconds"]
        elif experiment.kind == "device":
            if parts[0] == "device" and parts[-1] == experiment.category:
                total += row["seconds"]
        else:  # channels
            if parts[0] == "device_queue":
                total += row["seconds"]
    return total


def predicted_saving(
    report: Dict[str, object], experiment: Experiment, channels: int
) -> float:
    """Seconds the experiment removes from the makespan path, first-order."""
    makespan = report.get("makespan")
    if not makespan:
        return 0.0
    rows = makespan["blame"]["rows"]
    affected = _affected_seconds(rows, experiment)
    if experiment.kind == "channels":
        return affected * experiment.delta / float(channels + experiment.delta)
    return affected * (1.0 - experiment.factor)


def predicted_delta(
    report: Dict[str, object],
    experiment: Experiment,
    elapsed: float,
    channels: int,
) -> float:
    """Predicted relative throughput change (e.g. ``0.08`` = +8% QPS)."""
    saving = predicted_saving(report, experiment, channels)
    if elapsed <= 0 or saving >= elapsed:
        return 0.0
    return elapsed / (elapsed - saving) - 1.0


def check_prediction(predicted: float, measured: float) -> bool:
    """True when the prediction is within tolerance of the measured delta:
    25% relative, with a 2-percentage-point absolute floor for tiny deltas."""
    return abs(predicted - measured) <= max(0.25 * abs(measured), 0.02)
