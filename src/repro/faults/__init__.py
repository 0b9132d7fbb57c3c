"""Deterministic fault injection and crash-recovery plane.

Everything here is seed-driven and replayable: a given ``--fault-seed``
names one exact schedule of device errors, torn writes and crash points, so
a failing campaign reruns identically.  See docs/FAULTS.md.
"""

from repro.faults.oracle import ShadowMap
from repro.faults.plane import (
    CrashPoint,
    CrashTriggered,
    FaultPlane,
    install_faults,
    restore_durable_state,
    snapshot_durable_state,
    uninstall_faults,
)
from repro.faults.policy import FaultPolicy
from repro.faults.retry import retry_io

__all__ = [
    "CrashPoint",
    "CrashTriggered",
    "FaultPlane",
    "FaultPolicy",
    "ShadowMap",
    "install_faults",
    "restore_durable_state",
    "retry_io",
    "snapshot_durable_state",
    "uninstall_faults",
]
