"""Seeded device-level fault decisions.

A ``FaultPolicy`` is installed on a ``StorageDevice`` (via
``install_faults``) and consulted once per IO submission.  It draws from a
private ``random.Random(seed)`` in submission order — which is itself
deterministic under the simulator — so one seed names one exact fault
schedule, replayable across reruns.
"""

from __future__ import annotations

import random

from repro.errors import IOFailure, TimedOut

__all__ = ["FaultPolicy"]

#: how many times longer a spiked IO takes.
SPIKE_FACTOR = 8.0


class FaultPolicy:
    """Decide, per device IO, whether to inject a fault.

    Rates are per-submission probabilities, checked in order: transient
    error (a share of which present as timeouts), torn write (writes only;
    a seeded prefix of the transfer still reaches the platter), latency
    spike (the IO succeeds but takes ``SPIKE_FACTOR``× longer).

    ``kinds`` / ``categories`` restrict targeting (e.g. only ``write`` IOs,
    only the ``wal`` category); ``max_faults`` caps total injections so a
    campaign scenario cannot degenerate into a permanently-dead device.
    """

    def __init__(self, seed, error_rate=0.0, torn_rate=0.0, spike_rate=0.0,
                 timeout_share=0.25,
                 kinds=("read", "write"), categories=None, max_faults=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.error_rate = error_rate
        self.torn_rate = torn_rate
        self.spike_rate = spike_rate
        self.timeout_share = timeout_share
        self.kinds = tuple(kinds)
        self.categories = None if categories is None else frozenset(categories)
        self.max_faults = max_faults
        #: label -> count of injected faults, for campaign reports.
        self.injected = {}
        #: sim times of every injection decision, in submission order — the
        #: detection ground truth the monitor's MTTD is scored against
        #: (appended by the device at submit, which owns the clock).
        self.injection_times = []

    def _count(self, label):
        self.injected[label] = self.injected.get(label, 0) + 1

    @property
    def total_injected(self):
        return sum(self.injected.values())

    def decide(self, kind, nbytes, category):
        """Return ``None`` (no fault), ``("fail", exc)`` or ``("spike", mult)``.

        ``exc`` is the fully-built typed error the device event will fail
        with; torn-write errors carry ``completed_bytes < nbytes``.
        """
        if kind not in self.kinds:
            return None
        if self.categories is not None and category not in self.categories:
            return None
        if self.max_faults is not None and self.total_injected >= self.max_faults:
            return None
        r = self.rng.random()
        if r < self.error_rate:
            self._count("transient")
            if self.rng.random() < self.timeout_share:
                return ("fail", TimedOut(
                    "injected device timeout", site=category, kind=kind))
            return ("fail", IOFailure(
                "injected transient IO error", site=category, kind=kind))
        r -= self.error_rate
        if r < self.torn_rate:
            if kind != "write" or nbytes <= 1:
                return None
            completed = self.rng.randrange(0, nbytes)
            self._count("torn")
            return ("fail", IOFailure(
                "torn write: %d/%d bytes reached the device" % (completed, nbytes),
                site=category, torn=True, completed_bytes=completed))
        r -= self.torn_rate
        if r < self.spike_rate:
            self._count("spike")
            return ("spike", SPIKE_FACTOR)
        return None
