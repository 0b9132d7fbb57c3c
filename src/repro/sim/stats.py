"""Time-binned measurement primitive of the simulated hardware.

:class:`TimeSeries` powers the one over-time plot the figures draw from the
hardware model: device bandwidth per time bin and category
(``StorageDevice.bandwidth_series``, read by Figure 4 and
``examples/device_timeline.py``).  CPU over time is not binned here — the
opt-in sampler's ``cpu.busy_cores`` gauge is that view
(:mod:`repro.metrics.sampler`); the CPU figures (4, 5a, 21b) report window
averages from ``CPUSet.core_busy_time``.  Counters and latency histograms
live in :mod:`repro.metrics.registry` (``CounterGroup``, ``Histogram``).
"""

from collections import defaultdict
from typing import Dict, List, Tuple

__all__ = ["TimeSeries"]


class TimeSeries:
    """Accumulates amounts into fixed-width time bins: add ``(when, amount)``
    pairs and read back per-bin rates."""

    def __init__(self, bin_width: float = 0.1):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self._bins: Dict[int, float] = defaultdict(float)

    def add(self, when: float, amount: float) -> None:
        self._bins[int(when / self.bin_width)] += amount

    def rates(self) -> List[Tuple[float, float]]:
        """Return [(bin_start_time, amount_per_second)] for populated bins."""
        return [
            (idx * self.bin_width, total / self.bin_width)
            for idx, total in sorted(self._bins.items())
        ]
