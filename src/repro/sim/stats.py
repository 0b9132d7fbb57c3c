"""Time-binned measurement primitives of the simulated hardware.

These power the paper's over-time plots: IO bandwidth and CPU utilization
per time bin (Figures 4, 5, 21).  Counters and latency histograms live in
:mod:`repro.metrics.registry` (``CounterGroup``, ``Histogram``).
"""

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

__all__ = ["TimeSeries", "UtilizationTracker"]


class TimeSeries:
    """Accumulates amounts into fixed-width time bins.

    Used for bandwidth-over-time and CPU-utilization-over-time plots: add
    ``(when, amount)`` pairs and read back per-bin rates.
    """

    def __init__(self, bin_width: float = 0.1):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self._bins: Dict[int, float] = defaultdict(float)

    def add(self, when: float, amount: float) -> None:
        self._bins[int(when / self.bin_width)] += amount

    def add_interval(self, start: float, end: float, amount_per_second: float) -> None:
        """Spread a rate over [start, end), splitting across bin boundaries."""
        if end <= start:
            return
        width = self.bin_width
        first_bin = int(start / width)
        if end <= (first_bin + 1) * width:
            # Entire interval inside one bin — the common case for micro
            # bursts against the 0.1 ms stats bin; same arithmetic as one
            # iteration of the split loop below (seg_end == end).
            self._bins[first_bin] += (end - start) * amount_per_second
            return
        # Walk the bins by index.  Re-deriving the bin from t stalls on a
        # boundary whose quotient rounds down (0.0049 / 1e-4 is 48.99...,
        # so t == bin_end and the loop would never advance).
        t = start
        idx = first_bin
        while t < end:
            seg_end = min(end, (idx + 1) * width)
            if seg_end > t:
                self._bins[idx] += (seg_end - t) * amount_per_second
                t = seg_end
            idx += 1

    def rates(self) -> List[Tuple[float, float]]:
        """Return [(bin_start_time, amount_per_second)] for populated bins."""
        return [
            (idx * self.bin_width, total / self.bin_width)
            for idx, total in sorted(self._bins.items())
        ]

    def total(self) -> float:
        return sum(self._bins.values())


class UtilizationTracker:
    """Tracks busy time of a unit-capacity resource (a core, an IO channel).

    ``mark_busy(start, end)`` intervals may not overlap for a single tracker;
    utilization over a window is busy_time / window.
    """

    def __init__(self, series_bin: Optional[float] = None):
        self.busy_time = 0.0
        self._series = TimeSeries(series_bin) if series_bin else None

    def mark_busy(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError("end before start")
        self.busy_time += end - start
        if self._series is not None:
            self._series.add_interval(start, end, 1.0)

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def series(self) -> List[Tuple[float, float]]:
        """Per-bin utilization in [0, 1]; empty if no series bin configured."""
        return self._series.rates() if self._series is not None else []
