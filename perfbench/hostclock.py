"""A host-speed reference, so host times taken at different moments compare.

The sandbox this benchmark runs in does not hold its speed: a fixed
pure-Python loop takes anything from 1x to 1.8x its best time, drifting over
seconds to minutes, independently per vCPU, with no steal time reported.  Ten
15-second runs of one workload then scatter by 10-20 % (inter-quartile range
over median) and no statistic of a single run removes it.

What does remove most of it: run a short fixed loop (heap and dict work, like
the simulator's own) right before and after every timed phase, and every
0.3 s inside the measured phase where the harness offers a hook.  The loop
measures how fast the host is *at that moment* relative to a fixed reference,
and a stretch's wall seconds times that factor are **reference seconds** — the
time it would have taken on a host running steadily at reference speed.
Measured on fill passes: spread over runs 13.5 % raw, 4.7 % in reference
seconds when stretches are 0.5 s (16 % -> 7 % when they are 1.8 s, which is
why long phases lap).

Every host time perfbench reports (rates, set-up, zone self times) is in
reference seconds; the raw wall-clock rate and the speed factor are reported
beside them, and perfbench's own spans stay raw.
"""

import heapq
from time import perf_counter
from typing import Tuple

#: seconds one spin takes on the reference host (this sandbox at its typical
#: speed), so that reference seconds read like wall seconds here.
REFERENCE_S = 0.009
SPIN_STEPS = 32000
#: a long phase spins again this often, where the benchmark has a hook to do so.
LAP_EVERY_S = 0.3


def spin_seconds() -> float:
    """Time one fixed unit of interpreter work.

    Integers only, and a heap that stays small: nothing here is tracked by
    the garbage collector (a spin never triggers a collection whose cost
    would depend on the program's live objects), and the working set stays in
    the first-level cache (a spin between two stretches of the program does
    not evict the program's data).
    """
    start = perf_counter()
    heap = list(range(64))
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(SPIN_STEPS):
        key = (i * 7919) % 10007
        push(heap, key * 65536 + (i & 65535))
        table[i & 255] = key
        pop(heap)
    return perf_counter() - start


class Stopwatch:
    """Times one phase in reference seconds: spins when it starts, at every
    :meth:`lap` and when it stops, and weighs each stretch of wall time in
    between by the mean speed of the two spins around it.  Spins themselves
    are not counted."""

    def __init__(self):
        self.reference_s = 0.0
        self.wall_s = 0.0
        self._spin = spin_seconds()
        self._since = perf_counter()
        self._next_lap = self._since + LAP_EVERY_S

    def lap_if_due(self) -> None:
        """For per-op hooks inside a long phase: lap every LAP_EVERY_S."""
        if perf_counter() >= self._next_lap:
            self.lap()

    def lap(self) -> None:
        now = perf_counter()
        spin = spin_seconds()
        stretch = now - self._since
        self.wall_s += stretch
        self.reference_s += stretch * REFERENCE_S / ((self._spin + spin) / 2.0)
        self._spin = spin
        self._since = perf_counter()
        self._next_lap = self._since + LAP_EVERY_S

    def stop(self) -> Tuple[float, float]:
        """(reference seconds, wall seconds) of the phase."""
        self.lap()
        return self.reference_s, self.wall_s
