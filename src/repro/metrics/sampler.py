"""Sim-time sampler: periodic gauge snapshots into an in-memory time series.

The sampler is a kernel process that wakes every ``interval`` seconds of
*virtual* time, evaluates every registered gauge, and appends one row to
``samples``.  Disabled (never started), it schedules nothing and perturbs
nothing — the zero-overhead contract of the observability layer.  Enabled,
it is exactly as deterministic as the rest of the kernel: ticks land at
``start + k * interval`` and gauge reads have no side effects, so reruns
(and ``--schedule-seed`` perturbations) produce byte-identical series.
Ticks ride :class:`~repro.sim.core.LateTimeout`, resuming after every other
event at the same instant — an end-of-instant snapshot is the same for any
same-time delivery order; a mid-instant one would be schedule-dependent.

``start()`` and ``finish()`` bracket the measured window (the load drivers
``run_closed_loop``, ``run_open_loop`` and ``run_service_load`` drive them).
``finish()`` takes the window's final row and stops; stopping withdraws the
pending tick (:meth:`~repro.sim.core.Simulator.cancel`), so a stopped
sampler schedules nothing: the run ends where an unobserved run ends, and a
later ``start()`` (preload vs measured run) never leaves two tickers alive.

The health monitor (:class:`~repro.monitor.HealthMonitor`) is a sampler of
its own series: it shares this ticker, lifecycle and bounded ring, and its
rows are its closed telemetry windows.
"""

from collections import deque
from typing import List

from repro.perf import zones as _perf_zones

__all__ = ["DEFAULT_INTERVAL", "DEFAULT_MAX_SAMPLES", "Sampler", "install_stats"]

#: 10 ms of virtual time, the cadence the paper-style utilization plots need.
DEFAULT_INTERVAL = 0.01

#: retention bound: a multi-hour simulated serve cannot grow sampler memory
#: without limit — the oldest rows are evicted and counted in ``dropped``.
DEFAULT_MAX_SAMPLES = 200000


class Sampler:
    """An end-of-instant periodic probe with a bounded ring of
    ``(sim_time, {name: value})`` rows.

    ``first_tick()`` runs at the instant it starts and ``tick()`` every
    ``interval`` seconds of virtual time after that; both take a row of
    ``env.metrics`` gauges here, and a subclass says what its ticks do.
    """

    name = "metrics-sampler"

    def __init__(self, env, interval: float = DEFAULT_INTERVAL,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.env = env
        self.interval = interval
        self.max_samples = max_samples
        #: (sim_time, {name: value}) rows, in time order (a ring: the
        #: newest ``max_samples`` rows are kept, older ones dropped).
        self.samples: deque = deque()
        #: rows evicted at the retention cap (surfaced by the exports).
        self.dropped = 0
        #: the ticker's pending timeout; ``None`` while stopped.
        self._tick = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._tick is not None

    def start(self) -> None:
        """Begin ticking at the current sim time (idempotent)."""
        if self._tick is not None:
            return
        self._tick = self.env.sim.timeout_late(0.0)
        self.env.sim.spawn(self._ticker(self._tick), self.name)

    def stop(self) -> None:
        """Withdraw the pending tick: the ticker never resumes."""
        if self._tick is not None:
            self.env.sim.cancel(self._tick)
            self._tick = None

    def finish(self) -> None:
        """End the measured window: take its final row now and stop."""
        self.sample_once()
        self.stop()

    def _ticker(self, tick):
        # Late timeouts resume at the *end* of each instant, after every
        # same-time model event — the only snapshot point that is identical
        # for all same-time delivery orders (i.e. under --schedule-seed).
        # The first tick is start()'s, so a stop() in the same instant
        # withdraws it before this ticker ever waits on anything else.
        sim = self.env.sim
        yield tick
        self.first_tick()
        while True:
            self._tick = tick = sim.timeout_late(self.interval)
            yield tick
            self.tick()

    # -- rows ----------------------------------------------------------------

    def record(self, t: float, row: dict) -> None:
        """Append one row.  At the retention cap the *oldest* row is evicted
        (nothing indexes rows by position) so a long serve keeps its most
        recent history; evictions are counted in ``dropped``."""
        samples = self.samples
        samples.append((t, row))
        if len(samples) > self.max_samples:
            samples.popleft()
            self.dropped += 1

    def sample_once(self) -> None:
        """Take one snapshot of every gauge immediately (also each tick)."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("obs.metrics")
        self.record(self.env.sim.now, self.env.metrics.gauge_values())
        if _p is not None:
            _p.leave()

    first_tick = tick = sample_once

    def column_names(self) -> List[str]:
        """Union of row names across all rows, sorted (CSV header order)."""
        names = set()
        for _t, row in self.samples:
            names.update(row)
        return sorted(names)


def install_stats(env, interval_ms: float = DEFAULT_INTERVAL * 1e3) -> Sampler:
    """Install a (not yet started) sim-time sampler at ``interval_ms`` on
    one env; the load driver starts and stops it."""
    sampler = Sampler(env, interval=interval_ms / 1e3)
    env.metrics.sampler = sampler
    return sampler
