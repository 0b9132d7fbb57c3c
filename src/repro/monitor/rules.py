"""Declarative alert rules evaluated once per telemetry window.

Every rule watches one or two series in a :class:`~repro.monitor.windows.
WindowStore` and maintains a tiny amount of internal state (breach streaks,
fired flag).  ``evaluate(store, now)`` is called after each window closes
and returns ``None`` (no transition), or a ``("fire", evidence)`` /
``("resolve", evidence)`` transition.  Evidence always carries the window
rows that tripped the rule — an incident is a *claim with receipts*, not a
boolean.

Severities split the catalogue the way SRE practice does:

* ``page`` — something is broken (injected device errors, a silent shard,
  a stuck write stall, the error SLO burning).  Detection scoring counts
  pages; the clean pinned scenarios must raise zero of them.
* ``warn`` — capacity pressure that is *expected* under the overload
  scenarios (queue saturation, shed-rate burn, latency spikes).  Warnings
  appear in the incident timeline but never in the false-positive count.

The rules themselves are schedule-agnostic: they see only window values,
which are end-of-instant snapshots, so the fire/resolve timeline is
byte-identical across reruns and ``--schedule-seed``.
"""

from typing import Dict, List, Optional, Tuple

__all__ = [
    "BurnRate",
    "QueueSaturation",
    "RateOfChange",
    "Rule",
    "ShardSilence",
    "Threshold",
]

Transition = Optional[Tuple[str, dict]]


def _evidence_rows(store, series: str, n: int) -> List[List[float]]:
    return [[round(t, 9), round(v, 9)] for t, _dt, v in store.rows(series, n)]


class Rule:
    """Base class: name, watched series, severity, fired-state tracking."""

    def __init__(self, name: str, series: str, severity: str = "page"):
        if severity not in ("page", "warn"):
            raise ValueError("severity must be 'page' or 'warn'")
        self.name = name
        self.series = series
        self.severity = severity
        self.fired = False

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": type(self).__name__,
            "series": self.series,
            "severity": self.severity,
        }

    def evaluate(self, store, now: float) -> Transition:
        raise NotImplementedError


class Threshold(Rule):
    """Fire when ``series >= limit`` holds for ``for_windows`` consecutive
    windows; resolve on the first non-breaching window."""

    def __init__(self, name, series, limit, for_windows=1, severity="page"):
        super().__init__(name, series, severity)
        if for_windows < 1:
            raise ValueError("for_windows must be >= 1")
        self.limit = float(limit)
        self.for_windows = for_windows
        self.streak = 0

    def evaluate(self, store, now) -> Transition:
        value = store.last(self.series)
        if value is None:
            return None
        breach = value >= self.limit
        self.streak = self.streak + 1 if breach else 0
        if not self.fired and self.streak >= self.for_windows:
            self.fired = True
            return ("fire", {
                "value": round(value, 9),
                "limit": self.limit,
                "op": ">=",
                "streak": self.streak,
                "windows": _evidence_rows(store, self.series, self.for_windows),
            })
        if self.fired and not breach:
            self.fired = False
            return ("resolve", {"value": round(value, 9), "limit": self.limit})
        return None


class QueueSaturation(Threshold):
    """Threshold specialisation: a bounded queue pinned near its cap.

    ``fraction`` of ``cap`` for ``for_windows`` consecutive windows means
    admission is about to shed (or already is) — capacity pressure, so the
    default severity is ``warn``.
    """

    def __init__(self, name, series, cap, fraction=0.9, for_windows=2,
                 severity="warn"):
        if cap <= 0:
            raise ValueError("queue cap must be positive")
        super().__init__(name, series, limit=fraction * cap,
                         for_windows=for_windows, severity=severity)
        self.cap = cap
        self.fraction = fraction


class RateOfChange(Rule):
    """Fire when the current window jumps ``factor``× above its recent past.

    The baseline is the mean of the ``baseline_windows`` windows *before*
    the current one; baselines below ``min_baseline`` are ignored so a
    series waking up from zero cannot divide-by-noise its way into an
    alert.  Resolves once the current window drops back under the factor.
    """

    def __init__(self, name, series, factor=3.0, baseline_windows=8,
                 min_baseline=1e-9, severity="warn"):
        super().__init__(name, series, severity)
        if factor <= 1.0:
            raise ValueError("factor must be > 1")
        if baseline_windows < 1:
            raise ValueError("baseline_windows must be >= 1")
        self.factor = factor
        self.baseline_windows = baseline_windows
        self.min_baseline = min_baseline

    def evaluate(self, store, now) -> Transition:
        values = store.values(self.series, self.baseline_windows + 1)
        if len(values) < 2:
            return None
        current, history = values[-1], values[:-1]
        baseline = sum(history) / len(history)
        if baseline < self.min_baseline:
            return None
        breach = current >= self.factor * baseline
        if not self.fired and breach:
            self.fired = True
            return ("fire", {
                "value": round(current, 9),
                "baseline": round(baseline, 9),
                "factor": self.factor,
                "windows": _evidence_rows(store, self.series,
                                          self.baseline_windows + 1),
            })
        if self.fired and not breach:
            self.fired = False
            return ("resolve", {
                "value": round(current, 9),
                "baseline": round(baseline, 9),
            })
        return None


class BurnRate(Rule):
    """Multi-window SLO burn-rate, à la the SRE workbook's fast/slow pages.

    The *burn rate* over a lookback of ``w`` windows is::

        burn(w) = (Σ bad / Σ total) / (1 - slo)

    i.e. how many times faster than "exactly on budget" the error budget is
    being spent (budget = ``1 - slo`` of requests may fail).  The rule
    fires only when **both** the short lookback (``fast_windows``) and the
    long lookback (``slow_windows``) burn at ``burn``× or more: the long
    window proves the problem is sustained, the short window proves it is
    *still happening* — a short blip never pages, and a long-resolved
    incident stops paging as soon as the fast window recovers.  Windows
    with zero total traffic burn nothing.
    """

    def __init__(self, name, bad_series, total_series, slo=0.999, burn=1.0,
                 fast_windows=2, slow_windows=8, severity="page"):
        super().__init__(name, bad_series, severity)
        if not (0.0 < slo < 1.0):
            raise ValueError("slo must be in (0, 1)")
        if fast_windows < 1 or slow_windows < fast_windows:
            raise ValueError("need 1 <= fast_windows <= slow_windows")
        self.total_series = total_series
        self.slo = slo
        self.burn = burn
        self.fast_windows = fast_windows
        self.slow_windows = slow_windows

    def _burn(self, store, n_windows: int) -> float:
        bad = sum(store.values(self.series, n_windows))
        total = sum(store.values(self.total_series, n_windows))
        if total <= 0:
            return 0.0
        return (bad / total) / (1.0 - self.slo)

    def evaluate(self, store, now) -> Transition:
        if store.last(self.series) is None:
            return None
        fast = self._burn(store, self.fast_windows)
        slow = self._burn(store, self.slow_windows)
        breach = fast >= self.burn and slow >= self.burn
        if not self.fired and breach:
            self.fired = True
            return ("fire", {
                "burn_fast": round(fast, 9),
                "burn_slow": round(slow, 9),
                "threshold": self.burn,
                "slo": self.slo,
                "windows": _evidence_rows(store, self.series, self.slow_windows),
            })
        if self.fired and not breach:
            self.fired = False
            return ("resolve", {
                "burn_fast": round(fast, 9),
                "burn_slow": round(slow, 9),
            })
        return None

    def describe(self):
        d = super().describe()
        d["total_series"] = self.total_series
        return d


class ShardSilence(Rule):
    """Watchdog: a progress series that was alive has gone silent.

    Arms on the first window showing progress (> 0), then fires after
    ``for_windows`` consecutive zero-progress windows.  A store that never
    progressed never alerts (it is idle, not dead), and the post-crash
    horizon the monitor synthesises (:meth:`HealthMonitor.finalize`) is
    exactly what lets this rule see a crashed machine's silence — the
    scraper outlives the process it scrapes.
    """

    def __init__(self, name, series, for_windows=3, severity="page",
                 unless_series=None):
        super().__init__(name, series, severity)
        if for_windows < 1:
            raise ValueError("for_windows must be >= 1")
        self.for_windows = for_windows
        #: optional guard: windows where this series is > 0 carry an
        #: *explained* quiet (e.g. a partition migration has the source
        #: lane deliberately parked) and never count toward silence.
        self.unless_series = unless_series
        self.armed = False
        self.silent = 0

    def describe(self):
        d = super().describe()
        if self.unless_series is not None:
            d["unless_series"] = self.unless_series
        return d

    def evaluate(self, store, now) -> Transition:
        value = store.last(self.series)
        if value is None:
            return None
        if value > 0:
            self.armed = True
            self.silent = 0
            if self.fired:
                self.fired = False
                return ("resolve", {"value": round(value, 9)})
            return None
        if not self.armed:
            return None
        if self.unless_series is not None:
            guard = store.last(self.unless_series)
            if guard is not None and guard > 0:
                self.silent = 0
                return None
        self.silent += 1
        if not self.fired and self.silent >= self.for_windows:
            self.fired = True
            return ("fire", {
                "silent_windows": self.silent,
                "windows": _evidence_rows(store, self.series, self.for_windows),
            })
        return None
