"""Windowed telemetry: tumbling windows + EWMA over live registry streams.

The monitoring plane never reads raw request streams — it rides the same
cumulative instruments the stats registry already maintains (counters,
gauges, histograms, event-log active counts) and reduces them to *windows*:
one value per series per ``window`` seconds of simulated time.

* a **counter** series windows to the per-window *delta* of a cumulative
  value (requests completed this window, retries this window);
* a **gauge** series windows to the instantaneous value at the window end
  (queue depth, active write stalls);
* a **hist_mean** series windows to the mean of the observations that
  landed in the window (``Δsum / Δcount`` of a registry histogram) —
  the windowed latency signal the rate-of-change rule watches.

Windows land at the *end of the instant* (the probes are read by a
``LateTimeout`` ticker, see :mod:`repro.monitor.monitor`), so a window's
values are identical for every same-time delivery order — the same
argument that makes the sampler byte-identical under ``--schedule-seed``.

Retention is bounded: each series keeps the last ``retention`` windows in
a ring and counts what it evicts, so a long-running service never grows
monitor memory without bound and the drop count is visible in the
timeline export.
"""

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["EWMA", "SeriesTap", "WindowStore"]

#: default windows kept per series (the rules look back far less).
DEFAULT_RETENTION = 512


class EWMA:
    """Exponentially weighted moving average, updated once per window."""

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.3):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = float(sample)
        else:
            self.value = self.alpha * sample + (1.0 - self.alpha) * self.value
        return self.value


class SeriesTap:
    """One monitored series: a probe callable plus its windowing mode.

    ``kind`` is ``"counter"`` (cumulative → per-window delta), ``"gauge"``
    (instantaneous read) or ``"hist_mean"`` (``fn`` returns a cumulative
    ``(count, sum)`` pair; the window value is the mean of the window's own
    observations, 0.0 when none landed).
    """

    KINDS = ("counter", "gauge", "hist_mean")

    __slots__ = ("name", "kind", "fn", "_last")

    def __init__(self, name: str, kind: str, fn: Callable):
        if kind not in self.KINDS:
            raise ValueError("unknown series kind %r (one of %s)" % (kind, self.KINDS))
        self.name = name
        self.kind = kind
        self.fn = fn
        self._last = None  # cumulative baseline for counter/hist_mean

    def baseline(self) -> None:
        """Record the cumulative starting point (window 0 opens here)."""
        if self.kind == "counter":
            self._last = float(self.fn())
        elif self.kind == "hist_mean":
            count, total = self.fn()
            self._last = (float(count), float(total))

    def observe(self) -> float:
        """Close the current window: read the probe, return the window value."""
        if self.kind == "gauge":
            return float(self.fn())
        if self.kind == "counter":
            cur = float(self.fn())
            prev = self._last if self._last is not None else 0.0
            self._last = cur
            return cur - prev
        count, total = self.fn()
        count, total = float(count), float(total)
        prev_count, prev_total = self._last if self._last is not None else (0.0, 0.0)
        self._last = (count, total)
        dcount = count - prev_count
        return (total - prev_total) / dcount if dcount > 0 else 0.0


class WindowStore:
    """Bounded per-series ring of ``(t_end, dt, value)`` windows + EWMAs."""

    def __init__(self, retention: int = DEFAULT_RETENTION):
        if retention < 2:
            raise ValueError("retention must hold at least two windows")
        self.retention = retention
        self._rows: Dict[str, deque] = {}
        self._ewmas: Dict[str, EWMA] = {}
        self._dropped: Dict[str, int] = {}

    def append(self, name: str, t_end: float, dt: float, value: float) -> None:
        rows = self._rows.get(name)
        if rows is None:
            rows = self._rows[name] = deque()
            self._ewmas[name] = EWMA()
        if len(rows) >= self.retention:
            rows.popleft()
            self._dropped[name] = self._dropped.get(name, 0) + 1
        rows.append((t_end, dt, value))
        self._ewmas[name].update(value)

    # -- reads -------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._rows)

    def rows(self, name: str, n: Optional[int] = None) -> List[Tuple[float, float, float]]:
        """The last ``n`` windows (all when ``n`` is None), oldest first."""
        rows = self._rows.get(name, ())
        out = list(rows)
        return out if n is None else out[-n:]

    def values(self, name: str, n: Optional[int] = None) -> List[float]:
        return [v for _t, _dt, v in self.rows(name, n)]

    def last(self, name: str) -> Optional[float]:
        rows = self._rows.get(name)
        return rows[-1][2] if rows else None

    def ewma(self, name: str) -> Optional[float]:
        ew = self._ewmas.get(name)
        return None if ew is None else ew.value

    def window_count(self, name: str) -> int:
        return len(self._rows.get(name, ())) + self._dropped.get(name, 0)

    def dropped(self, name: Optional[str] = None) -> int:
        if name is not None:
            return self._dropped.get(name, 0)
        return sum(self._dropped.values())

    def summary(self) -> Dict[str, dict]:
        """Per-series digest for the timeline export (deterministic order)."""
        out: Dict[str, dict] = {}
        for name in self.names():
            values = self.values(name)
            out[name] = {
                "windows": self.window_count(name),
                "dropped": self._dropped.get(name, 0),
                "last": round(values[-1], 9) if values else None,
                "max": round(max(values), 9) if values else None,
                "ewma": (
                    round(self._ewmas[name].value, 9)
                    if self._ewmas[name].value is not None
                    else None
                ),
            }
        return out
