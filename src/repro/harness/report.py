"""Reporting: ASCII tables and paper-vs-measured shape checks.

Benchmarks print the same rows/series the paper's figures show, plus a shape
check comparing the measured ratio against the paper's reported ratio with a
tolerance band — we reproduce *shapes* (who wins, by roughly what factor),
not absolute numbers (DESIGN.md Section 1).
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "ShapeCheck",
    "format_attribution",
    "format_blame_table",
    "format_qps",
    "format_stall_timeline",
    "format_table",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.2f" % value
        return "%.3g" % value
    return str(value)


def format_qps(qps: float) -> str:
    if qps >= 1e6:
        return "%.2f MQPS" % (qps / 1e6)
    if qps >= 1e3:
        return "%.1f KQPS" % (qps / 1e3)
    return "%.0f QPS" % qps


def format_attribution(breakdown: dict) -> str:
    """Render a Figure 6-style latency-attribution breakdown.

    ``breakdown`` is the dict produced by
    :func:`repro.trace.attribution.fig06_breakdown`: five categories with
    absolute seconds and shares of the accounted write-path time.
    """
    from repro.trace.attribution import CATEGORIES

    categories = breakdown["categories"]
    shares = breakdown["shares"]
    rows = [
        [name, "%.1f%%" % (shares[name] * 100.0), "%.3f ms" % (categories[name] * 1e3)]
        for name in CATEGORIES
    ]
    rows.append(["total", "100%", "%.3f ms" % (breakdown["total"] * 1e3)])
    return format_table(["category", "share", "time"], rows)


#: labels a blame table lists before folding the rest into one row.
BLAME_ROWS = 15
#: windows of simulated time a stall timeline folds its samples into.
TIMELINE_BINS = 20


def format_blame_table(blame: dict) -> str:
    """Render a critical-path blame ranking.

    ``blame`` is the dict produced by
    :func:`repro.critpath.extract.aggregate_blame`: per-label seconds on the
    extracted paths, share of the total, and how many request paths each
    label appears on.
    """
    rows = [
        [
            row["label"],
            "%.3f ms" % (row["seconds"] * 1e3),
            "%.1f%%" % (row["share"] * 100.0),
            row["paths"],
        ]
        for row in blame["rows"][:BLAME_ROWS]
    ]
    hidden = len(blame["rows"]) - len(rows)
    if hidden > 0:
        rest = sum(row["seconds"] for row in blame["rows"][BLAME_ROWS:])
        rows.append(["(%d more)" % hidden, "%.3f ms" % (rest * 1e3), "", ""])
    rows.append(
        [
            "total",
            "%.3f ms" % (blame["total_seconds"] * 1e3),
            "100%",
            blame["n_paths"],
        ]
    )
    return format_table(["critical-path blame", "time", "share", "paths"], rows)


def format_stall_timeline(sampler, events, n_cores: int) -> str:
    """ASCII stall/utilization timeline from the sim-time sampler's series.

    Folds the sampled rows into :data:`TIMELINE_BINS` equal windows of
    simulated time and renders, per window, a core-utilization bar (``#`` =
    busy fraction of ``n_cores``), the mean OBM queue depth, and how many
    write-stall / compaction-backlog events (from the registry's
    :class:`~repro.metrics.registry.EventLog` ``events``) overlap the window.
    """
    n_bins = TIMELINE_BINS
    samples = sampler.samples
    if not samples:
        return "(no samples)"
    t0, t1 = samples[0][0], samples[-1][0]
    span = max(t1 - t0, 1e-12)
    busy = [row.get("cpu.busy_cores", 0.0) for _t, row in samples]
    scale = float(n_cores)
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    for i, (t, _row) in enumerate(samples):
        b = min(int((t - t0) / span * n_bins), n_bins - 1)
        bins[b].append(i)
    intervals = [
        (kind, begin, end if end is not None else t1)
        for kind, begin, end, _detail in events.entries
    ]
    bar_w = 24
    lines = ["%-10s  %-*s  %6s  %6s  %s" % ("t (ms)", bar_w, "busy cores", "util", "obm qd", "events")]
    for b, idxs in enumerate(bins):
        lo = t0 + span * b / n_bins
        hi = t0 + span * (b + 1) / n_bins
        if not idxs:
            lines.append("%-10s  %-*s  %6s  %6s  %s" % ("%.3f" % (lo * 1e3), bar_w, "", "", "", ""))
            continue
        mean_busy = sum(busy[i] for i in idxs) / len(idxs)
        mean_qd = sum(
            samples[i][1].get("p2kvs.obm.queue_depth", 0.0) for i in idxs
        ) / len(idxs)
        frac = min(mean_busy / scale, 1.0)
        bar = "#" * int(round(frac * bar_w))
        overlapping = sorted(
            {kind for kind, begin, end in intervals if begin < hi and end > lo}
        )
        lines.append(
            "%-10s  %-*s  %5.0f%%  %6.1f  %s"
            % (
                "%.3f" % (lo * 1e3),
                bar_w,
                bar,
                frac * 100.0,
                mean_qd,
                ",".join(overlapping),
            )
        )
    return "\n".join(lines)


@dataclass
class ShapeCheck:
    """One qualitative claim from the paper, checked against the simulation."""

    name: str
    paper: str
    measured: float
    lo: float
    hi: Optional[float] = None

    @property
    def ok(self) -> bool:
        if self.hi is None:
            return self.measured >= self.lo
        return self.lo <= self.measured <= self.hi

    def row(self) -> List[object]:
        bound = (
            ">= %.2f" % self.lo
            if self.hi is None
            else "%.2f..%.2f" % (self.lo, self.hi)
        )
        return [
            self.name,
            self.paper,
            "%.2f" % self.measured,
            bound,
            "OK" if self.ok else "MISS",
        ]
