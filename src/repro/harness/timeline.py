"""ASCII rendering of time series (bandwidth over time).

The paper's Figures 4, 5b and 21a are over-time plots; the device model
records per-bin series (``StorageDevice.bandwidth_series``), and this module
renders them as terminal sparkline charts so benches and examples can show
the *dynamics* (periodic flushes, compaction bursts) and not just averages.
"""

from typing import Dict, List, Sequence, Tuple

__all__ = ["render_stacked", "sparkline"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], peak: float = None) -> str:
    """One-line sparkline of ``values`` scaled to ``peak`` (default: max)."""
    if not values:
        return ""
    peak = peak if peak is not None else max(values)
    if peak <= 0:
        return _BLOCKS[0] * len(values)
    out = []
    for value in values:
        idx = int(round(min(max(value / peak, 0.0), 1.0) * (len(_BLOCKS) - 1)))
        out.append(_BLOCKS[idx])
    return "".join(out)


def _resample(points: Sequence[Tuple[float, float]], width: int) -> List[float]:
    """Average (time, rate) points into ``width`` uniform buckets."""
    if not points:
        return []
    t0 = points[0][0]
    t1 = points[-1][0]
    span = max(t1 - t0, 1e-12)
    sums = [0.0] * width
    counts = [0] * width
    for when, rate in points:
        bucket = min(width - 1, int((when - t0) / span * width))
        sums[bucket] += rate
        counts[bucket] += 1
    return [sums[i] / counts[i] if counts[i] else 0.0 for i in range(width)]


def render_stacked(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 60,
    unit_scale: float = 1e6,
    unit: str = "MB/s",
) -> str:
    """Render several series against a shared peak, one row per category."""
    resampled = {
        label: _resample(points, width) for label, points in series.items()
    }
    peak = max(
        (max(values) for values in resampled.values() if values), default=0.0
    )
    lines = []
    for label, values in resampled.items():
        lines.append(
            "%-12s %s  peak %.1f %s"
            % (
                label,
                sparkline(values, peak),
                (max(values) if values else 0.0) / unit_scale,
                unit,
            )
        )
    return "\n".join(lines)
