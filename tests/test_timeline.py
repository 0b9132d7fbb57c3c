"""Tests for the device bandwidth fold and the ASCII time-series renderer."""

import pytest

from repro.engine import make_env
from repro.harness import run_closed_loop
from repro.harness.timeline import BIN, device_bandwidth, render_stacked, sparkline
from repro.systems import open_system
from repro.trace import install_tracer
from repro.workloads import fillrandom


def _traced_fill(max_events=2_000_000):
    """One RocksDB writer inserting 3 000 1 KB values: WAL, flush and
    compaction IO, each one ``device`` trace row."""
    env = make_env(n_cores=4)
    tracer = install_tracer(env, max_events=max_events)
    system = open_system("rocksdb", env)
    run_closed_loop(env, system, [list(fillrandom(3000, 1008))])
    return env, tracer


class TestDeviceBandwidth:
    def test_fold_matches_the_device_byte_ledger(self):
        env, tracer = _traced_fill()
        ledger = env.device.bytes_by_category()
        assert ledger["flush"] > 0 and ledger["compaction"] > 0
        series = device_bandwidth(tracer)
        assert set(series) == set(ledger)
        for category, points in series.items():
            starts = [start for start, _ in points]
            assert starts == sorted(set(starts))
            # Every bin's rate times the bin width is a whole byte count.
            assert sum(round(rate * BIN) for _, rate in points) == ledger[category]

    def test_dropped_rows_raise(self):
        _, tracer = _traced_fill(max_events=500)
        assert tracer.dropped > 0
        with pytest.raises(ValueError, match="dropped"):
            device_bandwidth(tracer)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_scales_to_max(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == " "
        assert line[-1] == "█"
        assert len(line) == 3

    def test_explicit_peak(self):
        line = sparkline([1.0, 1.0], peak=2.0)
        assert line == "▄▄"

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_clamps_above_peak(self):
        line = sparkline([5.0], peak=1.0)
        assert line == "█"


class TestRenderSeries:
    """One series through ``render_stacked``: its own peak is the shared one."""

    def test_resamples_and_labels(self):
        points = [(i * 0.1, float(i)) for i in range(100)]
        out = render_stacked({"wal": points}, width=20, unit_scale=1.0, unit="B/s")
        assert out.startswith("wal")
        assert "peak" in out and "B/s" in out
        assert "\n" not in out

    def test_empty_series(self):
        out = render_stacked({"x": []})
        assert "peak 0.0" in out

    def test_single_point(self):
        out = render_stacked({"x": [(0.0, 42.0)]}, unit_scale=1.0)
        assert "42.0" in out


class TestRenderStacked:
    def test_shared_peak_across_categories(self):
        series = {
            "small": [(0.0, 1.0), (1.0, 1.0)],
            "big": [(0.0, 10.0), (1.0, 10.0)],
        }
        out = render_stacked(series, width=10, unit_scale=1.0)
        lines = out.splitlines()
        assert len(lines) == 2
        # The small series renders low against the shared peak.
        small_line = next(l for l in lines if l.startswith("small"))
        big_line = next(l for l in lines if l.startswith("big"))
        assert "█" in big_line
        assert "█" not in small_line.split("peak")[0]

    def test_empty_dict(self):
        assert render_stacked({}) == ""
