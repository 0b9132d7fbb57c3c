"""Tests for engine options/presets (the priority queue that shared this
file went with PR 20; the file keeps its name so test ids stay stable)."""

import pytest

from repro.engine.costs import CostModel
from repro.engine.options import (
    EngineOptions,
    leveldb_options,
    pebblesdb_options,
    rocksdb_options,
)


class TestEngineOptions:
    def test_presets_differ_as_documented(self):
        rocks = rocksdb_options()
        level = leveldb_options()
        pebbles = pebblesdb_options()
        assert rocks.concurrent_memtable and rocks.pipelined_write
        assert rocks.supports_multiget
        assert not level.concurrent_memtable
        assert not level.supports_multiget
        assert pebbles.compaction_style == "flsm"
        assert not pebbles.concurrent_memtable

    def test_overrides_apply(self):
        opts = rocksdb_options(write_buffer_size=123, l0_stop_trigger=7)
        assert opts.write_buffer_size == 123
        assert opts.l0_stop_trigger == 7
        assert opts.concurrent_memtable  # preset preserved

    def test_clone_does_not_mutate_original(self):
        base = rocksdb_options()
        clone = base.clone(write_buffer_size=1)
        assert base.write_buffer_size != 1
        assert clone.write_buffer_size == 1

    def test_level_byte_budgets_grow_geometrically(self):
        opts = EngineOptions(max_bytes_for_level_base=100)
        assert opts.max_bytes_for_level(1) == 100
        assert opts.max_bytes_for_level(2) == 800
        assert opts.max_bytes_for_level(3) == 6400
        with pytest.raises(ValueError):
            opts.max_bytes_for_level(0)

    def test_cost_model_calibration_anchors(self):
        """The single-thread anchors from the paper's Figure 6."""
        costs = CostModel()
        # WAL ~2.1 us per op at 1 thread: encode + setup.
        wal = costs.wal_record_cost(150) + costs.wal_write_setup
        assert 1.5e-6 < wal < 3.0e-6
        # MemTable ~2.9 us per insert at a typical fill level.
        mem = costs.memtable_insert_cost(50_000)
        assert 2.0e-6 < mem < 5.0e-6

    def test_memtable_cost_grows_with_contention(self):
        costs = CostModel()
        alone = costs.memtable_insert_cost(1000, concurrency=1)
        crowded = costs.memtable_insert_cost(1000, concurrency=32)
        assert crowded > alone
