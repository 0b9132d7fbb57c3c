"""Calibrated CPU cost model for the LSM engine.

The paper's Section 3.3 breaks a RocksDB write into WAL, MemTable, WAL lock,
MemTable lock and Others, and reports the single-thread micro-latencies we
calibrate to:

* WAL time per op falls from 1 to 32 threads (claim ``fig06.group_logging``)
  because group logging amortizes the per-IO setup across the group — hence
  a fixed ``wal_write_setup`` per log write plus ``wal_encode_per_record``.
* MemTable insert averages **2.9 us** at 1 thread rising to **5.7 us** at 32
  threads from concurrent-skiplist interference — hence a per-concurrent-
  writer ``memtable_concurrency_penalty``.
* Lock overheads (leader hand-off, follower wake-ups) grow with group size
  and dominate at high thread counts (claim ``fig06.locks_32``).

All times are seconds.  These constants are deliberately simple: the goal is
to reproduce the paper's *shapes* (who is the bottleneck when), not cycle
accuracy.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    # --- write path -------------------------------------------------------
    #: per-request software overhead outside WAL/MemTable (API, allocation,
    #: status handling) — the paper's "Others".
    write_other: float = 0.6e-6
    #: bookkeeping to join a write group.
    group_join: float = 0.15e-6
    #: CPU to encode one record into the log buffer (checksum + memcpy).
    wal_encode_per_record: float = 0.7e-6
    #: additional per-byte encode cost.
    wal_encode_per_byte: float = 2.0e-9
    #: fixed per-log-IO setup (buffer hand-off, queueing); amortized over the
    #: group by group logging.  1 thread: 0.7 + 1.3 ≈ 2.1 us total per op.
    wal_write_setup: float = 1.3e-6
    #: leader CPU spent waking each suspended follower (counted as WAL-lock
    #: overhead in the paper's breakdown).
    wakeup_per_follower: float = 0.55e-6
    #: skiplist insert = base + per_log2 * log2(n_entries).
    memtable_insert_base: float = 1.0e-6
    memtable_insert_per_log2: float = 0.18e-6
    #: added interference per *other* concurrent skiplist inserter.
    memtable_concurrency_penalty: float = 0.09e-6
    #: per-writer update of the shared memtable metadata (sequence counts,
    #: version bookkeeping) after a concurrent insert.  This is a SERIAL
    #: critical section on the instance: it is what caps the shared
    #: concurrent memtable's scaling in the paper's Fig 8b (claim
    #: ``fig08.memtable_single``) while sharded instances keep scaling.
    memtable_metadata_sync: float = 0.8e-6
    #: extra per-record overhead when applying a multi-record WriteBatch
    #: (vs. the amortized full-request path).
    batch_per_record: float = 0.25e-6

    # --- read path -----------------------------------------------------------
    #: probing memtable + immutables for a point read.
    get_memtable_probe: float = 0.8e-6
    #: bloom + index probe per SSTable consulted.
    get_table_probe: float = 0.5e-6
    #: amortized per-key CPU on the multiget path.
    multiget_per_key: float = 1.1e-6
    #: the instance-wide read critical section: shared block-cache LRU
    #: maintenance + version/superversion reference handling.  Serializes
    #: concurrent readers of ONE instance (why RocksDB's random-GET
    #: throughput flattens with threads, Fig 14a); multiget pays it once per
    #: batch plus a small per-key increment.
    read_serial: float = 0.45e-6
    read_serial_per_key: float = 0.05e-6
    #: iterator seek per source (memtable or table cursor).
    seek_per_source: float = 1.2e-6
    #: iterator next() per merged entry.
    next_per_entry: float = 0.3e-6

    # --- background work ---------------------------------------------------------
    #: flush: encode one entry into an SSTable block.
    flush_per_entry: float = 0.3e-6
    #: compaction: merge-compare + re-encode one input entry.
    compact_per_entry: float = 0.5e-6
    #: background threads charge CPU in chunks of this many entries so the
    #: simulation interleaves them with foreground work.
    background_chunk: int = 512

    # Memoized lookup tables: workloads draw from a handful of record sizes
    # and memtable populations repeat across workers and generations, so the
    # two per-request formulas reduce to dict hits.  The cached value is the
    # exact float the formula produces (the miss branch IS the formula), so
    # caching cannot move a single ulp.  ``compare=False`` keeps the caches
    # out of the frozen dataclass's __eq__/__hash__.
    _wal_cost_cache: Dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _mem_cost_cache: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def wal_record_cost(self, nbytes: int) -> float:
        cache = self._wal_cost_cache
        cost = cache.get(nbytes)
        if cost is None:
            cost = self.wal_encode_per_record + self.wal_encode_per_byte * nbytes
            cache[nbytes] = cost
        return cost

    def memtable_insert_cost(self, n_entries: int, concurrency: int = 1) -> float:
        cache = self._mem_cost_cache
        key = (n_entries, concurrency)
        cost = cache.get(key)
        if cost is None:
            cost = (
                self.memtable_insert_base
                + self.memtable_insert_per_log2 * math.log2(n_entries + 2)
                + self.memtable_concurrency_penalty * max(0, concurrency - 1)
            )
            cache[key] = cost
        return cost
