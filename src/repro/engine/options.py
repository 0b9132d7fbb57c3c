"""Engine options and the RocksDB / LevelDB / PebblesDB presets.

Sizes are scaled down ~256x from production defaults so that experiments
with 10k-200k operations exercise the same flush/compaction cadence the
paper's 100M-operation runs do (see DESIGN.md Section 5).
"""

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["EngineOptions", "rocksdb_options", "leveldb_options", "pebblesdb_options"]

KIB = 1024
MIB = 1024 * KIB

# Engine parameters every configuration runs with (no figure varies them).
#: memtables (active + immutable) before writers stall on flush.
MAX_WRITE_BUFFER_NUMBER = 2
#: buffered WAL bytes that trigger a log flush under async logging.
WAL_FLUSH_BYTES = 64 * KIB
#: LSM depth: levels 0 .. MAX_LEVELS - 1.
MAX_LEVELS = 7
#: level i >= 1 holds max_bytes_for_level_base * LEVEL_SIZE_MULTIPLIER**(i-1).
LEVEL_SIZE_MULTIPLIER = 8
#: writers one group commit carries at most.
MAX_GROUP_SIZE = 32
#: duration of one slowdown pause injected ahead of a write when L0 is at the
#: slowdown trigger (RocksDB's delayed write rate, simplified).
SLOWDOWN_DELAY = 0.5e-3


@dataclass
class EngineOptions:
    # --- memtable ---------------------------------------------------------
    write_buffer_size: int = 256 * KIB
    #: RocksDB's concurrent skiplist (Section 2.2); LevelDB lacks it.
    concurrent_memtable: bool = True

    # --- write path ---------------------------------------------------------
    enable_wal: bool = True
    enable_memtable: bool = True  # disabled only by the Fig 8 WAL-only probe
    #: stage-isolation probe (Fig 8b): never switch/flush the memtable, so
    #: pure index-update scalability is measured without compaction stalls.
    disable_flush: bool = False
    sync_wal: bool = False  # paper uses async logging (Section 3.4)
    group_commit: bool = True
    #: RocksDB pipelines the WAL and MemTable stages of successive groups.
    pipelined_write: bool = False

    # --- LSM shape -------------------------------------------------------------
    target_file_size: int = 256 * KIB
    l0_compaction_trigger: int = 4
    l0_slowdown_trigger: int = 8
    l0_stop_trigger: int = 12
    #: total bytes allowed in L1 (see LEVEL_SIZE_MULTIPLIER).
    max_bytes_for_level_base: int = 1 * MIB
    #: SILK-style IO scheduling (the latency-spike mitigation the paper's
    #: related work cites): cap compaction's device-write rate in bytes/s so
    #: foreground WAL/flush IO is never starved.  None = unthrottled.
    compaction_rate_limit: Optional[int] = None
    #: "leveled" | "flsm" (PebblesDB: a level's overlapping runs merge and
    #: move down one level once it exceeds its byte budget, without
    #: rewriting the level below - the write-amp saving).
    compaction_style: str = "leveled"

    # --- tables / cache -----------------------------------------------------------
    block_size: int = 4 * KIB
    block_cache_bytes: int = 8 * MIB

    # --- feature flags used by the p2KVS portability layer ----------------------------
    supports_multiget: bool = True

    def max_bytes_for_level(self, level: int) -> int:
        """Capacity of level >= 1."""
        if level < 1:
            raise ValueError("levels >= 1 have byte budgets")
        return self.max_bytes_for_level_base * (
            LEVEL_SIZE_MULTIPLIER ** (level - 1)
        )

    def clone(self, **overrides) -> "EngineOptions":
        return replace(self, **overrides)


def rocksdb_options(**overrides) -> EngineOptions:
    """Well-optimized production KVS: all concurrency features on."""
    return EngineOptions(
        concurrent_memtable=True,
        pipelined_write=True,
        supports_multiget=True,
    ).clone(**overrides)


def leveldb_options(**overrides) -> EngineOptions:
    """LevelDB: group commit but exclusive memtable, no pipelined write,
    no multiget (Section 5.6.1)."""
    return EngineOptions(
        concurrent_memtable=False,
        pipelined_write=False,
        supports_multiget=False,
    ).clone(**overrides)


def pebblesdb_options(**overrides) -> EngineOptions:
    """PebblesDB: LevelDB lineage ("not optimized for concurrent writes")
    plus the fragmented-LSM compaction that trades read cost for lower write
    amplification (Section 5.2)."""
    return EngineOptions(
        concurrent_memtable=False,
        pipelined_write=False,
        supports_multiget=False,
        compaction_style="flsm",
    ).clone(**overrides)
