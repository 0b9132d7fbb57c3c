"""Baseline systems the paper compares against.

* PebblesDB — the fragmented-LSM write-optimized store: implemented as the
  ``pebblesdb_options()`` preset of :class:`~repro.engine.db.LSMEngine`
  (FLSM compaction style + LevelDB-era concurrency).
* KVell — share-nothing in-memory-indexed B-tree store
  (:class:`~repro.baselines.kvell.KVellLike`).
* WiredTiger — B+-tree engine with WAL, no batch writes
  (:class:`~repro.baselines.wiredtiger.WiredTigerLike`), also a p2KVS
  worker's instance as is, opened by
  :func:`~repro.baselines.wiredtiger.wiredtiger_adapter_factory`.
"""

from repro.baselines.kvell import KVellLike
from repro.baselines.wiredtiger import WiredTigerLike, wiredtiger_adapter_factory

__all__ = [
    "KVellLike",
    "WiredTigerLike",
    "wiredtiger_adapter_factory",
]
