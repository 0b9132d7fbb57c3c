"""The worker protocol and the engine openers (paper Section 4.6).

p2KVS treats the underlying KVS as a black box with three basic functions —
initialize, submit request, close.  A worker drives its instance directly
through the verbs below (generator processes unless noted); both
:class:`~repro.engine.db.LSMEngine` (the RocksDB/LevelDB presets) and
:class:`~repro.baselines.wiredtiger.WiredTigerLike` are such instances:

* ``write(ctx, batch, gsn, rtype)``, ``put(ctx, key, value)``,
  ``delete(ctx, key)``;
* ``get_status(ctx, key, snapshot_seq)`` — ``ok(value)`` / ``not_found``;
* ``scan(ctx, begin, count)``, ``range_query(ctx, begin, end)`` — sorted
  ``(key, value)`` pairs;
* ``scan_rows(ctx, begin, count)``, ``range_rows(ctx, begin, end)`` — the
  same results as *rows*, what a worker hands the framework's merge: sorted
  tuples whose first item is the key and last item the value (an LSM entry
  ``(key, seq, vtype, value)``; a pair is one too, so WiredTiger's
  ``scan_rows`` is its ``scan``);
* ``close()``; ``memory_bytes()`` and a ``counters`` group (plain calls).

Three capability flags, plain attributes of the instance, shape OBM:

* ``supports_batch_write`` — OBM-write builds one WriteBatch (RocksDB,
  LevelDB); without it (WiredTiger) writes execute individually.
* ``supports_multiget`` — OBM-read calls
  ``multiget_status(ctx, keys, snapshot_seq)`` (RocksDB); without it
  (LevelDB, WiredTiger) the worker still *submits the batched reads
  concurrently*, one process per key, so their IO overlaps, which is where
  the LevelDB/WiredTiger read speedups in Figures 22-23 come from.
* ``supports_snapshots`` — ``snapshot()`` / ``release_snapshot(seq)``
  exist, so read-committed transactions can shield readers (the LSM
  presets).  WiredTiger has none; its read verbs take ``snapshot_seq`` only
  to match the protocol, and it is always None there.

An *opener* ``open(env, name, record_filter) -> Generator`` creates or
recovers one instance; :meth:`~repro.core.framework.P2KVS.open` takes one as
``adapter_open``.
"""

from typing import Generator

from repro.engine.db import LSMEngine
from repro.engine.env import Env
from repro.engine.options import leveldb_options, rocksdb_options

__all__ = ["adapter_factory"]


def adapter_factory(flavor: str = "rocksdb", **option_overrides):
    """Return an opener of :class:`LSMEngine` instances with the
    ``flavor`` preset's options plus ``option_overrides``.

    ``flavor``: "rocksdb" | "leveldb" (the WiredTiger opener is
    :func:`~repro.baselines.wiredtiger.wiredtiger_adapter_factory`).
    """
    makers = {"rocksdb": rocksdb_options, "leveldb": leveldb_options}
    if flavor not in makers:
        raise ValueError("unknown engine flavor %r" % flavor)
    options_maker = makers[flavor]

    def open_engine(env: Env, name: str, record_filter=None) -> Generator:
        options = options_maker(**option_overrides)
        return LSMEngine.open(env, name, options, record_filter)

    return open_engine
