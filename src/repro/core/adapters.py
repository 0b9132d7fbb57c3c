"""Portability adapters (paper Section 4.6).

p2KVS treats the underlying KVS as a black box with three basic functions —
initialize, submit request, close.  An adapter normalizes one KVS behind the
protocol the workers drive, and advertises two capabilities that shape OBM:

* ``supports_batch_write`` — OBM-write builds one WriteBatch (RocksDB,
  LevelDB); without it (WiredTiger) writes execute individually.
* ``supports_multiget`` — OBM-read calls multiget (RocksDB); without it
  (LevelDB, WiredTiger) the worker still *submits the batched reads
  concurrently* so their IO overlaps, which is where the LevelDB/WiredTiger
  read speedups in Figures 22-23 come from.
"""

from typing import Generator, List, Optional

from repro.engine.batch import WriteBatch
from repro.engine.db import LSMEngine
from repro.engine.env import Env
from repro.engine.options import EngineOptions, leveldb_options, rocksdb_options

__all__ = ["EngineAdapter", "open_lsm_adapter"]


class EngineAdapter:
    """Adapter over :class:`LSMEngine` (the RocksDB/LevelDB presets)."""

    def __init__(self, engine: LSMEngine):
        self.engine = engine
        self.env = engine.env

    # -- capabilities ------------------------------------------------------

    #: every LSM preset builds one WriteBatch per OBM-write.
    supports_batch_write = True

    @property
    def supports_multiget(self) -> bool:
        return self.engine.options.supports_multiget

    # -- operations ----------------------------------------------------------

    def write(self, ctx, batch: WriteBatch, gsn: int = 0, rtype: int = 0) -> Generator:
        yield from self.engine.write(ctx, batch, gsn, rtype)

    def put(self, ctx, key: bytes, value: bytes) -> Generator:
        yield from self.engine.put(ctx, key, value)

    def delete(self, ctx, key: bytes) -> Generator:
        yield from self.engine.delete(ctx, key)

    def get(self, ctx, key: bytes, snapshot_seq: Optional[int] = None) -> Generator:
        if snapshot_seq is None:
            return (yield from self.engine.get(ctx, key))
        return (yield from self.engine.get(ctx, key, snapshot_seq))

    def get_status(
        self, ctx, key: bytes, snapshot_seq: Optional[int] = None
    ) -> Generator:
        """Status-style lookup: ``ok(value)`` / ``not_found``, never an
        ambiguous None.  The workers' read path uses this form."""
        if snapshot_seq is None:
            return (yield from self.engine.get_status(ctx, key))
        return (yield from self.engine.get_status(ctx, key, snapshot_seq))

    def multiget(
        self, ctx, keys: List[bytes], snapshot_seq: Optional[int] = None
    ) -> Generator:
        statuses = yield from self.multiget_status(ctx, keys, snapshot_seq)
        return [status.value_or(None) for status in statuses]

    def multiget_status(
        self, ctx, keys: List[bytes], snapshot_seq: Optional[int] = None
    ) -> Generator:
        if self.supports_multiget:
            if snapshot_seq is None:
                return (yield from self.engine.multiget_status(ctx, keys))
            return (yield from self.engine.multiget_status(ctx, keys, snapshot_seq))
        return (yield from self.concurrent_gets(ctx, keys, snapshot_seq))

    def concurrent_gets(
        self, ctx, keys: List[bytes], snapshot_seq: Optional[int] = None
    ) -> Generator:
        """OBM read fallback: submit each get as its own process so device
        reads overlap, even without a native multiget.  Returns statuses."""
        sim = self.env.sim

        def one(key):
            return (yield from self.get_status(ctx, key, snapshot_seq))

        procs = [sim.spawn(one(key)) for key in keys]
        statuses = yield sim.all_of(procs)
        return statuses

    # -- snapshots (read-committed isolation, Section 4.5 future work) -----

    @property
    def supports_snapshots(self) -> bool:
        return True

    def snapshot(self) -> int:
        return self.engine.snapshot()

    def release_snapshot(self, seq: int) -> None:
        self.engine.release_snapshot(seq)

    def scan(self, ctx, begin: bytes, count: int) -> Generator:
        return (yield from self.engine.scan(ctx, begin, count))

    def range_query(self, ctx, begin: bytes, end: bytes) -> Generator:
        return (yield from self.engine.range_query(ctx, begin, end))

    def iterator_cursors(self):
        """Expose merge-ready cursors for the serial global-scan strategy."""
        return self.engine._make_iterator

    def close(self) -> Generator:
        yield from self.engine.close()

    # -- metrics ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.engine.memory_bytes()

    @property
    def counters(self):
        return self.engine.counters


def open_lsm_adapter(
    env: Env,
    name: str,
    options: Optional[EngineOptions] = None,
    record_filter=None,
) -> Generator:
    """Open (or recover) an LSM engine and wrap it."""
    engine = yield from LSMEngine.open(env, name, options, record_filter)
    return EngineAdapter(engine)


def adapter_factory(flavor: str = "rocksdb", **option_overrides):
    """Return an ``open(env, name, record_filter) -> Generator`` callable.

    ``flavor``: "rocksdb" | "leveldb" (the WiredTiger flavor lives in
    :mod:`repro.baselines.wiredtiger`).
    """
    makers = {"rocksdb": rocksdb_options, "leveldb": leveldb_options}
    if flavor not in makers:
        raise ValueError("unknown engine flavor %r" % flavor)
    options_maker = makers[flavor]

    def open_adapter(env: Env, name: str, record_filter=None) -> Generator:
        return (
            yield from open_lsm_adapter(
                env, name, options_maker(**option_overrides), record_filter
            )
        )

    return open_adapter
