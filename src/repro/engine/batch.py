"""WriteBatch: the multi-record atomic write unit.

RocksDB/LevelDB commit a WriteBatch with a single WAL record, which is what
the p2KVS opportunistic batching mechanism exploits (paper Section 4.3): the
worker packs consecutive write-type requests into one WriteBatch, paying one
log IO and one write-path traversal for the whole group.

The encoding is the real WAL payload: ``[u8 op][u32 klen][key][u32 vlen][value]``
per record, so recovery decodes genuine bytes.
"""

import struct
from typing import Iterator, List, Tuple

from repro.perf import zones as _perf_zones
from repro.storage.memtable import VTYPE_DELETE, VTYPE_VALUE

__all__ = ["WriteBatch"]

_REC = struct.Struct("<BI")
_LEN = struct.Struct("<I")


class WriteBatch:
    """An ordered list of put/delete records applied atomically."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: List[Tuple[int, bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        self._records.append((VTYPE_VALUE, key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        self._records.append((VTYPE_DELETE, key, b""))
        return self

    def extend(self, other: "WriteBatch") -> "WriteBatch":
        self._records.extend(other._records)
        return self

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Tuple[int, bytes, bytes]]:
        return iter(self._records)

    @property
    def empty(self) -> bool:
        return not self._records

    @property
    def byte_size(self) -> int:
        """User-data bytes (keys + values), for write-amplification math."""
        total = 0
        for _, key, value in self._records:
            total += len(key) + len(value)
        return total

    def encode(self) -> bytes:
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("engine.batch.encode")
        records = self._records
        rec_pack = _REC.pack
        len_pack = _LEN.pack
        if len(records) == 1:
            vtype, key, value = records[0]
            data = rec_pack(vtype, len(key)) + key + len_pack(len(value)) + value
        else:
            parts = []
            for vtype, key, value in records:
                parts.append(rec_pack(vtype, len(key)))
                parts.append(key)
                parts.append(len_pack(len(value)))
                parts.append(value)
            data = b"".join(parts)
        if _p is not None:
            _p.leave()
        return data

    @classmethod
    def decode(cls, data: bytes) -> "WriteBatch":
        batch = cls()
        offset = 0
        n = len(data)
        while offset < n:
            vtype, klen = _REC.unpack_from(data, offset)
            offset += _REC.size
            key = data[offset : offset + klen]
            offset += klen
            (vlen,) = _LEN.unpack_from(data, offset)
            offset += _LEN.size
            value = data[offset : offset + vlen]
            offset += vlen
            batch._records.append((vtype, key, value))
        return batch
