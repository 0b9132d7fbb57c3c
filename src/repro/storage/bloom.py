"""Bloom filter for SSTable key lookups.

Uses double hashing (Kirsch-Mitzenmacher) over two independent digests so
probe positions are deterministic across runs regardless of PYTHONHASHSEED.
Default 10 bits/key with 7 probes gives ~1% false positives, matching the
LevelDB/RocksDB defaults the paper's engines run with.
"""

import struct
import zlib
from typing import Iterable, Sequence

from repro.perf import zones as _perf_zones

__all__ = ["BloomFilter", "fnv1a", "fnv1a_many"]


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a: the repo's one seed-independent byte hash (Python's
    ``hash`` is salted per process) — bloom probes here, key routing in
    ``core.router``, ``service.partition`` and the KVell baseline.

    Deliberately not memoised.  Routers memoise the *route* where keys
    repeat; a shared ``lru_cache`` on the hash itself was measured at +4 %
    on the write path for +19 % peak RSS (every key of every SSTable build
    pinned), which costs more than the loop it saves.
    """
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_LANE = 16  # bytes per lane: a 64-bit state times the 41-bit prime fits


def fnv1a_many(keys: Sequence[bytes]) -> Sequence[int]:
    """``[fnv1a(k) for k in keys]`` for keys of one length, all at once.

    Every key's state sits in its own 128-bit lane of one big integer, so a
    byte position costs three C-level big-int operations for the whole batch
    (xor in that column of bytes, multiply by the prime, mask the lanes back
    to 64 bits) where the scalar loop pays three interpreted ones per key:
    about 4x faster from a few dozen keys up, which is what an SSTable's
    bloom build hashes.  :func:`fnv1a` stays the definition; the tests hold
    the two equal.
    """
    n = len(keys)
    if not n:
        return ()
    width = len(keys[0])
    joined = b"".join(keys)
    ones = int.from_bytes((b"\x01" + bytes(_LANE - 1)) * n, "little")
    mask = 0xFFFFFFFFFFFFFFFF * ones
    h = 0xCBF29CE484222325 * ones
    column = bytearray(n * _LANE)
    for j in range(width):
        column[0::_LANE] = joined[j::width]
        h = ((h ^ int.from_bytes(column, "little")) * 0x100000001B3) & mask
    return struct.unpack("<%dQ" % (2 * n), h.to_bytes(n * _LANE, "little"))[0::2]


class BloomFilter:
    def __init__(self, n_keys: int, bits_per_key: int = 10, n_probes: int = 7):
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.n_bits = max(64, n_keys * bits_per_key)
        self.n_probes = n_probes
        self._bits = bytearray((self.n_bits + 7) // 8)

    @classmethod
    def from_keys(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        keys = list(keys)
        bf = cls(len(keys), bits_per_key)
        by_len: dict = {}  # fnv1a_many hashes keys of one length at a time
        for key in keys:
            by_len.setdefault(len(key), []).append(key)
        crc32 = zlib.crc32
        set_bits = bf._set_bits
        for group in by_len.values():
            for key, h2 in zip(group, fnv1a_many(group)):
                set_bits(crc32(key) & 0xFFFFFFFF, h2)
        return bf

    # Double hashing: probe i is (h1 + i*h2) mod n_bits, h2 forced odd so all
    # positions are distinct mod n_bits.  _set_bits and may_contain walk the
    # same positions, each in its own loop (may_contain leaves at the first
    # clear bit), with no generator frame per key.

    def add(self, key: bytes) -> None:
        self._set_bits(zlib.crc32(key) & 0xFFFFFFFF, fnv1a(key))

    def _set_bits(self, h1: int, h2: int) -> None:
        bits = self._bits
        n_bits = self.n_bits
        h2 |= 1
        for i in range(self.n_probes):
            pos = (h1 + i * h2) % n_bits
            bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, key: bytes) -> bool:
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("storage.bloom.probe")
        bits = self._bits
        n_bits = self.n_bits
        h1 = zlib.crc32(key) & 0xFFFFFFFF
        h2 = fnv1a(key) | 1
        hit = True
        for i in range(self.n_probes):
            pos = (h1 + i * h2) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                hit = False
                break
        if _p is not None:
            _p.leave()
        return hit

    @property
    def nbytes(self) -> int:
        return len(self._bits)
