"""Bloom filter for SSTable key lookups.

Uses double hashing (Kirsch-Mitzenmacher) over two independent digests so
probe positions are deterministic across runs regardless of PYTHONHASHSEED.
10 bits/key with 7 probes gives ~1% false positives, matching the
LevelDB/RocksDB defaults the paper's engines run with.
"""

import struct
import zlib
from typing import Iterable, Sequence, Tuple

from repro.perf import zones as _perf_zones

__all__ = ["BloomFilter", "fnv1a", "fnv1a_many", "probe_pair"]

BITS_PER_KEY = 10
N_PROBES = 7


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a: the repo's one seed-independent byte hash (Python's
    ``hash`` is salted per process) — bloom probes here, key routing in
    ``core.router``, ``service.partition`` and the KVell baseline.

    Deliberately not memoised.  Routers memoise the *route* where keys
    repeat; a shared ``lru_cache`` on the hash itself was measured at +4 %
    on the write path for +19 % peak RSS (every key of every SSTable build
    pinned), and a bounded key -> hash memo shared by the router, the
    partitioner and the filter probes at +12.7 % on ``fill`` for +7.3 %
    ``peak_rss_mb`` — most of the benchmark's 10 % bound.  A point lookup
    hashes its key once instead (:func:`probe_pair`, shared by every table
    it probes).
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


def probe_pair(key: bytes) -> Tuple[int, int]:
    """The two digests a filter probes ``key`` with: probe i is bit
    ``(h1 + i*h2) mod n_bits``, ``h2`` forced odd so the positions are
    distinct.  Independent of the filter, so a lookup computes it once for
    every table it probes; :meth:`BloomFilter.from_keys` is its batch form."""
    return zlib.crc32(key), fnv1a(key) | 1


class BloomFilter:
    def __init__(self, n_keys: int):
        self.n_bits = max(64, n_keys * BITS_PER_KEY)
        self._bits = bytearray((self.n_bits + 7) // 8)

    @staticmethod
    def nbytes_for(n_keys: int) -> int:
        """Bitmap bytes of a filter over ``n_keys`` distinct keys, unbuilt."""
        return (max(64, n_keys * BITS_PER_KEY) + 7) // 8

    @classmethod
    def from_keys(cls, keys: Iterable[bytes]) -> "BloomFilter":
        """A filter over ``keys`` (distinct: the filter is sized by their
        count), built a probe index at a time.

        The probe pairs are reduced mod ``n_bits`` once, so every position is
        small-int arithmetic; each probe index sets flag byte ``pos`` of a
        ``"0"``/``"1"`` string per key, and one ``int(..., 2)`` of the
        reversed string packs it into the bitmap (bit ``pos`` set).
        """
        keys = list(keys)
        bf = cls(len(keys))
        n = bf.n_bits
        by_len: dict = {}  # fnv1a_many hashes keys of one length at a time
        for key in keys:
            by_len.setdefault(len(key), []).append(key)
        crc32 = zlib.crc32
        pos: list = []
        step: list = []
        for group in by_len.values():
            pos += [crc32(key) % n for key in group]
            step += [(h2 | 1) % n for h2 in fnv1a_many(group)]
        flags = bytearray(b"0") * n
        for i in range(N_PROBES):
            if i:
                pos = [(p + d) % n for p, d in zip(pos, step)]
            for p in pos:
                flags[p] = 49  # ord("1")
        flags.reverse()
        bf._bits = int(flags, 2).to_bytes(len(bf._bits), "little")
        return bf

    def may_contain(self, pair: Tuple[int, int]) -> bool:
        """Whether a key with :func:`probe_pair` ``pair`` may be in the set."""
        _p = _perf_zones.PROFILER
        if _p is not None:
            _p.enter("storage.bloom.probe")
        bits = self._bits
        n_bits = self.n_bits
        h1, h2 = pair
        hit = True
        for i in range(N_PROBES):
            pos = (h1 + i * h2) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                hit = False
                break
        if _p is not None:
            _p.leave()
        return hit
