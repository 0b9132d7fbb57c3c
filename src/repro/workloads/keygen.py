"""Key/value generators and request distributions.

Implements the YCSB distributions the paper uses (Table 1): uniform,
(scrambled) zipfian and latest.  Keys follow the YCSB format
``user<zero-padded id>`` so they sort by id; values are deterministic filler
bytes.  The zipfian generator is Gray et al.'s algorithm as used by YCSB,
with FNV scrambling so the hot keys spread across the key space (and thus
across p2KVS's hash partitions — the skew-tolerance claim of Section 4.2).
"""

import random

__all__ = [
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "SequentialGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "make_key",
    "make_value",
]

ZIPFIAN_CONSTANT = 0.99


def make_key(i: int) -> bytes:
    return b"user%016d" % i


def make_value(i: int, size: int) -> bytes:
    """Deterministic filler of exactly ``size`` bytes."""
    seed = b"%d-" % i
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


class SequentialGenerator:
    """0, 1, 2, ... — fillseq."""

    def __init__(self, start: int = 0):
        self._next = start

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value


class UniformGenerator:
    def __init__(self, n_items: int, seed: int = 0):
        if n_items < 1:
            raise ValueError("need at least one item")
        self.n_items = n_items
        self._rng = random.Random(seed)

    def next_id(self) -> int:
        return self._rng.randrange(self.n_items)


class ZipfianGenerator:
    """Gray's incremental zipfian over [0, n_items); theta = 0.99.

    Item 0 is the hottest.  Uses the closed-form approximation of YCSB's
    ZipfianGenerator with a precomputed zeta(n).
    """

    def __init__(self, n_items: int, seed: int = 0):
        if n_items < 1:
            raise ValueError("need at least one item")
        self.n_items = n_items
        theta = ZIPFIAN_CONSTANT
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n_items, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / n_items) ** (1 - theta)) / (
            1 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; integral approximation beyond a cutoff keeps
        # construction O(1)-ish for the large spaces benchmarks use.
        cutoff = 10000
        if n <= cutoff:
            return sum(1.0 / (i ** theta) for i in range(1, n + 1))
        head = sum(1.0 / (i ** theta) for i in range(1, cutoff + 1))
        # integral of x^-theta from cutoff to n
        tail = (n ** (1 - theta) - cutoff ** (1 - theta)) / (1 - theta)
        return head + tail

    def next_id(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** ZIPFIAN_CONSTANT:
            return 1
        return int(self.n_items * (self._eta * u - self._eta + 1) ** self._alpha)


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the id space by an FNV hash (YCSB)."""

    def __init__(self, n_items: int, seed: int = 0):
        self.n_items = n_items
        self._zipf = ZipfianGenerator(n_items, seed)

    def next_id(self) -> int:
        rank = self._zipf.next_id()
        return _fnv64(rank) % self.n_items


def _fnv64(value: int) -> int:
    h = 0xCBF29CE484222325
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class LatestGenerator:
    """YCSB's "latest" distribution: recent inserts are the hottest.

    Backed by a zipfian over the current insert count: rank r maps to the
    r-th most recent item.
    """

    def __init__(self, initial_count: int, seed: int = 0):
        self.count = max(1, initial_count)
        self._zipf = ZipfianGenerator(self.count, seed)

    def advance(self) -> int:
        """Record an insert; returns the new item's id."""
        new_id = self.count
        self.count += 1
        # Keep the zipfian's range in step with the item count (cheap
        # incremental zeta update, as YCSB does).
        self._zipf.n_items = self.count
        return new_id

    def next_id(self) -> int:
        rank = self._zipf.next_id() % self.count
        return self.count - 1 - rank
