"""Partition functions: deterministic key → partition-id mappings.

The service plane splits the key space into many more *partitions* than
there are shard instances (SNIPPETS.md Snippet 3's "partition function");
the :class:`~repro.service.directory.PartitionDirectory` then maps
partition ids onto shards.  Decoupling the two is what makes rebalancing a
metadata operation: moving one partition relocates 1/N-th of the keys
without re-hashing the rest of the space.

Both partitioners are pure functions of the key bytes — no salted hashes,
no instance state — so the same key maps to the same partition in every
run, every process, and every shard count (the stability property
``tests/test_service.py`` pins).
"""

from bisect import bisect_right
from typing import List

from repro.storage.bloom import fnv1a

__all__ = ["HashPartitioner", "RangePartitioner"]


class HashPartitioner:
    """``partition = FNV1a(key) % n_partitions`` — load-spreading, skew-diluting.

    The same deterministic FNV-1a the p2KVS intra-shard router uses, so a
    hot key concentrates on exactly one partition and the directory can
    move that partition away from a loaded shard.
    """

    kind = "hash"

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions

    def partition(self, key: bytes) -> int:
        return fnv1a(key) % self.n_partitions

    def explain(self, key: bytes) -> dict:
        h = fnv1a(key)
        return {"partitioner": "hash", "hash": h, "partition": h % self.n_partitions}

    def histogram(self, keys) -> List[int]:
        """Keys per partition for a key stream (skew analyses)."""
        counts = [0] * self.n_partitions
        for key in keys:
            counts[self.partition(key)] += 1
        return counts


class RangePartitioner:
    """Static key-range partitioning over sorted boundary keys.

    ``boundaries`` are ``n_partitions - 1`` split points: ``key <
    boundaries[0]`` is partition 0, and so on.  Preserves key adjacency
    inside a partition (scan-friendly, migration-friendly) but concentrates
    sequential and hot-range traffic — the trade-off the hot-key scenario
    makes visible.
    """

    kind = "range"

    def __init__(self, boundaries: List[bytes]):
        if sorted(boundaries) != list(boundaries):
            raise ValueError("boundaries must be sorted")
        self.boundaries = list(boundaries)
        self.n_partitions = len(boundaries) + 1

    def partition(self, key: bytes) -> int:
        return bisect_right(self.boundaries, key)

    def explain(self, key: bytes) -> dict:
        return {"partitioner": "range", "partition": self.partition(key)}

    def histogram(self, keys) -> List[int]:
        counts = [0] * self.n_partitions
        for key in keys:
            counts[self.partition(key)] += 1
        return counts


def uniform_boundaries(key_space: int, n_partitions: int, prefix: bytes = b"user") -> List[bytes]:
    """Evenly spaced YCSB-format boundary keys for a ``RangePartitioner``
    over ``make_key(0) .. make_key(key_space - 1)``."""
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    step = key_space / n_partitions
    return [
        prefix + b"%016d" % int(round(step * i)) for i in range(1, n_partitions)
    ]
