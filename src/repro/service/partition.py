"""The partition function: a deterministic key → partition-id mapping.

The service plane splits the key space into many more *partitions* than
there are shard instances (SNIPPETS.md Snippet 3's "partition function");
the :class:`~repro.service.directory.PartitionDirectory` then maps
partition ids onto shards.  Decoupling the two is what makes rebalancing a
metadata operation: moving one partition relocates 1/N-th of the keys
without re-hashing the rest of the space.

It is a pure function of the key bytes — no salted hash, no instance
state — so the same key maps to the same partition in every run, every
process, and every shard count (the stability property
``tests/test_service.py`` pins).
"""

from repro.storage.bloom import fnv1a

__all__ = ["HashPartitioner"]


class HashPartitioner:
    """``partition = FNV1a(key) % n_partitions`` — load-spreading, skew-diluting.

    The same deterministic FNV-1a the p2KVS intra-shard router uses, so a
    hot key concentrates on exactly one partition and the directory can
    move that partition away from a loaded shard.
    """

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions

    def partition(self, key: bytes) -> int:
        return fnv1a(key) % self.n_partitions

    def explain(self, key: bytes) -> dict:
        h = fnv1a(key)
        return {"partitioner": "hash", "hash": h, "partition": h % self.n_partitions}
