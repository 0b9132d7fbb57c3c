"""The partition directory: key → partition → shard, plus the move log.

This is the service plane's single source of placement truth.  SNIPPETS.md
Snippet 3 names three roles — partition function, partition directory and
router — and one object fills all of them here:

* the **partition function** ``partition = FNV1a(key) % n_partitions``, the
  same deterministic FNV-1a the p2KVS intra-shard router uses, so a hot key
  concentrates on exactly one partition and the directory can move that
  partition away from a loaded shard.  It is a pure function of the key
  bytes — no salted hash, no instance state — so the same key maps to the
  same partition in every run and every process;
* the **placement** partition → shard, starting round-robin
  (``partition % n_shards``) so every shard owns the same number of
  partitions until an operator moves one;
* the **route** key → shard the front door looks up on every request.
  Inside each shard p2KVS's own :class:`~repro.core.router.HashRouter`
  still distributes keys over the shard's workers, so a key's full path
  is::

    key ──PartitionDirectory──> shard instance ──HashRouter──> worker ──> engine

Splitting the key space into many more partitions than shards is what makes
rebalancing a metadata operation: moving one partition relocates 1/N-th of
the keys without re-hashing the rest of the space.  ``move_partition`` is
the *metadata half* of the manual rebalance primitive —
:meth:`repro.service.plane.ServicePlane.move_partition` wraps it with the
data copy and the source-lane quiesce that make the move safe under live
traffic.  Every move is appended to :attr:`moves` and bumps
:attr:`version`, giving the SLO report a deterministic audit trail.

Routing is a pure lookup (no simulated time, no RNG).
"""

from typing import Dict, List, Sequence, Tuple

from repro.storage.bloom import fnv1a

__all__ = ["PartitionDirectory"]


class PartitionDirectory:
    """Hashes keys onto ``n_partitions`` partitions placed on ``n_shards``."""

    def __init__(self, n_partitions: int, n_shards: int):
        if n_partitions < n_shards:
            raise ValueError(
                "need at least one partition per shard "
                "(%d partitions < %d shards)" % (n_partitions, n_shards)
            )
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_partitions = n_partitions
        self.n_shards = n_shards
        self._assignment: List[int] = [p % n_shards for p in range(n_partitions)]
        #: monotone placement version; bumped by every successful move.
        self.version = 0
        #: audit trail: (version, partition, source shard, target shard).
        self.moves: List[Tuple[int, int, int, int]] = []

    # -- routing -------------------------------------------------------------

    def partition(self, key: bytes) -> int:
        """The partition function: ``FNV1a(key) % n_partitions``."""
        return fnv1a(key) % self.n_partitions

    def route(self, key: bytes) -> Tuple[int, int]:
        """Return ``(partition, shard)`` for ``key``."""
        partition = self.partition(key)
        return partition, self._assignment[partition]

    def shard_of(self, key: bytes) -> int:
        """The shard that serves ``key`` under the current placement."""
        return self.route(key)[1]

    def offered_counts(self, ops: Sequence) -> List[int]:
        """Requests per partition for (a prefix of) an op stream — the
        partition heat a rebalance plan ranks."""
        counts = [0] * self.n_partitions
        for op in ops:
            counts[self.partition(op[1])] += 1
        return counts

    # -- placement -----------------------------------------------------------

    def owner(self, partition: int) -> int:
        """The shard ``partition`` is placed on."""
        return self._assignment[partition]

    def partitions_on(self, shard: int) -> List[int]:
        """All partition ids currently placed on ``shard``, ascending."""
        return [p for p, s in enumerate(self._assignment) if s == shard]

    def move_partition(self, partition: int, target_shard: int) -> int:
        """Reassign ``partition`` to ``target_shard``; returns the source.

        Metadata only — callers that need the keys to follow the partition
        (anyone serving live reads) must go through
        ``ServicePlane.move_partition``, which copies the data first.
        """
        if not (0 <= partition < self.n_partitions):
            raise ValueError("partition %r out of range" % (partition,))
        if not (0 <= target_shard < self.n_shards):
            raise ValueError("shard %r out of range" % (target_shard,))
        source = self._assignment[partition]
        if source == target_shard:
            raise ValueError(
                "partition %d already on shard %d" % (partition, target_shard)
            )
        self._assignment[partition] = target_shard
        self.version += 1
        self.moves.append((self.version, partition, source, target_shard))
        return source

    def snapshot(self) -> Dict[str, object]:
        """Deterministic summary for the SLO report."""
        return {
            "n_partitions": self.n_partitions,
            "n_shards": self.n_shards,
            "version": self.version,
            "moves": [
                {
                    "version": version,
                    "partition": partition,
                    "from_shard": source,
                    "to_shard": target,
                }
                for version, partition, source, target in self.moves
            ],
            "partitions_per_shard": [
                len(self.partitions_on(s)) for s in range(self.n_shards)
            ],
        }
