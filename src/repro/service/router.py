"""The service-plane router: key → partition → shard.

Composes a partition function (:mod:`repro.service.partition`) with the
:class:`~repro.service.directory.PartitionDirectory`.  This is the
*inter-shard* half of routing; inside each shard p2KVS's own
:class:`~repro.core.router.HashRouter` still distributes keys over the
shard's workers, so a key's full path is::

    key ──ServiceRouter──> shard instance ──HashRouter──> worker ──> engine

Routing is a pure lookup (no simulated time, no RNG): the deterministic
partition function plus a list index into the directory.
"""

from typing import Tuple

__all__ = ["ServiceRouter"]


class ServiceRouter:
    """Deterministic two-step routing via the partition directory."""

    def __init__(self, partitioner, directory):
        if partitioner.n_partitions != directory.n_partitions:
            raise ValueError(
                "partitioner has %d partitions but directory has %d"
                % (partitioner.n_partitions, directory.n_partitions)
            )
        self.partitioner = partitioner
        self.directory = directory

    def route(self, key: bytes) -> Tuple[int, int]:
        """Return ``(partition, shard)`` for ``key``."""
        partition = self.partitioner.partition(key)
        return partition, self.directory.shard_of(partition)

    def shard_of(self, key: bytes) -> int:
        return self.directory.shard_of(self.partitioner.partition(key))

    def explain(self, key: bytes) -> dict:
        """Routing decision unpacked for trace annotations / debugging."""
        detail = self.partitioner.explain(key)
        detail["shard"] = self.directory.shard_of(detail["partition"])
        detail["directory_version"] = self.directory.version
        return detail
