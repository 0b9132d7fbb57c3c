"""Balanced request allocation (paper Section 4.2).

The default router divides the key space with a modular hash,
``worker = hash(key) % N``: load-balancing, near-zero overhead, and no read
magnification because partitions never overlap.  A range router is provided
for the partitioning ablation (the paper mentions dynamic key-ranges as an
alternative matching certain access patterns).

The hash must be deterministic across runs (Python's builtin ``hash`` is
salted), so we use FNV-1a (the one in :mod:`repro.storage.bloom`).

A router has two verbs: ``route(key)``, the worker id, and ``explain(key)``,
the same decision unpacked for a traced request's row: the worker ``route``
returns, then the fields ``EXPLAIN_KEYS`` names.  A traced request is routed
by ``explain`` alone, so its key is hashed once; ``route`` keeps its memo for
the untraced path.
"""

from bisect import bisect_right
from typing import List

from repro.storage.bloom import fnv1a

__all__ = ["HashRouter", "RangeRouter"]

#: bound on the hash router's memo.  It sits above the read benchmarks' key space
#: (24 000), and a dict of 21 846 to 43 690 entries has one table size (1.31 MB):
#: perfbench's 32 000-key fill keeps that table, only longer preloads are cut.
ROUTE_CACHE_MAX = 1 << 15


class HashRouter:
    """worker_id = FNV1a(key) % n_workers."""

    #: what :meth:`explain` returns after the worker.
    EXPLAIN_KEYS = ("router", "hash")

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        #: key -> worker memo: read-heavy workloads route the same keys
        #: repeatedly, and FNV over the key bytes is a pure-Python loop.
        self._route_cache: dict = {}

    def route(self, key: bytes) -> int:
        cache = self._route_cache
        worker = cache.get(key)
        if worker is None:
            if len(cache) >= ROUTE_CACHE_MAX:
                cache.clear()
            worker = cache[key] = fnv1a(key) % self.n_workers
        return worker

    def explain(self, key: bytes) -> tuple:
        """Routing decision, unpacked for trace annotations."""
        h = fnv1a(key)
        return h % self.n_workers, "hash", h


class RangeRouter:
    """Static key-range partitioning over sorted boundary keys.

    ``boundaries`` are n_workers-1 split points: key < boundaries[0] goes to
    worker 0, and so on.  Preserves key adjacency within a worker (good for
    scans) but is skew-sensitive — the trade-off the partitioning ablation
    measures.
    """

    EXPLAIN_KEYS = ("router",)

    def __init__(self, boundaries: List[bytes]):
        if sorted(boundaries) != list(boundaries):
            raise ValueError("boundaries must be sorted")
        self.boundaries = list(boundaries)
        self.n_workers = len(boundaries) + 1

    def route(self, key: bytes) -> int:
        return bisect_right(self.boundaries, key)

    def explain(self, key: bytes) -> tuple:
        return self.route(key), "range"
