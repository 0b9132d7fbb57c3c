"""Range-query strategies across hash-partitioned instances (Section 4.4).

Hash partitioning scatters adjacent keys across instances, so:

* **RANGE(begin, end)** forks a sub-RANGE to every worker and merges the
  sorted sub-results — no extra reads, because the bounds are explicit.
* **SCAN(begin, n)** does not know how the n keys distribute.  Two
  strategies:

  - ``"parallel"`` (the paper's default choice): run SCAN(begin, n) with the
    *same* scan size on every instance in parallel, merge, truncate to n.
    Simple and parallel, but reads up to N x n entries (read amplification
    the paper accepts given SSD bandwidth headroom).
  - ``"serial"``: a conservative global merge-iterator over per-instance
    iterators, pulling exactly n keys total, executed by the calling thread
    (like RocksDB's MergeIterator).

Instances hold disjoint key sets, so merging is a plain sorted merge with no
duplicate resolution.
"""

import heapq
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Generator, List, Tuple

__all__ = ["merge_sorted_results", "serial_global_scan"]

Pair = Tuple[bytes, bytes]
_key = itemgetter(0)


def merge_sorted_results(results: List[List[Pair]], limit: int = None) -> List[Pair]:
    """Merge per-instance sorted (key, value) lists; optionally truncate.

    Keys are unique across instances, so sorting the concatenation never
    compares values, and Timsort merges the presorted runs it finds.  Under a
    ``limit`` every list is first cut at the largest of the k lists' m-th keys,
    ``m = ceil(limit / k)``: ``k * m >= limit`` pairs lie at or below it.
    """
    if limit and results:
        m = -(-limit // len(results))
        if min(map(len, results)) >= m:
            cap = max([p[m - 1][0] for p in results])
            results = [p[: bisect_right(p, cap, key=_key)] for p in results]
    merged = sorted(chain.from_iterable(results))
    return merged if limit is None else merged[:limit]


def serial_global_scan(ctx, engines, begin: bytes, count: int) -> Generator:
    """Pull exactly ``count`` pairs through a global merge of per-instance
    iterators, driven sequentially by the calling thread."""
    iterators = [engine.make_iterator(snapshot_seq=2**63 - 1) for engine in engines]
    heads: List[Tuple[bytes, int, bytes]] = []
    for i, iterator in enumerate(iterators):
        yield engines[i].env.cpu.exec(
            ctx, 1.2e-6 * len(iterator._cursors), "read"
        )
        yield from iterator.seek(begin)
        pair = yield from iterator.next_user()
        if pair is not None:
            heapq.heappush(heads, (pair[0], i, pair[1]))
    out: List[Pair] = []
    while heads and len(out) < count:
        key, i, value = heapq.heappop(heads)
        out.append((key, value))
        pair = yield from iterators[i].next_user()
        if pair is not None:
            heapq.heappush(heads, (pair[0], i, pair[1]))
    return out
