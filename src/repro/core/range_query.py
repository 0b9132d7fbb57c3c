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
duplicate resolution.  The workers hand over *rows* (the instance protocol's
``scan_rows``/``range_rows``: key first, value last), and the merge builds a
``(key, value)`` pair only for each row it returns.
"""

import heapq
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Generator, List, Tuple

__all__ = ["merge_sorted_results", "serial_global_scan"]

Pair = Tuple[bytes, bytes]
_key = itemgetter(0)


def merge_sorted_results(results: List[List[tuple]], limit: int = None) -> List[Pair]:
    """Merge per-instance sorted row lists into (key, value) pairs; optionally
    truncate.

    Keys are unique across instances, so sorting the concatenation never
    compares past the key, and Timsort merges the presorted runs it finds.
    Under a ``limit`` every list is first cut at the largest of the k lists'
    m-th keys, ``m = ceil(limit / k)``: ``k * m >= limit`` rows lie at or
    below it.
    """
    if limit and results:
        m = -(-limit // len(results))
        if min(map(len, results)) >= m:
            cap = max([rows[m - 1][0] for rows in results])
            results = [rows[: bisect_right(rows, cap, key=_key)] for rows in results]
    merged = sorted(chain.from_iterable(results))
    if limit is not None:
        merged = merged[:limit]
    return [(row[0], row[-1]) for row in merged]


def serial_global_scan(ctx, engines, begin: bytes, count: int) -> Generator:
    """Pull exactly ``count`` pairs through a global merge of per-instance
    iterators, driven sequentially by the calling thread."""
    iterators = [engine.make_iterator(snapshot_seq=2**63 - 1) for engine in engines]
    heads: List[Tuple[bytes, int, bytes]] = []
    for i, iterator in enumerate(iterators):
        yield engines[i].env.cpu.exec(
            ctx, engines[i].costs.seek_per_source * len(iterator._cursors), "read"
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
