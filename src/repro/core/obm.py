"""Opportunistic Batching Mechanism — Algorithm 1 of the paper.

When a worker finishes a request it checks its queue: two or more
*consecutive* requests of the same class (write-type PUT/UPDATE/DELETE, or
read-type GET) are merged into one batched request, up to a cap (32 by
default, the paper's tail-latency guard).  SCAN/RANGE requests execute alone,
and requests flagged ``no_merge`` (the WriteBatches split from a GSN
transaction, Section 4.5) are never merged with others.

The batching is *opportunistic*: the worker never waits for more requests to
arrive — under light load it degrades to unbatched execution.
"""

from typing import List

from repro.core.requests import Request, SCAN_CLASS, SHUTDOWN

__all__ = ["collect_batch", "DEFAULT_BATCH_CAP"]

DEFAULT_BATCH_CAP = 32


def collect_batch(
    first: Request,
    queue,
    max_batch: int = DEFAULT_BATCH_CAP,
    tracer=None,
    track: str = "",
) -> List[Request]:
    """Algorithm 1: pop consecutive same-class requests after ``first``.

    ``queue`` is the worker's FIFOQueue; only its head is inspected, so
    requests are never reordered (the consistency argument of Section 4.3).

    ``tracer``/``track`` optionally mark each multi-request merge with an
    ``obm:merge`` instant on the worker's track.
    """
    batch = [first]
    if first.merge_class == SCAN_CLASS or first.no_merge:
        return batch
    while len(batch) < max_batch:
        head = queue.peek()
        if (
            head is None
            or head is SHUTDOWN
            or head.no_merge
            or head.merge_class != first.merge_class
        ):
            break
        batch.append(queue.try_pop())
    if tracer is not None and len(batch) > 1:
        tracer.instant(
            "obm:merge",
            "obm",
            track,
            ("size", "class"),
            (len(batch), first.merge_class),
        )
    return batch
