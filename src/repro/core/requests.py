"""Request objects flowing through the p2KVS accessing layer.

A user thread wraps each KV operation in a :class:`Request`, enqueues it on
the worker chosen by the router, and suspends on the request's future (paper
Figure 9b).  The asynchronous interface skips the suspension and invokes a
callback instead.
"""

from typing import Any, Callable, Optional

__all__ = [
    "OP_DELETE",
    "OP_GET",
    "OP_PUT",
    "OP_RANGE",
    "OP_SCAN",
    "OP_WRITEBATCH",
    "READ_CLASS",
    "Request",
    "WRITE_CLASS",
    "op_class",
]

OP_PUT = "PUT"
OP_DELETE = "DELETE"
OP_GET = "GET"
OP_SCAN = "SCAN"
OP_RANGE = "RANGE"
OP_WRITEBATCH = "WRITEBATCH"
#: internal control op: make a read-committed transaction's updates visible
#: (release the worker's pre-transaction snapshot).
OP_TXN_RELEASE = "TXN_RELEASE"

WRITE_CLASS = "write"
READ_CLASS = "read"
SCAN_CLASS = "scan"

_CLASS = {
    OP_PUT: WRITE_CLASS,
    OP_DELETE: WRITE_CLASS,
    OP_WRITEBATCH: WRITE_CLASS,
    OP_GET: READ_CLASS,
    OP_SCAN: SCAN_CLASS,
    OP_RANGE: SCAN_CLASS,
    OP_TXN_RELEASE: SCAN_CLASS,  # executes alone, never merged
}


def op_class(op: str) -> str:
    """Batching class: OBM merges only same-class consecutive requests."""
    return _CLASS[op]


class Request:
    """One KV operation in flight."""

    __slots__ = (
        "op",
        "key",
        "value",
        "begin",
        "end",
        "count",
        "batch",
        "gsn",
        "rtype",
        "no_merge",
        "snapshot_isolated",
        "future",
        "callback",
        "queue_aid",
        "queued_at",
        "queue_depth",
        "completed",
    )

    def __init__(
        self,
        op: str,
        key: Optional[bytes] = None,
        value: Optional[bytes] = None,
        begin: Optional[bytes] = None,
        end: Optional[bytes] = None,
        count: int = 0,
        batch=None,
        gsn: int = 0,
        rtype: int = 0,
        no_merge: bool = False,
        snapshot_isolated: bool = False,
        callback: Optional[Callable[[Any], None]] = None,
    ):
        self.op = op
        self.key = key
        self.value = value
        self.begin = begin
        self.end = end
        self.count = count
        self.batch = batch
        self.gsn = gsn
        self.rtype = rtype
        self.no_merge = no_merge
        self.snapshot_isolated = snapshot_isolated
        self.future = None  # Event, attached at submit time
        self.callback = callback
        # When tracing: the queue-residency span's async id (None: none
        # open), and its start and the queue depth it found, both set with it.
        self.queue_aid = None
        self.completed = False  # set by the worker; poison paths skip done requests

    @property
    def merge_class(self) -> str:
        return op_class(self.op)

    def __repr__(self) -> str:
        return "Request(%s, key=%r)" % (self.op, self.key)


#: queue sentinel telling a worker to exit its loop.
SHUTDOWN = object()
