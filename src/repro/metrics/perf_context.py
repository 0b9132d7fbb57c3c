"""Per-request perf context (RocksDB ``PerfContext`` analogue).

When ``env.metrics.perf_enabled`` is set, the accessing layer attaches one
:class:`PerfContext` to each :class:`~repro.core.requests.Request`.  While a
worker executes a batch, the batch's context is parked on the executing
thread (``ThreadContext.perf``) so deep layers — the WAL append, memtable
inserts, SSTable block loads, lock-wait accounting — can increment it
without threading a parameter through every call.  On completion the
accumulated counts are merged into each member request's own context and, if
tracing is on, written flat at the end of the request's row
(``field_values``, under the keys ``PERF_FIELDS``), which the trace's span
view folds back into a ``perf=...`` argument (:func:`row_args`).

All fields are plain numbers; ``as_dict()`` — and :func:`perf_dict`, the
same fold of values already read — keeps only the nonzero ones so span
attachments and JSON exports stay readable.
"""

from itertools import compress
from operator import attrgetter
from typing import Dict

__all__ = ["PERF_FIELDS", "PerfContext", "field_values", "perf_dict", "row_args"]

#: every counter a PerfContext can accumulate, in export order.
PERF_FIELDS = (
    "wal_appends",
    "wal_bytes",
    "memtable_inserts",
    "memtable_probes",
    "block_cache_hits",
    "block_cache_misses",
    "ios_issued",
    "io_bytes",
    "cpu_busy_seconds",
    "wal_wait_seconds",
    "lock_wait_seconds",
    "stall_wait_seconds",
    "queue_wait_seconds",
    "batch_size",
    "io_retries",
    "request_retries",
    "poisoned_requests",
)

#: Figure 6 wait categories -> PerfContext field (see ThreadContext.account_wait).
WAIT_FIELD = {
    "wal": "wal_wait_seconds",
    "stall": "stall_wait_seconds",
    "wal_lock": "lock_wait_seconds",
    "memtable_lock": "lock_wait_seconds",
    "read_lock": "lock_wait_seconds",
    "publish_wait": "lock_wait_seconds",
    "cpu_queue": "queue_wait_seconds",
    "request_wait": "queue_wait_seconds",
}


#: a context's every field value, in PERF_FIELDS order, in one C-level call.
field_values = attrgetter(*PERF_FIELDS)


def perf_dict(values) -> Dict[str, float]:
    """``values`` (in PERF_FIELDS order) as a dict of the nonzero fields."""
    return dict(compress(zip(PERF_FIELDS, values), values))


_N_PERF, _PERF_LAST = len(PERF_FIELDS), PERF_FIELDS[-1]


def row_args(keys, values) -> Dict[str, object]:
    """A trace row's arguments: ``keys`` zipped with ``values``.  A row whose
    keys end with ``PERF_FIELDS`` carries a perf context's counters flat;
    they are folded into ``args["perf"]`` as :meth:`PerfContext.as_dict`
    gives them (nonzero fields only, in ``PERF_FIELDS`` order)."""
    own = len(keys) - _N_PERF
    if own >= 0 and keys[-1] == _PERF_LAST and keys[own:] == PERF_FIELDS:
        args = dict(zip(keys[:own], values))
        args["perf"] = perf_dict(values[own:])
        return args
    return dict(zip(keys, values))


class PerfContext:
    """Fine-grained counts accumulated along one request's execution path."""

    __slots__ = PERF_FIELDS

    # __init__/merge are unrolled over the fixed field set: contexts are
    # created and merged per batch/request, and the setattr/getattr loops
    # were among the hottest non-kernel call sites on the pinned workloads.

    def __init__(self):
        self.wal_appends = 0.0
        self.wal_bytes = 0.0
        self.memtable_inserts = 0.0
        self.memtable_probes = 0.0
        self.block_cache_hits = 0.0
        self.block_cache_misses = 0.0
        self.ios_issued = 0.0
        self.io_bytes = 0.0
        self.cpu_busy_seconds = 0.0
        self.wal_wait_seconds = 0.0
        self.lock_wait_seconds = 0.0
        self.stall_wait_seconds = 0.0
        self.queue_wait_seconds = 0.0
        self.batch_size = 0.0
        self.io_retries = 0.0
        self.request_retries = 0.0
        self.poisoned_requests = 0.0

    def add(self, field: str, amount: float = 1.0) -> None:
        setattr(self, field, getattr(self, field) + amount)

    def add_wait(self, category: str, seconds: float) -> None:
        field = WAIT_FIELD.get(category)
        if field is not None:
            setattr(self, field, getattr(self, field) + seconds)

    def merge(self, other: "PerfContext") -> "PerfContext":
        # A zero is skipped, not added: ``0.0 + 0.0`` is a new float object,
        # and a traced request's row keeps every field's value.
        if other.wal_appends:
            self.wal_appends += other.wal_appends
        if other.wal_bytes:
            self.wal_bytes += other.wal_bytes
        if other.memtable_inserts:
            self.memtable_inserts += other.memtable_inserts
        if other.memtable_probes:
            self.memtable_probes += other.memtable_probes
        if other.block_cache_hits:
            self.block_cache_hits += other.block_cache_hits
        if other.block_cache_misses:
            self.block_cache_misses += other.block_cache_misses
        if other.ios_issued:
            self.ios_issued += other.ios_issued
        if other.io_bytes:
            self.io_bytes += other.io_bytes
        if other.cpu_busy_seconds:
            self.cpu_busy_seconds += other.cpu_busy_seconds
        if other.wal_wait_seconds:
            self.wal_wait_seconds += other.wal_wait_seconds
        if other.lock_wait_seconds:
            self.lock_wait_seconds += other.lock_wait_seconds
        if other.stall_wait_seconds:
            self.stall_wait_seconds += other.stall_wait_seconds
        if other.queue_wait_seconds:
            self.queue_wait_seconds += other.queue_wait_seconds
        if other.batch_size:
            self.batch_size += other.batch_size
        if other.io_retries:
            self.io_retries += other.io_retries
        if other.request_retries:
            self.request_retries += other.request_retries
        if other.poisoned_requests:
            self.poisoned_requests += other.poisoned_requests
        return self

    def as_dict(self) -> Dict[str, float]:
        return perf_dict(field_values(self))

    def __repr__(self) -> str:
        return "PerfContext(%s)" % (
            ", ".join("%s=%g" % kv for kv in self.as_dict().items()) or "empty"
        )
