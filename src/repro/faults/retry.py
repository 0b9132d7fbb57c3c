"""Retry-with-backoff for transient device errors.

``retry_io`` wraps an *idempotent* IO boundary — a ``VirtualFile`` flush, an
SSTable blob write, a compaction read — and retries retryable
``IOFailure``/``TimedOut`` with exponential backoff in simulated time.
Callers must only wrap sites where a repeat is harmless: whole-operation
retries would double-append WAL records, so retries live at the device-IO
edge, not around engine ops.
"""

from __future__ import annotations

from repro.errors import IOFailure, TimedOut

__all__ = ["retry_io", "MAX_ATTEMPTS", "BACKOFF"]

#: attempts per IO, and the backoff before the second (doubling after).
MAX_ATTEMPTS = 4
BACKOFF = 20e-6


def retry_io(env, make, site, counters=None):
    """Run ``make()`` — which must return a *fresh* Event or generator per
    call — retrying transient failures.  Returns the successful result.

    Retries are observable: each one bumps ``io_retries`` on the optional
    ``counters`` group and on the installed fault plane's own counters.  On
    the no-fault path this adds zero simulated events and touches no
    instruments.
    """
    plane = env.faults
    attempt = 1
    while True:
        try:
            target = make()
            if hasattr(target, "send"):
                return (yield from target)
            return (yield target)
        except (IOFailure, TimedOut) as exc:
            if not exc.retryable:
                raise
            if counters is not None:
                counters.add("io_retries")
                counters.add("io_retries:%s" % site)
            if plane is not None:
                plane.counters.add("io_retries")
            if attempt >= MAX_ATTEMPTS:
                exc.details["attempts"] = attempt
                raise
            yield env.sim.timeout(BACKOFF * (1 << (attempt - 1)))
            attempt += 1
