"""The edge-emitting release helpers for simulation primitives.

Every place the simulation layer releases a blocked waiter must call
:func:`wake` instead of ``event.succeed()`` so that, when an
:class:`~repro.critpath.edgelog.EdgeLog` is installed, the wakeup carries a
typed edge describing *which resource* released the waiter and *when the
waiter started waiting*.  The ``unlabeled-wakeup`` lint rule
(:mod:`repro.analysis.lint`) enforces this for all of ``repro.sim`` — a bare
``succeed()`` on a waiter event is a critical-path blind spot.

A completion that runs in kernel context (the target of
``Simulator._call_later``: a CPU burst or device IO finishing) does not
trigger its event at all: it returns :func:`annotated` ``(event, ...)`` —
``CPUSet._finish``, the commonest, stamps the same edge with
``EdgeLog.annotate`` inline — and ``Simulator.run`` triggers it, within the
same dispatch when the ordering contract of :mod:`repro.sim.core` allows.

With no EdgeLog installed ``wake`` is exactly ``event.succeed(value)``: no
allocation, no bookkeeping, no behavioural difference.
"""

from typing import Optional

__all__ = ["annotated", "wake"]


def annotated(
    event,
    resource: str,
    category: str = "",
    kind: str = "handoff",
    begin: Optional[float] = None,
    queued_at: Optional[float] = None,
    initiator=None,
    track: Optional[str] = None,
):
    """Stamp ``event`` with its wakeup edge when recording; return it.

    ``resource`` names what released the waiter (``"lock:mem-stage"``,
    ``"cpu"``, ``"device"``, ``"queue:obm-0"``...); ``category`` carries the
    workload category already used by metrics accounting.  For
    ``kind="resource"`` edges, ``begin``/``queued_at`` delimit the service
    and queueing intervals and ``initiator`` is the process that requested
    the activity; handoffs only need ``queued_at`` (when the waiter began
    waiting).
    """
    edgelog = event.sim.edgelog
    if edgelog is not None:
        edgelog.annotate(
            event, resource, category, kind, begin, queued_at, initiator, None, track
        )
    return event


def wake(
    event,
    value=None,
    *,
    resource: str,
    category: str = "",
    queued_at: Optional[float] = None,
):
    """Succeed ``event``, annotated with its handoff wakeup edge (see
    :func:`annotated` for the arguments; stamped here without the call)."""
    edgelog = event.sim.edgelog
    if edgelog is not None:
        edgelog.annotate(event, resource, category, "handoff", None, queued_at)
    event.succeed(value)  # lint: disable=unlabeled-wakeup
