"""The open-loop load driver: replay an arrival schedule against the plane.

:func:`run_service_load` is the service plane's counterpart of the
harness's ``run_open_loop``, with three differences that matter for an
SLO study:

* the arrival schedule is materialised up front from the arrival process
  (a pure function of its parameters and seed), so offered load never
  depends on how the service performs — true open loop;
* requests go through :meth:`ServicePlane.submit`, i.e. through routing
  and bounded admission: an overloaded shard sheds instead of queueing
  without bound;
* an optional *mid-run rebalance* fires after a fixed fraction of the
  schedule: partition heat observed so far (offered requests per
  partition — a deterministic count) picks the hottest partitions and
  :meth:`ServicePlane.rebalance_hottest` live-moves them while traffic
  keeps flowing.

The driver finishes when every *admitted* request has completed; shed
requests never enter the system, which is the whole point of shedding.
"""

from typing import Generator, List, Optional, Sequence

from repro.harness.runner import run_zoned
from repro.workloads.microbench import split_stream

__all__ = ["preload_plane", "run_service_load"]


#: loader threads per shard while a dataset is preloaded.
PRELOAD_THREADS = 4


def preload_plane(env, plane, ops: Sequence) -> None:
    """Load a dataset through the router before the measured window.

    Routes every op to its owning shard and loads shards in parallel
    (:data:`PRELOAD_THREADS` loader threads per shard), bypassing admission
    — the dataset must exist regardless of queue caps.  Not timed, not
    counted.
    """
    per_shard: List[List] = [[] for _ in range(plane.n_shards)]
    for op in ops:
        per_shard[plane.directory.shard_of(op[1])].append(op)

    def loader(ctx, system, chunk) -> Generator:
        for op in chunk:
            yield from system.execute(ctx, op)

    procs = []
    for shard, shard_ops in enumerate(per_shard):
        for t, chunk in enumerate(split_stream(shard_ops, PRELOAD_THREADS)):
            if not chunk:
                continue
            ctx = env.cpu.new_thread("svc-preload-%d-%d" % (shard, t))
            procs.append(env.sim.spawn(loader(ctx, plane.shards[shard], chunk)))

    def waiter() -> Generator:
        yield env.sim.all_of(procs)

    env.sim.spawn(waiter(), name="svc-preload")
    run_zoned(env, "service.preload")


def run_service_load(
    env,
    plane,
    ops: Sequence,
    arrivals,
    rebalance_at: Optional[float] = None,
    rebalance_moves: int = 2,
    monitor=None,
) -> dict:
    """Drive ``ops`` at the arrival process's schedule; returns run facts.

    ``rebalance_at`` (a fraction in (0, 1)) triggers the mid-run rebalance
    after that share of arrivals has been offered.  Returns a dict with the
    simulated makespan and the rebalance plan actually executed.

    ``monitor`` (a :class:`~repro.monitor.HealthMonitor`) is bracketed
    around the measured window: started at the driver's first instant — so
    window edges are anchored to the load's t0, not the preload — and
    stopped (final partial window flushed) once the plane is quiet.
    """
    schedule = list(arrivals.times(len(ops)))
    trigger = None
    if rebalance_at is not None:
        if not (0.0 < rebalance_at < 1.0):
            raise ValueError("rebalance_at must be a fraction in (0, 1)")
        trigger = int(len(ops) * rebalance_at)
    box = {}

    def driver() -> Generator:
        # Arrival times are relative to the measured window's start (the
        # sim clock is already past zero after preload).
        t0 = env.sim.now
        if monitor is not None:
            monitor.start()
        rebalance_proc = None
        for i, (op, at) in enumerate(zip(ops, schedule)):
            if trigger is not None and i == trigger:
                heat = plane.directory.offered_counts(ops[:i])
                ctx = env.cpu.new_thread("svc-rebalance")
                rebalance_proc = env.sim.spawn(
                    plane.rebalance_hottest(ctx, heat, rebalance_moves),
                    name="svc-rebalance",
                )
            delay = (t0 + at) - env.sim.now
            if delay > 0:
                yield env.sim.timeout(delay)
            plane.submit(op)
        moves = []
        if rebalance_proc is not None:
            moves = yield rebalance_proc
        yield from plane.wait_quiet()
        if monitor is not None:
            monitor.stop(flush=True)
        box["makespan"] = env.sim.now - t0
        box["moves"] = [
            {"partition": p, "from_shard": s, "to_shard": t} for p, s, t in moves
        ]

    env.sim.spawn(driver(), name="svc-load")
    run_zoned(env, "service.run")
    return box
