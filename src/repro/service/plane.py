"""The service plane: N p2KVS shards behind one router, on one machine.

:class:`ServicePlane` composes the pieces this package provides:

* ``n_shards`` independent p2KVS deployments, each opened through the
  ``repro.open_system`` registry with its own ``instance`` namespace
  (``shard-0`` .. ``shard-N-1``) so their on-disk paths, metric prefixes
  and thread names coexist on the shared :class:`~repro.engine.env.Env`;
* the :class:`~repro.service.directory.PartitionDirectory`, which hashes
  each key to a partition and places partitions on shards;
* one :class:`~repro.service.admission.ShardLane` per shard (bounded
  admission + dispatchers), feeding per-class latency histograms
  ``service.latency.<class>`` in the env's stats registry.

``submit(op)`` is the front door: route, check for a migrating partition,
admit or shed.  ``move_partition`` is the manual rebalance primitive: a
*live* partition move that stays consistent under traffic by

1. marking the partition migrating — new arrivals for it are shed (and
   counted as ``rebalance_shed``) so no writes land mid-copy;
2. quiescing the source lane — already-admitted requests finish, then the
   dispatchers park, freezing the shard's contents;
3. copying the partition's keys source → target through ordinary
   ``scan``/``put`` (the copy itself is simulated work and shows up in the
   timeline);
4. flipping the directory entry and releasing the lane.

The stale copies left on the source shard are unreachable garbage — the
router never maps the partition there again — mirroring how real sharded
stores defer tombstoning to a background cleaner.
"""

from typing import Dict, Generator, List, Optional, Sequence, Set

from repro.service.admission import ShardLane, request_skew
from repro.service.directory import PartitionDirectory
from repro.systems import open_system

__all__ = ["ServicePlane"]

#: verb → latency class, mirroring the harness's accounting.
VERB_CLASS = {
    "insert": "write",
    "update": "write",
    "read": "read",
    "rmw": "rmw",
}


class ServicePlane:
    """N sharded p2KVS instances + router + admission, on one Env."""

    def __init__(
        self,
        env,
        n_shards: int = 4,
        n_partitions: int = 32,
        queue_cap: int = 48,
        n_dispatchers: int = 4,
        key_space: int = 0,
        system_opts: Optional[dict] = None,
    ):
        self.env = env
        self.n_shards = n_shards
        self.key_space = key_space
        self.directory = PartitionDirectory(n_partitions, n_shards)
        #: the same object under its routing role: ``router.shard_of(key)``
        #: names the shard that serves ``key``.
        self.router = self.directory
        self.counters = env.metrics.group("service", fresh=True)
        self._latency: Dict[str, object] = {}
        for cls in ("read", "write", "rmw"):
            self._latency[cls] = env.metrics.histogram(
                "service.latency.%s" % cls, fresh=True
            )
        opts = dict(system_opts or {})
        # Unlike an embedded store, a service acknowledges a write only once
        # the WAL is on the device: group commits carry real IO (which is
        # also what gives ``--fault-rate`` something to inject into).
        opts.setdefault("sync_wal", True)
        workers_per_shard = opts.get("workers", 8)
        self.shards = [
            open_system(
                "p2kvs",
                env,
                instance="shard-%d" % i,
                # Disjoint pin ranges: shard i's workers own their cores
                # instead of every shard stacking on core 0.
                pin_base=i * workers_per_shard,
                **opts,
            )
            for i in range(n_shards)
        ]
        # Dispatchers pin to the cores above the workers' range, one per
        # dispatcher when the machine is big enough (wrapping otherwise).
        dispatcher_base = n_shards * workers_per_shard
        self.lanes = [
            ShardLane(
                env,
                i,
                self.shards[i],
                queue_cap=queue_cap,
                n_dispatchers=n_dispatchers,
                record_latency=self._record_latency,
                pin_base=dispatcher_base + i * n_dispatchers,
            )
            for i in range(n_shards)
        ]
        for lane in self.lanes:
            lane.start()
        self._migrating: Set[int] = set()
        self._copy_seq = 0  # migration-copy skew sequence

    # -- metrics -------------------------------------------------------------

    def _record_latency(self, op_class: str, latency: float) -> None:
        self._latency[op_class].record(latency)

    def latency_histogram(self, op_class: str):
        return self._latency[op_class]

    # -- the front door ------------------------------------------------------

    def submit(self, op) -> bool:
        """Route one ``(verb, key, payload)`` op; returns True if admitted.

        Sheds (returns False) when the key's partition is mid-migration or
        the target lane's admission queue is full.
        """
        verb, key = op[0], op[1]
        op_class = VERB_CLASS[verb]
        self.counters.add("offered")
        self.counters.add("offered.%s" % op_class)
        partition, shard = self.directory.route(key)
        if partition in self._migrating:
            self.lanes[shard].shed_for_rebalance()
            return False
        return self.lanes[shard].submit(op, op_class)

    def wait_quiet(self) -> Generator:
        """Block until every admitted request on every lane has completed."""
        for lane in self.lanes:
            yield from lane.wait_quiet()

    # -- manual rebalance ----------------------------------------------------

    def move_partition(self, ctx, partition: int, target_shard: int) -> Generator:
        """Live-move ``partition`` onto ``target_shard`` (see module doc)."""
        source_shard = self.directory.owner(partition)
        if source_shard == target_shard:
            raise ValueError(
                "partition %d already on shard %d" % (partition, target_shard)
            )
        # Migration windows go to the event log so the monitor (and any
        # post-hoc report) can correlate shed spikes with rebalancing
        # instead of mistaking them for overload.
        token = self.env.metrics.events.begin(
            "partition_migration",
            self.env.sim.now,
            partition=partition,
            source=source_shard,
            target=target_shard,
        )
        self._migrating.add(partition)
        source_lane = self.lanes[source_shard]
        yield from source_lane.quiesce()
        copied = yield from self._copy_partition(
            ctx, partition, source_shard, target_shard
        )
        self.directory.move_partition(partition, target_shard)
        self._migrating.discard(partition)
        source_lane.release()
        self.counters.add("partitions_moved")
        self.counters.add("keys_migrated", copied)
        self.env.metrics.events.end(token, self.env.sim.now)
        return copied

    def _copy_partition(
        self, ctx, partition: int, source_shard: int, target_shard: int
    ) -> Generator:
        # Over-scan the whole source shard and keep the partition's keys.
        # ``key_space`` (when known) bounds the scan; a shard can never
        # hold more keys than the whole key space.
        count = self.key_space if self.key_space else 1 << 20
        source = self.shards[source_shard].kvs
        target = self.shards[target_shard].kvs
        rows = yield from source.scan(ctx, b"", count)
        copied = 0
        for key, value in rows:
            if self.directory.partition(key) != partition:
                continue
            # The copier's puts interleave with the *target* shard's live
            # traffic; skew them like admitted requests (the copy stream
            # ids sit above the shard-lane ids) so no put ties a worker's
            # batch-collect instant.  See admission.request_skew.
            yield self.env.sim.timeout(
                request_skew(self.n_shards + source_shard, self._copy_seq)
            )
            self._copy_seq += 1
            yield from target.put(ctx, key, value)
            copied += 1
        return copied

    def rebalance_hottest(
        self, ctx, partition_load: Sequence[int], n_moves: int = 2
    ) -> Generator:
        """Move the ``n_moves`` hottest partitions to the coolest shards.

        ``partition_load`` is requests-per-partition (any deterministic
        proxy works; the scenarios use offered counts).  Shard load is the
        sum over its partitions; each move sends the hottest not-yet-moved
        partition to the currently least-loaded *other* shard, updating the
        projection between moves.  Ties break on lowest id, so the plan is
        a pure function of the load vector.
        """
        shard_load = [0] * self.n_shards
        for p, load in enumerate(partition_load):
            shard_load[self.directory.owner(p)] += load
        by_heat = sorted(
            range(len(partition_load)),
            key=lambda p: (-partition_load[p], p),
        )
        moves = []
        for partition in by_heat[:n_moves]:
            source = self.directory.owner(partition)
            candidates = [s for s in range(self.n_shards) if s != source]
            target = min(candidates, key=lambda s: (shard_load[s], s))
            if shard_load[target] >= shard_load[source]:
                continue  # move would not help; skip deterministically
            yield from self.move_partition(ctx, partition, target)
            shard_load[source] -= partition_load[partition]
            shard_load[target] += partition_load[partition]
            moves.append((partition, source, target))
        return moves

    # -- lifecycle -----------------------------------------------------------

    def shard_names(self) -> List[str]:
        return [s.name for s in self.shards]

    def close(self) -> Generator:
        for shard in self.shards:
            yield from shard.close()
