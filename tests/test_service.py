"""Tests for the sharded service plane (repro.service + repro.tools.serve).

Covers the properties docs/SERVICE.md promises: partition-function
stability, directory placement and move semantics, arrival-schedule determinism, the
shed-versus-goodput accounting identities, migration read-back
correctness, and byte-identical SLO reports across reruns and under
``--schedule-seed`` perturbation.
"""

import collections
import json
import math

import pytest

from repro.engine import make_env
from repro.service import (
    DiurnalArrivals,
    PartitionDirectory,
    PoissonArrivals,
    ServicePlane,
    build_scenario,
    build_slo_report,
    preload_plane,
    run_service_load,
)
from repro.storage.bloom import fnv1a
from repro.tools import serve
from repro.workloads.keygen import make_key, make_value
from tests.conftest import run_process


class TestPartitionDirectory:
    def test_pinned_values(self):
        # The partition function is part of the on-disk/placement contract:
        # these exact values must never drift across refactors.
        d32 = PartitionDirectory(32, 4)
        assert [d32.partition(make_key(i)) for i in (0, 1, 7, 123, 799)] == [
            18, 5, 19, 2, 21,
        ]
        d8 = PartitionDirectory(8, 2)
        assert [d8.partition(make_key(i)) for i in (0, 1, 7, 123, 799)] == [
            2, 5, 3, 2, 5,
        ]

    def test_partition_is_fnv1a_mod_n(self):
        d = PartitionDirectory(32, 4)
        for i in range(200):
            key = make_key(i)
            assert d.partition(key) == fnv1a(key) % 32
            assert d.route(key) == (d.partition(key), d.owner(d.partition(key)))

    def test_stable_across_instances(self):
        # Placement is not part of the partition: any shard count agrees.
        a, b = PartitionDirectory(16, 2), PartitionDirectory(16, 5)
        for i in range(200):
            assert a.partition(make_key(i)) == b.partition(make_key(i))

    def test_keys_spread_across_partitions(self):
        d = PartitionDirectory(8, 2)
        counts = d.offered_counts([("read", make_key(i)) for i in range(400)])
        tally = collections.Counter(d.partition(make_key(i)) for i in range(400))
        assert counts == [tally[p] for p in range(8)]
        assert sum(counts) == 400
        # FNV-1a spreads sequential keys: no partition starves or hoards.
        assert min(counts) >= 25 and max(counts) <= 75

    def test_route_follows_a_move(self):
        d = PartitionDirectory(8, 2)
        key = make_key(7)
        partition, shard = d.route(key)
        assert d.shard_of(key) == shard == d.owner(partition)
        d.move_partition(partition, 1 - shard)
        assert d.route(key) == (partition, 1 - shard)
        assert d.shard_of(key) == 1 - shard

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            PartitionDirectory(0, 1)

    def test_round_robin_start(self):
        d = PartitionDirectory(8, 3)
        assert [d.owner(p) for p in range(8)] == [0, 1, 2, 0, 1, 2, 0, 1]
        assert d.partitions_on(0) == [0, 3, 6]

    def test_move_bumps_version_and_audits(self):
        d = PartitionDirectory(8, 2)
        assert d.version == 0
        source = d.move_partition(0, 1)
        assert source == 0
        assert d.owner(0) == 1
        assert d.version == 1
        assert d.moves == [(1, 0, 0, 1)]

    def test_move_validation(self):
        d = PartitionDirectory(8, 2)
        with pytest.raises(ValueError):
            d.move_partition(8, 1)  # partition out of range
        with pytest.raises(ValueError):
            d.move_partition(0, 2)  # shard out of range
        with pytest.raises(ValueError):
            d.move_partition(1, 1)  # already there

    def test_snapshot_round_trips_the_move_log(self):
        d = PartitionDirectory(8, 2)
        d.move_partition(0, 1)
        snap = d.snapshot()
        assert snap["version"] == 1
        assert snap["partitions_per_shard"] == [3, 5]
        assert snap["moves"][0] == {
            "version": 1, "partition": 0, "from_shard": 0, "to_shard": 1,
        }

    def test_needs_a_partition_per_shard(self):
        with pytest.raises(ValueError):
            PartitionDirectory(2, 4)


class TestArrivals:
    def test_poisson_schedule_is_deterministic(self):
        a = list(PoissonArrivals(1e6, seed=7).times(500))
        b = list(PoissonArrivals(1e6, seed=7).times(500))
        assert a == b
        assert list(PoissonArrivals(1e6, seed=8).times(500)) != a

    def test_poisson_times_strictly_increase(self):
        times = list(PoissonArrivals(1e6, seed=7).times(500))
        assert len(times) == 500
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
        # Mean gap within 20% of 1/rate over 500 draws.
        assert times[-1] / 500 == pytest.approx(1e-6, rel=0.2)

    def test_diurnal_rate_swings_between_trough_and_peak(self):
        d = DiurnalArrivals(1e6, period=1.0, trough_fraction=0.2, seed=7)
        assert d.rate_at(0.0) == pytest.approx(0.2e6)
        assert d.rate_at(0.5) == pytest.approx(1e6)
        assert d.rate_at(1.0) == pytest.approx(0.2e6)

    def test_diurnal_schedule_is_deterministic(self):
        d = DiurnalArrivals(1e6, period=1e-3, seed=7)
        a = list(d.times(300))
        assert a == list(d.times(300))
        assert all(t1 > t0 for t0, t1 in zip(a, a[1:]))

    def test_diurnal_clusters_at_the_peak(self):
        d = DiurnalArrivals(1e6, period=1e-3, trough_fraction=0.05, seed=7)
        times = [t % 1e-3 for t in d.times(400)]
        near_peak = sum(1 for t in times if 0.25e-3 < t < 0.75e-3)
        assert near_peak > 300  # mid-period half-window carries the bulk

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(0.0, 1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(1e6, 0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(1e6, 1.0, trough_fraction=1.5)


def _small_plane(env, n_shards=2):
    return ServicePlane(
        env,
        n_shards=n_shards,
        n_partitions=8,
        queue_cap=16,
        n_dispatchers=2,
        key_space=200,
        system_opts=dict(workers=2),
    )


def _small_spec(name, **over):
    params = dict(n_ops=300, rate=600000.0, key_space=200, value_size=64, seed=42)
    params.update(over)
    return build_scenario(name, **params)


class TestServicePlaneRun:
    def _run(self, name):
        env = make_env(n_cores=16)
        plane = _small_plane(env)
        spec = _small_spec(name)
        preload_plane(env, plane, spec["preload"])
        run = run_service_load(
            env,
            plane,
            spec["ops"],
            spec["arrivals"],
            rebalance_at=spec["rebalance_at"],
            rebalance_moves=spec["rebalance_moves"],
        )
        return plane, run, spec

    def test_accounting_identities(self):
        plane, run, spec = self._run("hotkey")
        report = build_slo_report(plane, run, spec)
        # Every arrival is admitted or shed, never both, never lost.
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["offered"] == 300
        # The driver waits for quiet: nothing is left in flight.
        assert report["completed"] == report["admitted"]
        # Migration sheds are a sub-category of sheds.
        assert report["shed"] >= report["rebalance_shed"]
        assert sum(report["offered_by_class"].values()) == report["offered"]
        # Latency histograms saw exactly the completed requests.
        measured = sum(
            s["count"] for s in report["latency"].values() if s["count"]
        )
        assert measured == report["completed"]

    def test_per_shard_rows_sum_to_totals(self):
        plane, run, spec = self._run("uniform")
        report = build_slo_report(plane, run, spec)
        for field in ("admitted", "shed", "completed", "errors"):
            assert sum(r[field] for r in report["per_shard"]) == report[field]
        owned = [p for r in report["per_shard"] for p in r["partitions"]]
        assert sorted(owned) == list(range(8))

    def test_migration_moves_partitions_and_audits(self):
        plane, run, spec = self._run("migration")
        report = build_slo_report(plane, run, spec)
        assert report["directory"]["version"] == len(report["moves"])
        assert len(report["moves"]) >= 1
        for move in report["moves"]:
            assert plane.directory.owner(move["partition"]) == move["to_shard"]

    def test_migrated_partition_reads_back_from_target(self):
        env = make_env(n_cores=16)
        plane = _small_plane(env)
        spec = _small_spec("uniform")
        preload_plane(env, plane, spec["preload"])
        partition = 0
        source = plane.directory.owner(partition)
        target = 1 - source
        moved_keys = [
            make_key(i)
            for i in range(200)
            if plane.directory.partition(make_key(i)) == partition
        ]
        assert moved_keys  # the partition actually owns some of the dataset

        def mover():
            ctx = env.cpu.new_thread("test-mover")
            copied = yield from plane.move_partition(ctx, partition, target)
            return copied

        copied = run_process(env, mover())
        assert copied == len(moved_keys)
        assert plane.directory.owner(partition) == target

        def reader():
            ctx = env.cpu.new_thread("test-reader")
            values = []
            for key in moved_keys:
                value = yield from plane.shards[target].kvs.get(ctx, key)
                values.append(value)
            return values

        values = run_process(env, reader())
        for key, value in zip(moved_keys, values):
            i = int(key[len(b"user"):])
            assert value == make_value(i, 64)

    def test_shedding_kicks_in_under_overload(self):
        env = make_env(n_cores=16)
        plane = _small_plane(env)
        spec = _small_spec("uniform", rate=5000000.0)
        preload_plane(env, plane, spec["preload"])
        run_service_load(env, plane, spec["ops"], spec["arrivals"])
        shed = sum(int(l.counters.get("shed")) for l in plane.lanes)
        assert shed > 0
        # Queue depth never exceeded the admission bound.
        for lane in plane.lanes:
            assert lane.max_depth <= 16

    def test_shards_open_via_registry_with_instance_names(self):
        env = make_env(n_cores=16)
        plane = _small_plane(env)
        assert plane.shard_names() == ["shard-0-2", "shard-1-2"]

    def test_router_names_the_shard_that_serves_a_key(self):
        # perfbench's read-back contract: ``plane.router.shard_of(key)`` is
        # the lane a request for ``key`` goes to and the shard holding it,
        # before and after a live move.
        env = make_env(n_cores=16)
        plane = _small_plane(env)
        spec = _small_spec("uniform")
        preload_plane(env, plane, spec["preload"])
        moved = plane.directory.partition(make_key(0))
        target = 1 - plane.directory.owner(moved)

        def mover():
            ctx = env.cpu.new_thread("test-mover")
            yield from plane.move_partition(ctx, moved, target)

        run_process(env, mover())
        keys = [make_key(i) for i in range(200)]
        assert plane.router.shard_of(keys[0]) == target

        def arrivals(lane):
            return int(lane.counters.get("admitted") + lane.counters.get("shed"))

        for key in keys:
            before = [arrivals(lane) for lane in plane.lanes]
            plane.submit(("read", key, None))
            after = [arrivals(lane) for lane in plane.lanes]
            served = [s for s in range(2) if after[s] > before[s]]
            assert served == [plane.router.shard_of(key)]

        def reader():
            ctx = env.cpu.new_thread("test-reader")
            values = []
            for key in keys:
                shard = plane.shards[plane.router.shard_of(key)]
                values.append((yield from shard.kvs.get(ctx, key)))
            return values

        values = run_process(env, reader())
        assert values == [make_value(i, 64) for i in range(200)]


def _serve_args(tmp_path, tag, extra=()):
    return [
        "--scenario", "hotkey",
        "--shards", "2",
        "--partitions", "8",
        "--ops", "300",
        "--rate", "600000",
        "--key-space", "200",
        "--dispatchers", "2",
        "--workers", "2",
        "--cores", "16",
        "--json", str(tmp_path / ("%s.json" % tag)),
        "--csv", str(tmp_path / ("%s.csv" % tag)),
    ] + list(extra)


class TestServeCLI:
    def test_report_is_byte_identical_across_reruns_and_seeds(self, tmp_path, capsys):
        assert serve.main(_serve_args(tmp_path, "a")) == 0
        assert serve.main(_serve_args(tmp_path, "b")) == 0
        assert serve.main(_serve_args(tmp_path, "c", ["--schedule-seed", "7"])) == 0
        assert serve.main(_serve_args(tmp_path, "d", ["--schedule-seed", "99"])) == 0
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert a == (tmp_path / "c.json").read_bytes()
        assert a == (tmp_path / "d.json").read_bytes()
        csv_a = (tmp_path / "a.csv").read_bytes()
        assert csv_a == (tmp_path / "c.csv").read_bytes()

    def test_report_contents(self, tmp_path, capsys):
        assert serve.main(_serve_args(tmp_path, "r")) == 0
        out = capsys.readouterr().out
        assert "p99 us" in out and "shard" in out
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["offered"] == 300
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["completed"] == report["admitted"]
        assert report["shards_opened"] == ["shard-0-2", "shard-1-2"]
        assert set(report["latency"]) == {"read", "write", "rmw"}
        assert report["latency"]["read"]["p99_us"] > 0
        csv_text = (tmp_path / "r.csv").read_text()
        assert csv_text.startswith("shard,instance,admitted,shed")
        assert len(csv_text.strip().split("\n")) == 4  # header + 2 shards + total

    def test_slo_quantiles_are_exact_nearest_rank(self, tmp_path, capsys, monkeypatch):
        recorded = {}
        record = ServicePlane._record_latency

        def spy(plane, op_class, latency):
            recorded.setdefault(op_class, []).append(latency)
            record(plane, op_class, latency)

        monkeypatch.setattr(ServicePlane, "_record_latency", spy)
        assert serve.main(_serve_args(tmp_path, "q")) == 0
        report = json.loads((tmp_path / "q.json").read_text())
        assert sorted(recorded) == ["read", "write"]
        for cls, values in recorded.items():
            values.sort()
            for key, p in (("p50_us", 50), ("p99_us", 99), ("p999_us", 99.9)):
                rank = max(1, math.ceil(p / 100.0 * len(values)))
                assert report["latency"][cls][key] == round(values[rank - 1] * 1e6, 3)
        assert serve.main(_serve_args(tmp_path, "q9", ["--schedule-seed", "9"])) == 0
        assert (tmp_path / "q.json").read_bytes() == (tmp_path / "q9.json").read_bytes()

    def test_fault_injection_surfaces_per_shard(self, tmp_path, capsys):
        rc = serve.main(
            _serve_args(tmp_path, "f", ["--fault-rate", "0.6", "--fault-seed", "3"])
        )
        assert rc == 0
        report = json.loads((tmp_path / "f.json").read_text())
        # Injection must at least perturb the run; with deep retries most
        # faults are absorbed, so errors may legitimately be zero — but the
        # accounting identities must survive either way.
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["completed"] == report["admitted"]
        assert report["errors"] == sum(r["errors"] for r in report["per_shard"])

    def test_rejects_zero_shards(self, capsys):
        assert serve.main(["--shards", "0"]) == 2

    def test_single_shard_runs(self, tmp_path, capsys):
        args = _serve_args(tmp_path, "s1")
        args[args.index("--shards") + 1] = "1"
        assert serve.main(args) == 0
        report = json.loads((tmp_path / "s1.json").read_text())
        assert len(report["per_shard"]) == 1
