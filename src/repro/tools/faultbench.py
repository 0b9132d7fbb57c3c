"""Fault-injection and crash-recovery campaign runner.

Runs a fixed matrix of fault scenarios — transient device errors, torn WAL
writes, and crashes armed at named sites — against the LSM engine and the
p2KVS framework, then verifies every recovery against the shadow-map oracle
(:mod:`repro.faults.oracle`)::

    python -m repro.tools.faultbench --fault-seed 7

Each scenario drives a small write-heavy workload, injects its faults,
captures the durable device state (crash scenarios capture it synchronously
at the crash site), reopens the store in a *fresh* fault-free env against
that state, and reads back every key the workload ever touched.  The oracle
then checks the three promises:

* every acknowledged write survives recovery,
* nothing half-visible: recovered values were actually written,
* multi-key batches and cross-instance transactions are all-or-nothing.

The whole campaign is deterministic: the report (``--out``) is byte-identical
across reruns with the same ``--fault-seed``, which ``make smoke``
asserts by running it twice and comparing.  Exit status is non-zero when any
oracle violation is found.  See docs/FAULTS.md.
"""

import argparse
import sys
import zlib
from typing import Generator, List, Optional

from repro.engine.batch import WriteBatch
from repro.engine.db import LSMEngine
from repro.engine.options import rocksdb_options
from repro.core.adapters import adapter_factory
from repro.core.framework import P2KVS
from repro.errors import KVError
from repro.faults import (
    CrashPoint,
    CrashTriggered,
    FaultPolicy,
    ShadowMap,
    install_faults,
    restore_durable_state,
    snapshot_durable_state,
)
from repro.monitor import (
    attach_store_monitor,
    ground_truth_from_env,
    score_detection,
)
from repro.tools.common import (
    finish_profile,
    make_env_from_args,
    observability_parent,
    start_profile,
    write_report,
)

N_THREADS = 3
OPS_PER_THREAD = 120
KEY_SPACE = 24  # per-thread keys, so every key sees ~5 overwrites
VALUE_SIZE = 64
BATCH_EVERY = 30  # every 30th op is a 4-key batch
BATCH_KEYS = 4
N_CORES = 8

#: the scaled-down engine shape used by every scenario: a tiny memtable so
#: flushes/switches happen inside a 360-op run, and synchronous WAL so an
#: acknowledged write is durable (the property the oracle checks).
ENGINE_SHAPE = dict(sync_wal=True, write_buffer_size=8 * 1024)

#: fault mixes (rates are per device IO; crashes by armed hit count).
TRANSIENT = dict(error_rate=0.03)
TORN = dict(torn_rate=0.05)

#: the campaign matrix.  Engine scenarios cover both device models and all
#: four engine crash sites; p2KVS adds the framework paths (worker poison,
#: cross-instance txn commit).
SCENARIOS = []
for _dev in ("nvme", "sata"):
    SCENARIOS += [
        dict(name="engine-%s-transient" % _dev, store="engine", device=_dev,
             policy=TRANSIENT),
        dict(name="engine-%s-torn" % _dev, store="engine", device=_dev,
             policy=TORN),
        dict(name="engine-%s-crash-wal-append" % _dev, store="engine",
             device=_dev, crash=("wal-append", 200)),
        dict(name="engine-%s-crash-wal-flush" % _dev, store="engine",
             device=_dev, crash=("wal-flush", 150)),
        dict(name="engine-%s-crash-memtable-switch" % _dev, store="engine",
             device=_dev, crash=("memtable-switch", 2)),
        dict(name="engine-%s-crash-flush-install" % _dev, store="engine",
             device=_dev, crash=("flush-install", 2)),
    ]
SCENARIOS += [
    dict(name="p2kvs-nvme-transient", store="p2kvs", device="nvme",
         policy=TRANSIENT),
    dict(name="p2kvs-nvme-crash-wal-append", store="p2kvs", device="nvme",
         crash=("wal-append", 200)),
    dict(name="p2kvs-nvme-crash-txn-commit", store="p2kvs", device="nvme",
         crash=("txn-commit", 10)),
]


def scenario_seed(name: str, fault_seed: int) -> int:
    """Stable per-scenario seed: varies with both the scenario name and the
    campaign's --fault-seed, never with position in the matrix."""
    return (zlib.crc32(name.encode()) ^ (fault_seed * 2654435761)) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def _value(tid: int, i: int) -> bytes:
    # Unique per (thread, op): a recovered value names its attempt exactly.
    return (b"v-%d-%d" % (tid, i)).ljust(VALUE_SIZE, b".")


def _writer(env, shadow: ShadowMap, tid: int, put, write_batch) -> Generator:
    """One logical user thread.  Each key is owned by one thread, so the
    shadow map's per-key attempt order is program order; typed errors nack
    the attempt and move on (degradation, not termination).  CrashTriggered
    is deliberately NOT caught — a power loss ends the workload."""
    ctx = env.cpu.new_thread("fb-writer-%d" % tid)
    for i in range(OPS_PER_THREAD):
        if i % BATCH_EVERY == BATCH_EVERY - 1:
            # Batch keys are unique to this one group, so partial visibility
            # after recovery is exactly a torn batch.
            items = [
                (b"fbg-%d-%d-%d" % (tid, i, j), _value(tid, i * 10 + j))
                for j in range(BATCH_KEYS)
            ]
            batch = WriteBatch()
            for key, value in items:
                batch.put(key, value)
            attempt = write_batch(ctx, batch)
        else:
            items = [(b"fb-%d-%03d" % (tid, i % KEY_SPACE), _value(tid, i))]
            attempt = put(ctx, *items[0])
        token = shadow.begin(items)
        try:
            yield from attempt
        except KVError as exc:
            shadow.nack(token, exc)
            continue
        shadow.ack(token)


# ---------------------------------------------------------------------------
# Stores under test
# ---------------------------------------------------------------------------


def _open_engine(env):
    return LSMEngine.open(env, "db", rocksdb_options(**ENGINE_SHAPE))


def _open_p2kvs(env):
    return P2KVS.open(
        env,
        n_workers=4,
        adapter_open=adapter_factory("rocksdb", **ENGINE_SHAPE),
    )


#: store under test -> (open, the name of its atomic multi-key write method).
STORES = {"engine": (_open_engine, "write"), "p2kvs": (_open_p2kvs, "write_batch")}


# ---------------------------------------------------------------------------
# One scenario: run -> (maybe crash) -> restore -> reopen -> verify
# ---------------------------------------------------------------------------


def run_scenario(spec: dict, fault_seed: int) -> dict:
    seed = scenario_seed(spec["name"], fault_seed)
    open_store, batch_method = STORES[spec["store"]]
    machine = argparse.Namespace(cores=N_CORES, device=spec["device"])
    env = make_env_from_args(machine)
    shadow = ShadowMap()

    policy = FaultPolicy(seed, **spec["policy"]) if "policy" in spec else None
    crash = CrashPoint(*spec["crash"]) if "crash" in spec else None
    plane_box = []
    monitor = attach_store_monitor(env)

    def driver():
        store = yield from open_store(env)
        # Faults arm only after the (clean) open: the campaign injects into
        # a running workload; what recovery does with the damage is checked
        # on the fresh env below.  The monitor starts at the same instant,
        # so its window edges anchor to the workload, not the open.
        plane_box.append(install_faults(env, policy=policy, crash=crash,
                                        seed=seed))
        monitor.start()
        procs = [
            env.sim.spawn(
                _writer(env, shadow, tid, store.put, getattr(store, batch_method)),
                "fb-writer-%d" % tid,
            )
            for tid in range(N_THREADS)
        ]
        yield env.sim.all_of(procs)
        monitor.finish()

    env.sim.spawn(driver(), "fb-driver")
    crashed = False
    try:
        env.sim.run()
    except CrashTriggered:  # lint: disable=crash-swallowed  (the campaign driver: a triggered crash IS the scenario outcome being verified)
        crashed = True
    plane = plane_box[0]
    if crashed:
        # The machine died, its monitoring plane did not: synthesize the
        # silence the scraper would observe so the watchdog can notice
        # (docs/MONITOR.md, post-mortem windows).
        monitor.finalize(env.sim.now + 8 * monitor.window)
    # Crash scenarios captured durable state synchronously at the site;
    # clean runs capture whatever the drained workload left flushed.
    durable = plane.snapshot or snapshot_durable_state(env.disk)

    # Recovery happens on a FRESH machine with no faults installed: the
    # campaign verifies what recovery does with the damage, not whether it
    # survives further damage while recovering.
    env2 = make_env_from_args(machine)
    restore_durable_state(env2.disk, durable)
    recovered = {}
    recovery = {}

    def verifier():
        store = yield from open_store(env2)
        ctx = env2.cpu.new_thread("fb-verify")
        for key in shadow.universe():
            status = yield from store.get_status(ctx, key)
            recovered[key] = status.value if status.is_ok else None

    env2.sim.spawn(verifier(), "fb-verifier")
    env2.sim.run()
    for name, value in sorted(env2.metrics.counter_values().items()):
        if "recovery" in name:
            recovery[name] = value

    violations = shadow.verify(recovered)
    fingerprint = 0
    for key in sorted(recovered):
        fingerprint = zlib.crc32(key, fingerprint)
        value = recovered[key]
        fingerprint = zlib.crc32(b"\x00<absent>" if value is None else value,
                                 fingerprint)

    report = {
        "name": spec["name"],
        "seed": seed,
        "crashed": crashed,
        "crash_site": plane.crash_site_name,
        "shadow": shadow.summary(),
        "injected": dict(policy.injected) if policy is not None else {},
        "fault_counters": plane.counters.as_dict(),
        "recovery_counters": recovery,
        "recovered_keys": sum(1 for v in recovered.values() if v is not None),
        "fingerprint": "%08x" % (fingerprint & 0xFFFFFFFF),
        "violations": violations,
        "detection": score_detection(
            monitor, ground_truth_from_env(env), spec["name"]
        ),
    }
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Only the --profile family of the shared observability group applies
    # here: the campaign runs many short envs, so per-env stats/trace
    # exports make no sense, and --schedule-seed's identical-for-every-N
    # contract cannot hold — a crash armed at the Nth site hit fires on a
    # different write when same-time IOs are reordered, legitimately
    # changing the durable snapshot under test.
    parser = argparse.ArgumentParser(
        prog="repro.tools.faultbench",
        description="fault-injection & crash-recovery campaign "
        "(docs/FAULTS.md)",
        parents=[
            observability_parent(
                trace=False,
                stats=False,
                critpath=False,
                sanitize=False,
                schedule_seed=False,
            )
        ],
    )
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only the named scenario (repeatable; default: all %d)"
        % len(SCENARIOS),
    )
    parser.add_argument("--out", metavar="PATH", help="write the JSON report")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for spec in SCENARIOS:
            print(spec["name"])
        return 0
    specs = SCENARIOS
    if args.scenario:
        by_name = {spec["name"]: spec for spec in SCENARIOS}
        unknown = [n for n in args.scenario if n not in by_name]
        if unknown:
            print("unknown scenario(s): %s" % ", ".join(unknown),
                  file=sys.stderr)
            return 2
        specs = [by_name[n] for n in args.scenario]

    profiler = start_profile(args)
    results = []
    failed = 0
    undetected = 0
    for spec in specs:
        report = run_scenario(spec, args.fault_seed)
        results.append(report)
        ok = not report["violations"]
        failed += 0 if ok else 1
        detection = report["detection"]
        if detection["detected"] is False:
            undetected += 1
        if detection["detected"]:
            seen = "mttd=%.3fms by %s" % (
                detection["mttd_s"] * 1e3, detection["detected_by"])
        elif detection["detected"] is None:
            seen = "no-fault"
        else:
            seen = "UNDETECTED"
        print(
            "%-34s %s  crash=%-16s acked=%-4d injected=%-3d recovered=%-4d "
            "fp=%s  %s"
            % (
                report["name"],
                "PASS" if ok else "FAIL",
                report["crash_site"] or "-",
                report["shadow"]["acked"],
                sum(report["injected"].values()),
                report["recovered_keys"],
                report["fingerprint"],
                seen,
            )
        )
        for violation in report["violations"]:
            print("    %s" % violation)

    scored = [r["detection"] for r in results
              if r["detection"]["detected"] is not None]
    detection_summary = {
        "n_scored": len(scored),
        "n_detected": sum(1 for d in scored if d["detected"]),
        "n_undetected": undetected,
        "false_positives": sum(
            r["detection"]["false_positives"] for r in results
        ),
        "max_mttd_s": max(
            (d["mttd_s"] for d in scored if d["detected"]), default=None
        ),
    }
    campaign = {
        "fault_seed": args.fault_seed,
        "scenarios": results,
        "n_scenarios": len(results),
        "n_failed": failed,
        "detection_summary": detection_summary,
    }
    if args.out:
        write_report(campaign, args.out)
        print("wrote %s" % args.out)
    finish_profile(args, profiler)
    print(
        "%d/%d scenarios passed, %d/%d faults detected"
        % (
            len(results) - failed,
            len(results),
            detection_summary["n_detected"],
            len(scored),
        )
    )
    return 1 if failed or undetected else 0


if __name__ == "__main__":
    raise SystemExit(main())
