"""System-level property tests: p2KVS end-to-end vs a dict model, and
conservation invariants of the simulation kernel."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import P2KVS, adapter_factory
from repro.engine import make_env
from repro.sim import CPUSet, DeviceSpec, Simulator, StorageDevice
from tests.conftest import run_process

KEYS = [b"user%04d" % i for i in range(24)]

TINY = adapter_factory(
    "rocksdb",
    write_buffer_size=1024,
    target_file_size=1024,
    max_bytes_for_level_base=4096,
    l0_compaction_trigger=2,
)

p2kvs_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS), st.just(b"")),
        st.tuples(st.just("get"), st.sampled_from(KEYS), st.just(b"")),
        st.tuples(st.just("scan"), st.sampled_from(KEYS), st.integers(1, 8)),
    ),
    max_size=80,
)


@given(ops=p2kvs_ops)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_p2kvs_matches_dict_model(ops):
    """PUT/DELETE/GET/SCAN through the full framework (router, queues, OBM,
    engines with flush+compaction) must behave exactly like a sorted dict."""
    env = make_env(n_cores=4)
    kvs = run_process(env, P2KVS.open(env, n_workers=3, adapter_open=TINY))
    ctx = env.cpu.new_thread("u")
    model = {}

    def work():
        for op, key, payload in ops:
            if op == "put":
                yield from kvs.put(ctx, key, payload)
                model[key] = payload
            elif op == "delete":
                yield from kvs.delete(ctx, key)
                model.pop(key, None)
            elif op == "get":
                got = yield from kvs.get(ctx, key)
                assert got == model.get(key), (key, got)
            else:  # scan
                got = yield from kvs.scan(ctx, key, payload)
                expected = sorted(
                    (k, v) for k, v in model.items() if k >= key
                )[:payload]
                assert got == expected, (key, payload)
        # Final full verification.
        for key in KEYS:
            got = yield from kvs.get(ctx, key)
            assert got == model.get(key)

    run_process(env, work())


@given(ops=p2kvs_ops)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_p2kvs_crash_recovery_after_close_preserves_model(ops):
    env = make_env(n_cores=4)
    kvs = run_process(env, P2KVS.open(env, n_workers=3, adapter_open=TINY))
    ctx = env.cpu.new_thread("u")
    model = {}

    def work():
        for op, key, payload in ops:
            if op == "put":
                yield from kvs.put(ctx, key, payload)
                model[key] = payload
            elif op == "delete":
                yield from kvs.delete(ctx, key)
                model.pop(key, None)
        yield from kvs.close()

    run_process(env, work())
    env.disk.crash()
    kvs2 = run_process(env, P2KVS.open(env, n_workers=3, adapter_open=TINY))
    ctx2 = env.cpu.new_thread("u2")

    def verify():
        for key in KEYS:
            got = yield from kvs2.get(ctx2, key)
            assert got == model.get(key), key

    run_process(env, verify())


class TestKernelInvariants:
    @given(
        bursts=st.lists(
            st.tuples(st.integers(0, 3), st.floats(1e-6, 1e-3)),
            min_size=1,
            max_size=40,
        ),
        n_cores=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_cpu_busy_time_bounded_by_cores_times_elapsed(self, bursts, n_cores):
        """No CPU model execution can fabricate more busy time than
        n_cores * elapsed, whatever the contention pattern."""
        sim = Simulator()
        cpu = CPUSet(sim, n_cores, migration_overhead=0.0)

        def proc(tid, dur):
            ctx = cpu.new_thread("t%d" % tid, pinned=tid % n_cores)
            yield cpu.exec(ctx, dur)

        for i, (_, dur) in enumerate(bursts):
            sim.spawn(proc(i, dur))
        sim.run()
        total_busy = cpu.total_busy_time()
        assert total_busy <= n_cores * sim.now + 1e-12
        assert total_busy >= max(d for _, d in bursts) - 1e-12

    @given(
        ios=st.lists(
            st.tuples(st.sampled_from(["read", "write"]), st.integers(1, 100000)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_device_never_exceeds_direction_bandwidth(self, ios):
        """Whatever the submission pattern, bytes moved per direction can
        never exceed bandwidth * elapsed (the shared-pipe invariant the
        first device model violated)."""
        sim = Simulator()
        spec = DeviceSpec("d", 1e6, 1e6, 1e-6, 1e-6, channels=8)
        device = StorageDevice(sim, spec)

        def proc(kind, nbytes):
            yield device.submit(kind, nbytes)

        for kind, nbytes in ios:
            sim.spawn(proc(kind, nbytes))
        sim.run()
        elapsed = sim.now
        for kind, bandwidth in (("read", spec.read_bandwidth), ("write", spec.write_bandwidth)):
            moved = device.bytes_by_kind().get(kind, 0.0)
            assert moved <= bandwidth * elapsed + 1e-6

    @given(
        delays=st.lists(st.floats(0, 1e-3), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_sim_time_monotonic_across_events(self, delays):
        sim = Simulator()
        observed = []

        def proc(delay):
            yield sim.timeout(delay)
            observed.append(sim.now)

        for delay in delays:
            sim.spawn(proc(delay))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == max(delays)
