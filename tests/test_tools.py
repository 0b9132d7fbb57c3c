"""Tests for the dbbench and ycsb CLI tools."""

import json

import pytest

from repro.tools import dbbench, ycsb


def _csv_column(csv_text, name):
    """All non-empty values of one column of a stats CSV, as floats."""
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    idx = header.index(name)
    return [
        float(cells[idx])
        for cells in (line.split(",") for line in lines[1:])
        if cells[idx]
    ]


def small_db_args(extra=()):
    return [
        "--num", "400",
        "--threads", "2",
        "--workers", "2",
        "--cores", "8",
    ] + list(extra)


class TestDbBench:
    def test_runs_fill_and_read(self, capsys):
        rc = dbbench.main(
            small_db_args(["--benchmarks", "fillrandom,readrandom"])
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fillrandom" in out and "readrandom" in out
        assert "KQPS" in out or "MQPS" in out or "QPS" in out

    def test_every_system_kind_runs(self, capsys):
        for system in ("rocksdb", "leveldb", "pebblesdb", "multi", "p2kvs", "kvell", "wiredtiger"):
            rc = dbbench.main(
                small_db_args(["--benchmarks", "fillrandom", "--system", system])
            )
            assert rc == 0, system

    def test_scan_benchmark(self, capsys):
        rc = dbbench.main(small_db_args(["--benchmarks", "scan"]))
        assert rc == 0
        assert "scan" in capsys.readouterr().out

    def test_overwrite_preloads(self, capsys):
        rc = dbbench.main(small_db_args(["--benchmarks", "overwrite"]))
        assert rc == 0

    def test_hdd_device(self, capsys):
        rc = dbbench.main(
            small_db_args(["--benchmarks", "fillseq", "--device", "hdd"])
        )
        assert rc == 0
        assert "device=hdd" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        rc = dbbench.main(
            small_db_args(["--benchmarks", "fillrandom", "--json", str(out_file)])
        )
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data[0]["benchmark"] == "fillrandom"
        assert data[0]["qps"] > 0

    def test_unknown_benchmark_rejected(self, capsys):
        rc = dbbench.main(small_db_args(["--benchmarks", "explode"]))
        assert rc == 2

    def test_p2kvs_flags(self, capsys):
        rc = dbbench.main(
            small_db_args(
                [
                    "--benchmarks", "fillrandom",
                    "--system", "p2kvs",
                    "--no-obm",
                    "--async-window", "32",
                ]
            )
        )
        assert rc == 0

    def test_page_cache_flag(self, capsys):
        rc = dbbench.main(
            small_db_args(
                ["--benchmarks", "readrandom", "--page-cache-mb", "0.25"]
            )
        )
        assert rc == 0

    def test_stats_flag_writes_three_exports(self, tmp_path, capsys):
        base = tmp_path / "s"
        rc = dbbench.main(
            small_db_args(
                [
                    "--benchmarks", "fillrandom",
                    "--system", "p2kvs",
                    "--stats",
                    "--stats-interval-ms", "0.02",
                    "--stats-out", str(base),
                ]
            )
        )
        assert rc == 0
        snapshot = json.loads((tmp_path / "s.json").read_text())
        assert any(k.endswith(".wal_appends") for k in snapshot["counters"])
        prom = (tmp_path / "s.prom").read_text()
        assert "# TYPE p2kvs_" in prom
        csv = (tmp_path / "s.csv").read_text()
        assert csv.startswith("time,")
        out = capsys.readouterr().out
        assert "stall/utilization timeline" in out
        assert "wrote stats" in out

    def test_stats_off_leaves_no_artifacts(self, tmp_path, capsys):
        rc = dbbench.main(
            small_db_args(
                ["--benchmarks", "fillrandom", "--stats-out", str(tmp_path / "s")]
            )
        )
        assert rc == 0
        assert list(tmp_path.iterdir()) == []
        assert "wrote stats" not in capsys.readouterr().out

    def test_stats_multiple_benchmarks_get_separate_bases(self, tmp_path, capsys):
        rc = dbbench.main(
            small_db_args(
                [
                    "--benchmarks", "fillrandom,readrandom",
                    "--stats",
                    "--stats-out", str(tmp_path / "s"),
                ]
            )
        )
        assert rc == 0
        for name in ("fillrandom", "readrandom"):
            for ext in (".json", ".prom", ".csv"):
                assert (tmp_path / ("s-%s%s" % (name, ext))).exists(), (name, ext)


class TestYcsbCli:
    def args(self, extra=()):
        return [
            "--records", "400",
            "--ops", "300",
            "--threads", "2",
            "--workers", "2",
            "--cores", "8",
        ] + list(extra)

    def test_load_workload(self, capsys):
        rc = ycsb.main(self.args(["--workload", "LOAD"]))
        assert rc == 0
        assert "LOAD" in capsys.readouterr().out

    def test_mixed_workloads(self, capsys):
        rc = ycsb.main(self.args(["--workload", "a,c"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "A" in out and "C" in out

    def test_scan_workload_e(self, capsys):
        rc = ycsb.main(self.args(["--workload", "E", "--ops", "50"]))
        assert rc == 0

    def test_unknown_workload_rejected(self, capsys):
        rc = ycsb.main(self.args(["--workload", "Z"]))
        assert rc == 2

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "y.json"
        rc = ycsb.main(
            self.args(["--workload", "C", "--json", str(out_file)])
        )
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data[0]["workload"] == "C"

    def test_p2kvs_system(self, capsys):
        rc = ycsb.main(self.args(["--workload", "B", "--system", "p2kvs"]))
        assert rc == 0

    def test_ycsb_a_stats_has_nonzero_queue_and_utilization(self, tmp_path, capsys):
        """Acceptance criterion: a YCSB-A run with --stats emits all three
        exports, and the sampled series shows nonzero OBM queue depth and
        device utilization."""
        base = tmp_path / "y"
        rc = ycsb.main(
            [
                # 4 KiB values against the 256 KiB write buffer force real
                # flush/compaction IO inside the short measured window.
                "--workload", "A",
                "--system", "p2kvs",
                "--records", "2000",
                "--ops", "2000",
                "--threads", "2",
                "--workers", "2",
                "--cores", "8",
                "--value-size", "4096",
                "--stats",
                "--stats-interval-ms", "0.02",
                "--stats-out", str(base),
            ]
        )
        assert rc == 0
        assert (tmp_path / "y.json").exists()
        assert (tmp_path / "y.prom").exists()
        csv = (tmp_path / "y.csv").read_text()
        assert any(v > 0 for v in _csv_column(csv, "p2kvs.obm.queue_depth"))
        assert any(v > 0 for v in _csv_column(csv, "device.in_flight_ios"))
        assert any(v > 0 for v in _csv_column(csv, "cpu.busy_cores"))
        out = capsys.readouterr().out
        assert "stall/utilization timeline" in out


class TestStrictSystemOptions:
    """open_system rejects undeclared options instead of ignoring them."""

    def test_unknown_option_raises_with_did_you_mean(self):
        from repro.engine import make_env
        from repro.systems import open_system

        env = make_env(n_cores=4)
        with pytest.raises(ValueError) as exc:
            open_system("p2kvs", env, asycn_window=256)
        msg = str(exc.value)
        assert "asycn_window" in msg
        assert "did you mean 'async_window'" in msg

    def test_unknown_scan_strategy_raises(self):
        from repro.engine import make_env
        from repro.systems import open_system

        with pytest.raises(ValueError, match="scan strategy 'Serial'"):
            open_system("p2kvs", make_env(n_cores=4), scan_strategy="Serial")

    def test_unknown_option_without_close_match_lists_surface(self):
        from repro.engine import make_env
        from repro.systems import open_system

        env = make_env(n_cores=4)
        with pytest.raises(ValueError) as exc:
            open_system("wiredtiger", env, workers=2)
        assert "no options" in str(exc.value)

    def test_describe_options_reflects_opener_signatures(self):
        from repro.systems import describe_options, system_names

        assert describe_options("rocksdb") == {"engine": None}
        assert describe_options("wiredtiger") == {}
        p2 = describe_options("p2kvs")
        assert p2["workers"] == 8 and p2["async_window"] == 0
        assert "sync_wal" in p2 and "instance" in p2
        for name in system_names():
            describe_options(name)  # never raises for a registered system
        with pytest.raises(ValueError):
            describe_options("nosuchsystem")

    def test_register_rejects_kwargs_catch_all(self):
        from repro.systems import SYSTEM_REGISTRY, register_system

        with pytest.raises(TypeError):
            @register_system("bad-system")
            def _open_bad(env, **_ignored):
                raise AssertionError("never opened")
        assert "bad-system" not in SYSTEM_REGISTRY

    def test_dbbench_filters_flags_per_system(self, capsys):
        # The CLI exposes workers/obm/async-window for every system; the
        # strict registry means dbbench must filter them, so a system
        # without those options still runs.
        rc = dbbench.main(
            small_db_args(
                ["--benchmarks", "fillrandom", "--system", "wiredtiger",
                 "--async-window", "64"]
            )
        )
        assert rc == 0

    def test_help_epilog_lists_per_system_options(self):
        epilog = dbbench.build_parser().epilog
        assert "p2kvs" in epilog and "async_window" in epilog
        assert ycsb.build_parser().epilog == epilog

    def test_engine_is_an_option_of_exactly_the_lsm_backed_systems(self):
        from repro.systems import describe_options, system_names

        lsm_backed = {"rocksdb", "leveldb", "pebblesdb", "multi", "p2kvs"}
        assert {n for n in system_names() if "engine" in describe_options(n)} == lsm_backed
        listed = {
            line.split()[0]
            for line in dbbench.build_parser().epilog.splitlines()[1:]
            if "engine" in line.split()[-1]
        }
        assert listed == lsm_backed

    def test_engine_override_typo_raises_with_did_you_mean(self):
        from repro.engine import make_env
        from repro.systems import open_system

        with pytest.raises(ValueError) as exc:
            open_system("rocksdb", make_env(n_cores=4), engine={"blok_cache_bytes": 1})
        assert "did you mean 'block_cache_bytes'" in str(exc.value)


#: the hand-built side of the equivalence below: the scaled shape the figures
#: passed before they opened through the registry, spelled out in bytes on
#: purpose — an independent copy, not an import of ``BENCH_SHAPE``.
_HAND_SHAPE = dict(
    write_buffer_size=65536,
    target_file_size=65536,
    max_bytes_for_level_base=262144,
    block_cache_bytes=524288,
)


def _hand_built(name, env):
    """What ``benchmarks/`` wrote out per figure before ``run_case``."""
    from repro.core import adapter_factory
    from repro.engine import leveldb_options, pebblesdb_options, rocksdb_options
    from repro.harness import (
        KVellSystem,
        MultiInstanceSystem,
        P2KVSSystem,
        SingleInstanceSystem,
        WiredTigerSystem,
    )

    return {
        "rocksdb": lambda: SingleInstanceSystem.open(env, rocksdb_options(**_HAND_SHAPE)),
        "leveldb": lambda: SingleInstanceSystem.open(env, leveldb_options(**_HAND_SHAPE)),
        "pebblesdb": lambda: SingleInstanceSystem.open(
            env, pebblesdb_options(**_HAND_SHAPE), name="pebbles"
        ),
        "multi": lambda: MultiInstanceSystem.open(
            env, 4, lambda: rocksdb_options(**_HAND_SHAPE)
        ),
        "p2kvs": lambda: P2KVSSystem.open(
            env,
            n_workers=4,
            adapter_open=adapter_factory("rocksdb", **_HAND_SHAPE),
            async_window=64,
        ),
        "kvell": lambda: KVellSystem.open(env, n_workers=4),
        "wiredtiger": lambda: WiredTigerSystem.open(env),
    }[name]()


_REGISTRY_OPTS = {
    "multi": dict(workers=4),
    "p2kvs": dict(workers=4, async_window=64),
    "kvell": dict(workers=4),
}


def _fill_read_facts(env, system):
    """A 600-op seeded fill+read, then every key read back: the facts two
    builds of one configuration must agree on exactly."""
    import hashlib

    from repro.harness import run_closed_loop
    from repro.workloads import fillrandom, readrandom, split_stream
    from tests.conftest import run_process

    fill = split_stream(fillrandom(400, 2032, seed=5), 4)
    filled = run_closed_loop(env, system, fill)
    read = run_closed_loop(env, system, split_stream(readrandom(200, 400, seed=6), 4))
    digest = hashlib.sha256()
    ctx = env.cpu.new_thread("read-back")
    for i, stream in enumerate(fill):
        store = system.store_for(i)
        for _verb, key, _value in stream:
            digest.update(key + (run_process(env, store.get(ctx, key)) or b"<missing>"))
    return {
        "now": env.sim.now,
        "qps": (filled.qps, read.qps),
        "device_bytes": (sorted(filled.device_bytes.items()), sorted(read.device_bytes.items())),
        "write_amp": filled.io_amplification,
        "digest": digest.hexdigest(),
    }


class TestRegistryEquivalence:
    """The registry with ``engine=`` builds byte-for-byte the systems the
    figure suite used to assemble by hand — the proof behind replacing the
    per-figure ladders with ``benchmarks.common.run_case``."""

    @pytest.mark.parametrize(
        "name",
        ["rocksdb", "leveldb", "pebblesdb", "multi", "p2kvs", "kvell", "wiredtiger"],
    )
    def test_registry_equals_hand_built(self, name):
        from repro.engine import make_env
        from repro.harness import open_system as run_open
        from repro.systems import describe_options, open_system

        opts = dict(_REGISTRY_OPTS.get(name, {}))
        if "engine" in describe_options(name):
            opts["engine"] = {"block_cache_bytes": 512 * 1024}
        env_a, env_b = make_env(n_cores=8), make_env(n_cores=8)
        by_name = _fill_read_facts(env_a, open_system(name, env_a, **opts))
        by_hand = _fill_read_facts(env_b, run_open(env_b, _hand_built(name, env_b)))
        assert by_name == by_hand
        assert by_name["digest"] != ""


class TestSharedFlagGroup:
    """The six run CLIs share one argparse parent: same spelling everywhere."""

    SHARED = {
        "dbbench": ("trace_out", "stats", "stats_interval_ms", "stats_out",
                    "critpath", "critpath_out", "sanitize", "profile",
                    "profile_out", "schedule_seed"),
        "ycsb": ("trace_out", "stats", "stats_interval_ms", "stats_out",
                 "critpath", "critpath_out", "sanitize", "profile",
                 "profile_out", "schedule_seed"),
        "serve": ("trace_out", "stats", "critpath", "sanitize", "profile",
                  "schedule_seed", "monitor", "monitor_window_ms",
                  "monitor_out"),
        "whatif": ("sanitize", "schedule_seed"),
        "faultbench": ("profile", "profile_out"),
        "profile": ("schedule_seed",),
    }

    def _parser(self, tool):
        import importlib

        return importlib.import_module("repro.tools.%s" % tool).build_parser()

    @pytest.mark.parametrize("tool", sorted(SHARED))
    def test_tool_carries_its_shared_flags(self, tool):
        args = self._parser(tool).parse_args([])
        for dest in self.SHARED[tool]:
            assert hasattr(args, dest), (tool, dest)

    def test_flag_defaults_agree_across_tools(self):
        # Any flag present in two tools must parse to the same default —
        # the drift the shared parent exists to prevent.
        defaults = {}
        for tool in self.SHARED:
            args = vars(self._parser(tool).parse_args([]))
            for dest in self.SHARED[tool]:
                if dest in defaults:
                    assert defaults[dest][1] == args[dest], (
                        "default for --%s drifted between %s and %s"
                        % (dest, defaults[dest][0], tool)
                    )
                else:
                    defaults[dest] = (tool, args[dest])

    def test_serve_rejects_unknown_scenario_under_its_own_name(self, capsys):
        from repro.tools import serve

        with pytest.raises(SystemExit) as exc:
            serve.main(["--scenario", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro.tools.serve: error" in err and "nosuch" in err

    def test_parent_families_opt_out(self):
        from repro.tools.common import observability_parent

        thin = observability_parent(
            trace=False, stats=False, critpath=False, profile=False,
            sanitize=False,
        )
        args = thin.parse_args([])
        assert hasattr(args, "schedule_seed")
        assert not hasattr(args, "stats")
        assert not hasattr(args, "profile")

    def test_faultbench_profile_does_not_change_report(self, tmp_path, capsys):
        from repro.tools import faultbench

        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        rc1 = faultbench.main(
            ["--scenario", "engine-nvme-transient", "--out", str(out1)]
        )
        rc2 = faultbench.main(
            ["--scenario", "engine-nvme-transient", "--profile",
             "--out", str(out2)]
        )
        capsys.readouterr()
        assert rc1 == rc2 == 0
        assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize(
    "base, multiple, expected",
    [
        ("trace.json", True, "trace-A.json"),
        ("trace.json", False, "trace.json"),
        # A dot in a directory is not the file's extension.
        ("./stats", True, "./stats-A"),
        ("../out/critpath", True, "../out/critpath-A"),
        ("runs.d/trace", True, "runs.d/trace-A"),
    ],
)
def test_trace_path_names_each_run_of_one_invocation(base, multiple, expected):
    from repro.tools.common import trace_path

    assert trace_path(base, "A", multiple) == expected
