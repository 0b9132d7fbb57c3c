"""The one run path behind the repro CLIs: flags, machine, observers, artifacts.

Every tool in this package fronts the same simulated machine, and every
observability plane (tracing, stats, critical path, health monitor,
sanitizers, host profiler, schedule perturbation) is a machine-wide attach —
so the flags that switch them on must mean the same thing everywhere, the
planes must install in one order, and their artifacts must be written and
announced one way.  Each tool keeps only its parser, its op generator and its
result columns; the rest of a run is assembled here, once:

* :func:`observability_parent` builds **one argparse parent** carrying the
  shared group (``--trace-out/--stats*/--critpath*/--sanitize/--profile*/
  --monitor*/--schedule-seed``); :func:`add_machine_args` and
  :func:`add_system_args` carry the flags the machine and system builders
  read.  Tools opt out of the families they cannot honor (``faultbench``
  runs many envs per campaign, so per-env stats exports make no sense there)
  but can never re-spell a flag.
* :func:`make_env_from_args` is the only env builder (and :data:`DEVICES`
  the only device map): perturb the schedule first, then attach the
  sanitizer.  :func:`open_system_from_args` opens the system under test.
* :class:`ObservedRun` installs tracer -> edgelog -> sampler -> monitor in
  that pinned order, brackets the measured window, and exports every
  attached plane's artifacts; :func:`print_artifacts` announces them.
* :func:`run_cases` is the "run these named cases, profile around them,
  print the table, dump ``--json``" loop of the closed-loop benchmarks.

Profile output goes to stderr or its own file, so the sim-side report on
stdout is byte-identical with or without it.
"""

import argparse
import json
import os
import sys

from repro.critpath import critpath_report, install_edgelog, makespan_path, path_trace_extras
from repro.engine import make_env
from repro.harness import run_closed_loop
from repro.harness.report import (
    format_attribution,
    format_blame_table,
    format_stall_timeline,
    format_table,
)
from repro.metrics import install_stats, write_stats_files
from repro.monitor import (
    attach_service_monitor,
    attach_store_monitor,
    ground_truth_from_env,
    score_detection,
)
from repro.perf import format_zone_tree, zones as _perf_zones
from repro.sim.device import HDD_WD100EFAX, OPTANE_905P, SATA_860PRO
from repro.systems import describe_options, open_system, system_names
from repro.trace import install_tracer, write_chrome_trace

__all__ = [
    "DEVICES",
    "ObservedRun",
    "add_machine_args",
    "add_system_args",
    "finish_profile",
    "make_env_from_args",
    "observability_parent",
    "open_system_from_args",
    "print_artifacts",
    "run_cases",
    "start_profile",
    "trace_path",
    "write_report",
]

#: the simulated device models every benchmark CLI exposes as ``--device``.
DEVICES = {"nvme": OPTANE_905P, "sata": SATA_860PRO, "hdd": HDD_WD100EFAX}


# ---------------------------------------------------------------------------
# Flags: the shared observability group, the machine flags, the system flags.
# ---------------------------------------------------------------------------


def observability_parent(
    trace: bool = True,
    stats: bool = True,
    critpath: bool = True,
    profile: bool = True,
    sanitize: bool = True,
    schedule_seed: bool = True,
    monitor: bool = False,
) -> argparse.ArgumentParser:
    """One argparse parent carrying the shared observability flag group.

    Use via ``argparse.ArgumentParser(parents=[observability_parent(...)])``.
    A fresh parent is built per call, so parsers never share Action state.
    Families a tool cannot honor are opted out by keyword; a tool may never
    redefine one of these flags itself.  ``monitor`` is opt-in.
    """
    parent = argparse.ArgumentParser(add_help=False)
    add = parent.add_argument_group("observability / determinism").add_argument
    if trace:
        add(
            "--trace-out",
            metavar="PATH",
            help="record a request-level trace and write Chrome trace-event JSON "
            "(load in ui.perfetto.dev; see docs/TRACING.md); when one invocation "
            "runs several benchmarks the run name is appended to the file name",
        )
    if stats:  # docs/METRICS.md
        add(
            "--stats",
            action="store_true",
            help="export the stats registry (JSON, Prometheus text) and a "
            "sim-time gauge sampler's CSV over the measured window",
        )
        add(
            "--stats-interval-ms",
            type=float,
            default=10.0,
            metavar="MS",
            help="sampler cadence in *virtual* milliseconds (default 10)",
        )
        add(
            "--stats-out",
            metavar="BASE",
            default="stats",
            help="base path for the exports: BASE.json (registry snapshot), "
            "BASE.prom (Prometheus text), BASE.csv (sampled time series); with "
            "several benchmarks the benchmark name is appended",
        )
    if critpath:  # docs/CRITPATH.md
        add(
            "--critpath",
            action="store_true",
            help="record wakeup edges and extract per-request critical paths; "
            "prints a blame ranking and, with --trace-out, draws the makespan "
            "path as Perfetto flow arrows",
        )
        add(
            "--critpath-out",
            metavar="BASE",
            default="critpath",
            help="base path for the critical-path report: BASE.json; with "
            "several benchmarks the benchmark name is appended",
        )
    if sanitize:
        add(
            "--sanitize",
            action="store_true",
            help="attach the lock-order and data-race sanitizers; exit non-zero "
            "on any finding (see docs/ANALYSIS.md)",
        )
    if monitor:  # docs/MONITOR.md
        add(
            "--monitor",
            action="store_true",
            help="attach the online health monitor (windowed telemetry + alert "
            "rules, see docs/MONITOR.md); embeds the incident timeline in the "
            "report and prints the incident narrative",
        )
        add(
            "--monitor-window-ms",
            type=float,
            default=0.1,
            metavar="MS",
            help="monitor telemetry window in milliseconds of simulated time "
            "(default: 0.1)",
        )
        add(
            "--monitor-out",
            metavar="PATH",
            help="write the monitor document (timeline + detection) as JSON",
        )
    if profile:  # docs/PROFILING.md
        add(
            "--profile",
            action="store_true",
            help="attach the host wall-clock zone profiler and print the "
            "per-subsystem wall-time tree to stderr; simulated results are "
            "unaffected (see docs/PROFILING.md)",
        )
        add(
            "--profile-out",
            metavar="PATH",
            help="write the zone report as JSON (implies --profile)",
        )
    if schedule_seed:
        add(
            "--schedule-seed",
            type=int,
            default=None,
            metavar="N",
            help="perturb same-time event delivery order with seed N; results "
            "must be identical for every N (determinism check)",
        )
    return parent


def add_machine_args(parser, cores: int = 44, page_cache: bool = True) -> None:
    """The flags :func:`make_env_from_args` reads."""
    parser.add_argument("--cores", type=int, default=cores, help="simulated CPU cores")
    parser.add_argument("--device", choices=sorted(DEVICES), default="nvme")
    if page_cache:
        parser.add_argument(
            "--page-cache-mb",
            type=float,
            default=None,
            help="OS page cache size in MB (default: effectively unlimited)",
        )


def add_system_args(parser, system: str = "rocksdb", threads: int = 8,
                    workers: int = 8) -> None:
    """The flags :func:`open_system_from_args` reads, plus the user-thread
    count every closed-loop tool splits its op stream over."""
    parser.add_argument("--system", choices=system_names(), default=system)
    parser.add_argument("--threads", type=int, default=threads, help="user threads")
    parser.add_argument(
        "--workers", type=int, default=workers, help="p2kvs/kvell/multi workers"
    )
    parser.add_argument("--no-obm", action="store_true", help="disable OBM (p2kvs)")
    parser.add_argument(
        "--async-window",
        type=int,
        default=0,
        help="p2kvs asynchronous write window (0 = synchronous)",
    )


# ---------------------------------------------------------------------------
# The run path: machine -> observers -> system -> measured window -> artifacts.
# ---------------------------------------------------------------------------


def make_env_from_args(args, device_spec=None):
    """Build the simulated machine from the machine flags, installing the
    determinism hooks in the one pinned order (perturb, then sanitize).
    ``device_spec`` overrides the ``--device`` preset (whatif's modified
    re-runs)."""
    page_cache_mb = getattr(args, "page_cache_mb", None)
    page_cache = (
        int(page_cache_mb * 1024 * 1024) if page_cache_mb is not None else 1 << 40
    )
    env = make_env(
        n_cores=args.cores,
        device_spec=device_spec or DEVICES[args.device],
        page_cache_bytes=page_cache,
    )
    if getattr(args, "schedule_seed", None) is not None:
        env.sim.perturb_schedule(args.schedule_seed)
    if getattr(args, "sanitize", False):
        from repro.analysis.sanitizer import install_sanitizer

        install_sanitizer(env)
    return env


def open_system_from_args(env, args):
    # The CLIs expose one flag surface for all systems; open_system is
    # strict, so forward only the options this system declares (passing
    # workers to single-instance RocksDB would raise).
    requested = {
        "workers": args.workers,
        "obm": not args.no_obm,
        "async_window": args.async_window,
    }
    supported = describe_options(args.system)
    return open_system(
        args.system, env, **{k: v for k, v in requested.items() if k in supported}
    )


class ObservedRun:
    """One run's observers, measured window and artifacts.

    The planes install in one pinned order — tracer, edgelog, sampler here,
    then the monitor via :meth:`attach_monitor` once the store it watches
    exists — and all before the workload runs.  ``out`` maps a plane
    (``trace``/``critpath``/``stats``/``monitor``) to the path or base its
    artifact is written to; a plane without an entry stays in memory.
    """

    def __init__(self, env, tracer=False, edgelog=False, stats_interval_ms=None,
                 out=()):
        self.env = env
        self.tracer = install_tracer(env) if tracer else None
        self.edgelog = install_edgelog(env) if edgelog else None
        self.sampler = (
            install_stats(env, interval_ms=stats_interval_ms)
            if stats_interval_ms is not None
            else None
        )
        self.monitor = None
        self.out = dict(out)
        self.window = None
        self.attribution = None
        self.document = None

    @classmethod
    def from_args(cls, args, name=None, multiple=False):
        """The CLI front door: the machine from the machine flags, the planes
        from the shared observability flags, the artifact paths from the
        ``*-out`` flags (``BASE-name.ext`` when one invocation runs several
        cases)."""
        out = {}
        if args.trace_out:
            out["trace"] = trace_path(args.trace_out, name, multiple)
        if args.critpath:
            out["critpath"] = trace_path(args.critpath_out, name, multiple)
        if args.stats:
            out["stats"] = trace_path(args.stats_out, name, multiple)
        if getattr(args, "monitor_out", None):
            out["monitor"] = args.monitor_out
        return cls(
            make_env_from_args(args),
            # Path extraction needs the request spans, so --critpath implies
            # a live tracer even when no trace file was requested.
            tracer=bool(args.trace_out or args.critpath),
            edgelog=args.critpath,
            stats_interval_ms=args.stats_interval_ms if args.stats else None,
            out=out,
        )

    def attach_monitor(self, window_ms: float, plane=None):
        """Attach the health monitor over ``plane`` (a ServicePlane), or over
        the machine's one store when there is none."""
        window = window_ms / 1e3
        self.monitor = (
            attach_service_monitor(self.env, plane, window=window)
            if plane is not None
            else attach_store_monitor(self.env, window=window)
        )

    def closed_loop(self, system, streams):
        """Drive ``streams`` closed-loop as the measured window."""
        t0 = self.env.sim.now
        metrics = run_closed_loop(self.env, system, streams)
        self.attribution = metrics.attribution
        self.close_window(t0, metrics.finished_at)
        return metrics

    def close_window(self, t0: float, t_end: float) -> None:
        """Record the measured window ``[t0, t_end]``; fail the run
        (SanitizerError) if ``--sanitize`` recorded any finding in it."""
        self.window = (t0, t_end)
        checker = self.env.sim.monitor
        if checker is not None:
            checker.check()

    def critpath_report(self) -> dict:
        return critpath_report(self.edgelog, self.tracer, self.window)

    def score_monitor(self, label: str) -> dict:
        """The monitor document: timeline + detection scorecard.  Scored even
        on clean runs — a clean scenario with page alerts is a false-positive
        finding, which the monitor smoke gate checks."""
        self.document = {
            "health": self.monitor.timeline(),
            "detection": score_detection(
                self.monitor, ground_truth_from_env(self.env), label
            ),
        }
        return self.document

    def export(self, result: dict) -> dict:
        """Write every attached plane's artifact and fold the paths and the
        in-memory products (attribution, critpath report, stats summaries)
        into ``result``."""
        env, out = self.env, self.out
        if self.document is not None and "monitor" in out:
            write_report(self.document, out["monitor"])
            result["monitor_file"] = out["monitor"]
        if self.tracer is not None:
            if "trace" in out:
                extras, flows = (), ()
                if self.edgelog is not None:
                    # The makespan path rides along as a track of slices
                    # plus Perfetto flow arrows.
                    backbone = makespan_path(self.edgelog, self.tracer, self.window)
                    if backbone is not None:
                        extras, flows = path_trace_extras(backbone, name="makespan")
                result["trace_file"] = write_chrome_trace(
                    self.tracer, out["trace"], extra_spans=extras, flows=flows
                )
            if self.attribution is not None:
                result["latency_attribution"] = self.attribution
        if self.edgelog is not None:
            result["critpath"] = self.critpath_report()
            if "critpath" in out:
                result["critpath_file"] = out["critpath"] + ".json"
                with open(result["critpath_file"], "w") as f:
                    json.dump(result["critpath"], f, indent=2)
        if self.sampler is not None and "stats" in out:
            result["stats_files"] = write_stats_files(
                env.metrics, out["stats"], self.sampler
            )
            result["counters"] = env.metrics.counter_values()
            result["events"] = env.metrics.events.summary()
            result["stall_timeline"] = format_stall_timeline(
                self.sampler, env.metrics.events, env.cpu.n_cores
            )
        return result


def print_artifacts(result: dict, label=None) -> None:
    """Announce what :meth:`ObservedRun.export` folded into ``result``: one
    ``wrote ...`` line per file and, for a ``label``-ed benchmark case, its
    attribution, blame and stall tables."""
    if label and "latency_attribution" in result:
        print()
        print("%s latency attribution (paper Figure 6):" % label)
        print(format_attribution(result["latency_attribution"]))
    if "monitor_file" in result:
        print("wrote monitor %s" % result["monitor_file"])
    if label and "critpath" in result:
        print()
        print(
            "%s critical-path blame (%d request paths):"
            % (label, result["critpath"]["n_requests"])
        )
        print(format_blame_table(result["critpath"]["blame"]))
    if "critpath_file" in result:
        print("wrote critpath %s" % result["critpath_file"])
    if "trace_file" in result:
        print("wrote trace %s" % result["trace_file"])
    if label and "stall_timeline" in result:
        print()
        print("%s stall/utilization timeline:" % label)
        print(result["stall_timeline"])
    for path in sorted(result.get("stats_files", {}).values()):
        print("wrote stats %s" % path)


def start_profile(args):
    """Install the zone profiler when --profile[-out] was given (else None)."""
    if not (args.profile or args.profile_out):
        return None
    return _perf_zones.install()


def finish_profile(args, profiler) -> None:
    """Stop profiling; print the zone tree to stderr, write --profile-out."""
    if profiler is None:
        return
    _perf_zones.uninstall()
    snapshot = profiler.snapshot()
    print(format_zone_tree(snapshot), file=sys.stderr)
    if args.profile_out:
        with open(args.profile_out, "w") as f:
            json.dump(snapshot, f, indent=2)
        print("wrote profile %s" % args.profile_out, file=sys.stderr)


def run_cases(args, names, known, kind, run_case, header, columns) -> int:
    """The closed-loop benchmark main loop: run each named case (a
    ``benchmark`` or ``workload`` — ``kind`` is both the noun and the result
    key), profile around them, print the table and each case's artifacts,
    dump ``--json``.  ``columns`` is ``[(heading, cell(result)), ...]``."""
    for name in names:
        if name not in known:
            print("unknown %s %r" % (kind, name), file=sys.stderr)
            return 2
    profiler = start_profile(args)
    results = [run_case(name, args, len(names) > 1) for name in names]
    finish_profile(args, profiler)
    print(header)
    print(
        format_table(
            [heading for heading, _ in columns],
            [[cell(r) for _, cell in columns] for r in results],
        )
    )
    for r in results:
        print_artifacts(r, r[kind])
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=2)
        print("wrote %s" % args.json)
    return 0


def trace_path(base: str, name: str, multiple: bool) -> str:
    """BASE.ext -> BASE-name.ext when one invocation writes several runs."""
    if not multiple:
        return base
    root, ext = os.path.splitext(base)  # the basename's extension only
    return "%s-%s%s" % (root, name, ext)


def write_report(report: dict, path: str) -> None:
    """Write a JSON report deterministically: sorted keys, indent 2, one
    trailing newline — the format of every ``--json``/``--out``/
    ``--monitor-out`` document a same-bytes gate compares."""
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2))
        fh.write("\n")
