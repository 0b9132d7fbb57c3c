"""Shared observability/determinism flag group for the repro CLIs.

Every tool in this package fronts the same simulated machine, and every
observability plane (tracing, stats, critical path, sanitizers, host
profiler, schedule perturbation) is a machine-wide attach — so the flags
that switch them on must mean the same thing, spell the same way, and
install in the same order everywhere.  Historically each CLI copied the
flag definitions (or imported half of them from ``dbbench``), which let
them drift; this module is now the single source of truth:

* :func:`observability_parent` builds **one argparse parent** carrying the
  shared group (``--trace-out/--stats*/--critpath*/--sanitize/--profile*/
  --monitor*/--schedule-seed``).  Tools opt out of the families they
  cannot honor (``faultbench`` runs many envs per campaign, so per-env
  stats exports make no sense there) but can never re-spell a flag.
* :func:`make_env_from_args` applies the determinism flags in the pinned
  order — perturb the schedule first, then attach the sanitizer — so no
  tool can install the hooks in an order another tool doesn't.
* The ``start_profile``/``finish_profile``/``install_stats_if_requested``/
  ``export_*`` helpers wrap each plane's install/export pair; profile
  output goes to stderr or its own file, so the sim-side report on stdout
  is byte-identical with or without it.

Every tool imports these names from here; no module re-exports them.
"""

import argparse
import json
import sys
from typing import Optional

from repro.critpath import critpath_report, makespan_path, path_trace_extras
from repro.engine import make_env
from repro.metrics import install_stats, write_stats_files
from repro.perf import zones as _perf_zones
from repro.sim.device import HDD_WD100EFAX, OPTANE_905P, SATA_860PRO

__all__ = [
    "DEVICES",
    "add_critpath_args",
    "add_monitor_args",
    "add_profile_args",
    "add_sanitize_arg",
    "add_schedule_seed_arg",
    "add_stats_args",
    "add_trace_arg",
    "check_sanitizer",
    "critpath_trace_extras",
    "export_critpath",
    "export_stats",
    "finish_profile",
    "install_stats_if_requested",
    "make_env_from_args",
    "observability_parent",
    "start_profile",
    "trace_path",
]

#: the simulated device models every benchmark CLI exposes as ``--device``.
DEVICES = {"nvme": OPTANE_905P, "sata": SATA_860PRO, "hdd": HDD_WD100EFAX}


# ---------------------------------------------------------------------------
# Flag families.  Each add_* wires one observability plane's flags onto a
# parser (or parser group); observability_parent composes them.
# ---------------------------------------------------------------------------


def add_trace_arg(parser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record a request-level trace and write Chrome trace-event JSON "
        "(load in ui.perfetto.dev; see docs/TRACING.md); when one invocation "
        "runs several benchmarks the run name is appended to the file name",
    )


def add_stats_args(parser) -> None:
    """The shared --stats flag family (see docs/METRICS.md)."""
    parser.add_argument(
        "--stats",
        action="store_true",
        help="enable the observability layer: per-request perf contexts plus "
        "a sim-time gauge sampler over the measured window",
    )
    parser.add_argument(
        "--stats-interval-ms",
        type=float,
        default=10.0,
        metavar="MS",
        help="sampler cadence in *virtual* milliseconds (default 10)",
    )
    parser.add_argument(
        "--stats-out",
        metavar="BASE",
        default="stats",
        help="base path for the exports: BASE.json (registry snapshot), "
        "BASE.prom (Prometheus text), BASE.csv (sampled time series); with "
        "several benchmarks the benchmark name is appended",
    )


def add_critpath_args(parser) -> None:
    """The shared --critpath flag family (docs/CRITPATH.md)."""
    parser.add_argument(
        "--critpath",
        action="store_true",
        help="record wakeup edges and extract per-request critical paths; "
        "prints a blame ranking and, with --trace-out, draws the makespan "
        "path as Perfetto flow arrows",
    )
    parser.add_argument(
        "--critpath-out",
        metavar="BASE",
        default="critpath",
        help="base path for the critical-path report: BASE.json; with "
        "several benchmarks the benchmark name is appended",
    )


def add_profile_args(parser) -> None:
    """The shared --profile flag family (docs/PROFILING.md).  Profile output
    goes to stderr / its own file, so the sim-side report on stdout is
    byte-identical with or without it."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the host wall-clock zone profiler and print the "
        "per-subsystem wall-time tree to stderr; simulated results are "
        "unaffected (see docs/PROFILING.md)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the zone report as JSON (implies --profile)",
    )


def add_sanitize_arg(parser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the lock-order and data-race sanitizers; exit non-zero "
        "on any finding (see docs/ANALYSIS.md)",
    )


def add_schedule_seed_arg(parser) -> None:
    parser.add_argument(
        "--schedule-seed",
        type=int,
        default=None,
        metavar="N",
        help="perturb same-time event delivery order with seed N; results "
        "must be identical for every N (determinism check)",
    )


def add_monitor_args(parser) -> None:
    """The shared --monitor flag family (docs/MONITOR.md)."""
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="attach the online health monitor (windowed telemetry + alert "
        "rules, see docs/MONITOR.md); embeds the incident timeline in the "
        "report and prints the incident narrative",
    )
    parser.add_argument(
        "--monitor-window-ms",
        type=float,
        default=0.1,
        metavar="MS",
        help="monitor telemetry window in milliseconds of simulated time "
        "(default: 0.1)",
    )
    parser.add_argument(
        "--monitor-out",
        metavar="PATH",
        help="write the monitor document (timeline + detection) as JSON",
    )


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
    redefine one of these flags itself.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability / determinism")
    if trace:
        add_trace_arg(group)
    if stats:
        add_stats_args(group)
    if critpath:
        add_critpath_args(group)
    if sanitize:
        add_sanitize_arg(group)
    if monitor:
        add_monitor_args(group)
    if profile:
        add_profile_args(group)
    if schedule_seed:
        add_schedule_seed_arg(group)
    return parent


# ---------------------------------------------------------------------------
# Env construction + plane install/export helpers (pinned setup order).
# ---------------------------------------------------------------------------


def make_env_from_args(args):
    """Build the simulated machine from the shared flags, installing the
    determinism hooks in the one pinned order (perturb, then sanitize)."""
    page_cache_mb = getattr(args, "page_cache_mb", None)
    page_cache = (
        int(page_cache_mb * 1024 * 1024) if page_cache_mb is not None else 1 << 40
    )
    env = make_env(
        n_cores=getattr(args, "cores", 44),
        device_spec=DEVICES[getattr(args, "device", "nvme")],
        page_cache_bytes=page_cache,
    )
    if getattr(args, "schedule_seed", None) is not None:
        env.sim.perturb_schedule(args.schedule_seed)
    if getattr(args, "sanitize", False):
        from repro.analysis.sanitizer import install_sanitizer

        install_sanitizer(env)
    return env


def check_sanitizer(env) -> None:
    """Fail the run (SanitizerError) if --sanitize recorded any finding."""
    monitor = env.sim.monitor
    if monitor is not None and hasattr(monitor, "check"):
        monitor.check()


def start_profile(args):
    """Install the zone profiler when --profile[-out] was given (else None)."""
    if not (getattr(args, "profile", False) or getattr(args, "profile_out", None)):
        return None
    return _perf_zones.install()


def finish_profile(args, profiler) -> None:
    """Stop profiling; print the zone tree to stderr, write --profile-out."""
    if profiler is None:
        return
    from repro.perf import format_zone_tree

    _perf_zones.uninstall()
    snapshot = profiler.snapshot()
    print(format_zone_tree(snapshot), file=sys.stderr)
    out = getattr(args, "profile_out", None)
    if out:
        with open(out, "w") as f:
            json.dump(snapshot, f, indent=2)
        print("wrote profile %s" % out, file=sys.stderr)


def install_stats_if_requested(env, args):
    if not getattr(args, "stats", False):
        return None
    return install_stats(env, interval_ms=args.stats_interval_ms)


def export_stats(env, sampler, base: str, result: dict) -> None:
    """Write the three stats artifacts and fold summaries into the result."""
    if sampler is None:
        return
    from repro.harness.report import format_stall_timeline

    result["stats_files"] = write_stats_files(env.metrics, base, sampler)
    result["counters"] = env.metrics.counter_values()
    result["events"] = env.metrics.events.summary()
    result["stall_timeline"] = format_stall_timeline(
        sampler, env.metrics.events, n_cores=env.cpu.n_cores
    )


def export_critpath(edgelog, tracer, window, base: str, result: dict) -> None:
    """Extract the critical-path report, write BASE.json, fold into result."""
    report = critpath_report(edgelog, tracer, window)
    result["critpath"] = report
    path = base + ".json"
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    result["critpath_file"] = path


def critpath_trace_extras(edgelog, tracer, window):
    """The makespan path rendered for the Chrome exporter (slices + flow)."""
    backbone = makespan_path(edgelog, tracer, window)
    if backbone is None:
        return (), ()
    return path_trace_extras(backbone, name="makespan")


def trace_path(base: str, name: str, multiple: bool) -> str:
    """BASE.ext -> BASE-name.ext when one invocation writes several runs."""
    if not multiple:
        return base
    root, dot, ext = base.rpartition(".")
    if dot:
        return "%s-%s.%s" % (root, name, ext)
    return "%s-%s" % (base, name)
