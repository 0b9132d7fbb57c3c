"""One measured run of one workload: passes until the time budget is spent.

``--trace 0`` repeats untraced passes and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes (zone profiler + tracer +
critpath edgelog + sampler) and reports the per-layer metrics; the ratio of
the two medians is the tracing overhead.  Either way every pass must produce
the same simulated facts, bit for bit, and every sampled read-back must match.
Host times are in reference seconds (see :mod:`perfbench.hostclock`).
"""

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench.hostclock import Stopwatch
from perfbench.spans import SpanLog

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PACKAGE_DIR, "out")

#: untraced passes per --trace 0 run, whatever the budget; workload sizes are
#: set so that five or more fit in run_seconds on the reference host, and a
#: slower host still ends near its budget.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1  # rounds of (untraced, traced) per --trace 1 run
WARMUP_SCALE = 0.1
SETUP_PHASES = ("env", "open", "workload_gen", "preload")
FAULT_SEED = 7  # faultbench's own pinned default

_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = %r; t = time.perf_counter(); "
    "import perfbench.workloads; print(time.perf_counter() - t)"
)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> Optional[List[float]]:
    """[q1, median, q3], or None with fewer than two values."""
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4)


def pin_to_one_cpu() -> Optional[int]:
    """Noise hygiene: stay on one CPU (the highest allowed; CPU 0 takes the
    interrupts).  Returns the CPU, or None where affinity is unavailable."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _import_probe() -> float:
    """Seconds a fresh interpreter takes to import everything the benchmark
    uses of the program.  One probe per pass: the samples spread over the run
    like the passes do, so a slow spell of the host cannot skew them all."""
    probe = _IMPORT_PROBE % ([SRC, ROOT],)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return float(out.stdout.strip())


def _fault_scenarios() -> Tuple[int, int]:
    """The crash/fault matrix, untimed: (scenarios passed, scenarios run).
    A scenario passes when every acknowledged write survives recovery."""
    from repro.tools.faultbench import SCENARIOS, run_scenario

    passed = sum(
        not run_scenario(spec, FAULT_SEED)["violations"] for spec in SCENARIOS
    )
    return passed, len(SCENARIOS)


def _median_by_key(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = set().union(*dicts) if dicts else set()
    return {
        key: statistics.median(d[key] for d in dicts if key in d) for key in keys
    }


def _mismatches(dicts: List[Dict[str, float]]) -> List[str]:
    """Names that took more than one value across ``dicts`` (a pass that
    cannot produce a name, e.g. an event count without the profiler, simply
    does not vote)."""
    seen: Dict[str, set] = {}
    for facts in dicts:
        for key, value in facts.items():
            seen.setdefault(key, set()).add(value)
    return sorted(key for key, values in seen.items() if len(values) > 1)


def measure(workload_name: str, seed: int, budget_s: float, scale: float,
            trace: bool) -> dict:
    """Run one workload for ``budget_s`` seconds; returns the run's detail
    document (metrics by name with unit, quartiles, exact facts, verdict)."""
    started = perf_counter()
    load_start = os.getloadavg()
    cpu = pin_to_one_cpu()
    spans = SpanLog(workload_name)
    with spans.span("import"):
        from perfbench import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    wl.run_pass(workload, wl.PassContext(
        seed, scale * WARMUP_SCALE, SpanLog("warm-up"), workload.observed))

    # -- the measured window ------------------------------------------------
    modes = ["untraced", "traced"] if trace else ["untraced"]
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    passes: Dict[str, List] = {mode: [] for mode in modes}
    traced_phases: List[Dict[str, float]] = []  # raw seconds per span name
    window_start = perf_counter()
    round_times: List[float] = []
    import_samples: List[float] = []  # reference seconds
    while True:
        elapsed = perf_counter() - window_start
        if len(round_times) >= min_rounds and (
            elapsed + statistics.median(round_times) > budget_s
        ):
            break
        round_start = perf_counter()
        probe_watch = Stopwatch()
        with spans.span("import_probe"):
            probe = _import_probe()
        probe_watch.stop()
        import_samples.append(probe * probe_watch.reference_s / probe_watch.wall_s)
        for mode in modes:
            gc.collect()
            with spans.span("pass:%s" % mode) as record:
                result = wl.run_pass(workload, wl.PassContext(
                    seed, scale, spans,
                    observe=workload.observed or mode == "traced",
                    profile=mode == "traced",
                ))
            passes[mode].append(result)
            if mode == "traced":
                traced_phases.append(spans.seconds_under(record))
        round_times.append(perf_counter() - round_start)

    # -- checks ---------------------------------------------------------------
    every = [p for mode in modes for p in passes[mode]]
    attempted = sum(p.ops + p.checks for p in every)
    failed = sum(p.failed for p in every)
    changed = _mismatches([p.sim for p in every]) + _mismatches(
        [p.observed for p in every if p.observed]
    )
    failed += len(changed)
    sim = dict(every[0].sim)

    untraced = passes["untraced"]
    values: Dict[str, float] = {}
    spread: Dict[str, List[float]] = {}
    if not trace:
        rates = [p.ops / p.run_s for p in untraced]
        setups = [i + p.setup_s for i, p in zip(import_samples, untraced)]
        values["host_ops_per_s"] = statistics.median(rates)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        spread = {
            "host_ops_per_s": rates,
            "setup_s": setups,
            "raw_ops_per_s": [p.ops / p.run_wall_s for p in untraced],
        }
    else:
        traced = passes["traced"]
        values.update(sim)
        values.update(traced[0].observed)
        values.update(_median_by_key([p.host for p in untraced]))
        values.update(_median_by_key([p.host for p in traced]))
        values["host.raw_ops_per_s"] = statistics.median(
            p.ops / p.run_wall_s for p in untraced
        )
        values["host.speed_factor"] = statistics.median(
            speed for p in every for speed in p.speeds
        )
        values["span.import_s"] = statistics.median(import_samples)
        for name in SETUP_PHASES + ("run", "report", "verify"):
            values["span.%s_s" % name] = statistics.median(
                phase.get(name, 0.0) for phase in traced_phases
            )
        values["host.trace_overhead_pct"] = 100.0 * (
            statistics.median(p.run_s for p in traced)
            / statistics.median(p.run_s for p in untraced)
            - 1.0
        )
        if not workload.cases:  # the service workload
            values["service.max_rate_ok"] = wl.serve_max_rate_ok(
                workload, wl.PassContext(seed, scale, SpanLog("serve-sweep"))
            )
        with spans.span("faultbench"):
            passed, scenarios = _fault_scenarios()
        values["faults.scenarios_passed"] = passed
        attempted += scenarios
        failed += scenarios - passed
        values["failed_op_share"] = failed / attempted

    detail = {
        "workload": workload_name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "sim_changed_between_passes": changed,
        "passes": {mode: len(passes[mode]) for mode in modes},
        "values": values,
        "quartiles": {name: quartiles(v) for name, v in spread.items()},
        "samples": spread,
        # every value that must repeat bit for bit, for --compare.
        "exact": dict(sim, **(passes["traced"][0].observed if trace else {})),
        "notes": every[-1].notes,
        "_meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "loadavg_start": load_start,
            "seed": seed,
            "scale": scale,
            "seconds": budget_s,
            "commit": _commit(),
            "wall_s": perf_counter() - started,
        },
    }
    if trace:
        detail["spans"] = spans.spans
    return detail


def _commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # a plain checkout (the driver's): do not ask git to look upward
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def emit(detail: dict, contract: dict) -> dict:
    """The contract's result object for one run; also prints every metric by
    name with its unit and writes the detail document under ``out/``."""
    listed = contract["per_layer" if detail["trace"] else "end_to_end"]
    values = detail["values"]
    names = {entry["name"] for entry in listed}
    unlisted = sorted(set(values) - names)
    if unlisted:
        raise KeyError("measured but not in BENCHMARK.json: %s" % ", ".join(unlisted))
    missing = sorted(names - set(values))
    if missing and not detail["trace"]:
        raise KeyError("end-to-end metrics not measured: %s" % ", ".join(missing))
    # A per-layer metric that does not apply to this workload reads 0.
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in listed
    }
    detail["metrics"] = metrics
    detail["not_applicable"] = missing
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, "%s.%s.json" % (detail["workload"], "trace" if detail["trace"] else "run")
    )
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print_metrics(detail)
    print("wrote %s" % os.path.relpath(path, ROOT))
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def print_metrics(detail: dict) -> None:
    meta = detail["_meta"]
    print(
        "workload=%s trace=%d seed=%d scale=%g passes=%s wall=%.1fs"
        % (detail["workload"], detail["trace"], meta["seed"], meta["scale"],
           detail["passes"], meta["wall_s"])
    )
    if meta["loadavg_start"][0] > (meta["nproc"] or 1):
        print("warning: load average %.2f exceeds %s CPUs; host numbers are "
              "unreliable" % (meta["loadavg_start"][0], meta["nproc"]))
    for name, metric in detail["metrics"].items():
        line = "  %-44s %16.6f %s" % (name, metric["value"], metric["unit"])
        q = detail["quartiles"].get(name)
        if q:
            line += "   (q1 %.6g, q3 %.6g)" % (q[0], q[2])
        if name in detail["not_applicable"]:
            line += "   (n/a on this workload)"
        print(line)
    for name, note in sorted(detail["notes"].items()):
        print("  %-44s %s" % (name, note))
    print(
        "  attempted=%d failed=%d correct=%s"
        % (detail["attempted"], detail["failed"], detail["correct"])
    )
