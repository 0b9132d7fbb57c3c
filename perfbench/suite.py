"""The whole suite: every workload, untraced then traced, one at a time.

Each run is a fresh ``python -m perfbench --workload ...`` subprocess, so
``peak_rss_mb`` belongs to one workload and no state leaks between them.  The
simulator is single-threaded and the host has few CPUs: runs never overlap.
"""

import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Optional

from perfbench import runner

#: the time the driver allows for all of its runs of the benchmark.
DRIVER_CAP_S = 3420


def driver_runs(n_workloads: int) -> int:
    return 4 + 22 * n_workloads


def _run_one(name: str, seed: int, seconds: float, scale: float, trace: int) -> dict:
    command = [
        sys.executable, "-m", "perfbench", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--scale", str(scale), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=runner.ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))  # the run's own table; its last line is the result
    if proc.returncode not in (0, 1):
        raise RuntimeError("%s exited with %d" % (" ".join(command), proc.returncode))
    path = os.path.join(runner.OUT_DIR, "%s.%s.json" % (name, "trace" if trace else "run"))
    with open(path) as fh:
        return json.load(fh)


def _entry(run: dict, traced: dict) -> dict:
    end_to_end = {
        name: dict(metric, quartiles=run["quartiles"].get(name),
                   passes=run["passes"]["untraced"])
        for name, metric in run["metrics"].items()
    }
    return {
        "correct": run["correct"] and traced["correct"],
        "attempted": run["attempted"] + traced["attempted"],
        "failed": run["failed"] + traced["failed"],
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "not_applicable": traced["not_applicable"],
        "exact": traced["exact"],
        "notes": traced["notes"],
    }


def run_suite(contract: dict, seed: int, seconds: float, scale: float,
              out_path: Optional[str]) -> int:
    started = perf_counter()
    load_start = os.getloadavg()
    workloads = {}
    walls = []
    meta = {}
    for spec in contract["workloads"]:
        run = _run_one(spec["name"], seed, seconds, scale, 0)
        traced = _run_one(spec["name"], seed, seconds, scale, 1)
        entry = workloads[spec["name"]] = _entry(run, traced)
        # Traced and untraced passes of one seed must agree exactly; the two
        # subprocesses are a second, independent check of that.
        entry["exact_changed_by_tracing"] = sorted(
            name for name, value in run["exact"].items()
            if traced["exact"].get(name) != value
        )
        entry["correct"] = entry["correct"] and not entry["exact_changed_by_tracing"]
        walls += [run["_meta"]["wall_s"], traced["_meta"]["wall_s"]]
        meta = run["_meta"]
    total = perf_counter() - started
    results = {
        "_meta": {
            "python": meta["python"], "platform": meta["platform"],
            "nproc": meta["nproc"], "commit": meta["commit"],
            "loadavg_start": load_start, "seed": seed, "scale": scale,
            "seconds": seconds, "wall_s": total,
        },
        "workloads": workloads,
    }
    out_path = out_path or os.path.join(runner.OUT_DIR, "results.json")
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    runs = driver_runs(len(workloads))
    projected = runs * sum(walls) / len(walls)
    print(
        "suite: %d runs in %.0f s (mean %.1f s, longest %.1f s); the driver's %d "
        "runs would take about %.0f s of its %d s cap%s"
        % (len(walls), total, sum(walls) / len(walls), max(walls), runs, projected,
           DRIVER_CAP_S, "" if projected <= DRIVER_CAP_S else "  ** OVER THE CAP **")
    )
    print("wrote %s" % os.path.relpath(out_path, runner.ROOT))
    bad = sorted(name for name, entry in workloads.items() if not entry["correct"])
    if bad:
        print("INCORRECT: %s" % ", ".join(bad))
    return 1 if bad else 0
