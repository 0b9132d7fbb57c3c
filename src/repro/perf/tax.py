"""Instrument-tax accounting: what each observability layer costs in host time.

Every observability plane in this repo (tracing, metrics, sanitizers,
critical-path edgelog, health monitor) promises "zero overhead when off,
cheap when on".  The *sim-side* half of that promise is tested exactly
(byte-identical reports); this module measures the *host-side* half: the
wall-clock tax of running one workload with each layer switched on,
relative to a bare run.

The harness runs one workload — a callable taking the layer name, supplied
by the caller (``repro.tools.profile`` pins its configuration and builds each
run through the tools' shared driver) — once per layer, each in a fresh
environment, and reports per-layer wall time and overhead percent over the
``off`` baseline.  A single warmup run absorbs import and JIT-less
bytecode-cache effects.  A second, shorter pass per layer (``COUNTED_OPS``
operations) counts Python calls per operation instead of timing them: the
one column of the table that is the same on every host.

Host clocks live here by design: ``repro.perf`` is the one package the
wall-clock lint rule exempts.  Nothing this module returns may flow back
into a simulation (the profile-on/off byte-identity tests in
tests/test_perf.py hold that).
"""

import gc
import sys
from time import perf_counter_ns
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["COUNTED_OPS", "LAYERS", "count_calls", "format_tax", "measure_tax"]

#: the layers the tax matrix toggles, in report order; "off" is the baseline.
LAYERS = ("off", "trace", "metrics", "sanitize", "critpath", "monitor")

#: operations of each layer's counted pass (the ``calls_per_op`` column).
COUNTED_OPS = 1000


def count_calls(run: Callable[[], Any]) -> int:
    """Python calls (generator resumes included) made while ``run()`` runs:
    a host-independent count, the same on every run of the same code."""
    calls = 0

    def count(_frame, event: str, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def measure_tax(
    run: Callable[[str], Any],
    ops: int,
    counted: Callable[[str], Any],
    layers: Sequence[str] = LAYERS,
) -> dict:
    """Time ``run(layer)`` (``ops`` operations) once per layer; returns the
    tax report.

    The report is host data: ``base_wall_ns`` (the ``off`` run), and one row
    per layer with ``wall_ns`` and ``overhead_pct`` relative to the baseline
    (None when ``off`` itself was not measured), plus what the cyclic
    collector made of the layer: ``gc_full`` (full collections during the
    run), ``gc_ms`` (time inside collections of any generation) and
    ``tracked_per_kop`` (GC-tracked objects the run holds at its end, per
    1000 ops — each is walked by every full collection).  ``run`` returns
    whatever keeps its state alive; it is dropped once counted.
    ``counted(layer)`` runs ``COUNTED_OPS`` operations; each row's
    ``calls_per_op`` is :func:`count_calls` of that pass per operation, so a
    layer's calls above ``off`` are what its observers cost in calls.
    """
    run("off")  # warm-up: imports, caches and first-call costs
    rows: List[dict] = []
    base: Optional[int] = None
    seen = {"full": 0, "ns": 0, "since": 0}

    def on_collection(phase: str, info: dict) -> None:
        if phase == "start":
            seen["since"] = perf_counter_ns()
        else:
            seen["ns"] += perf_counter_ns() - seen["since"]
            seen["full"] += info["generation"] == 2

    gc.callbacks.append(on_collection)
    try:
        for layer in layers:
            print("tax: running layer %s ..." % layer, file=sys.stderr)
            gc.collect()  # every layer starts from a collected heap
            seen.update(full=0, ns=0)
            tracked0 = len(gc.get_objects())
            t0 = perf_counter_ns()
            alive = run(layer)
            wall = perf_counter_ns() - t0
            tracked = len(gc.get_objects()) - tracked0
            del alive
            if layer == "off":
                base = wall
            rows.append(
                {
                    "layer": layer,
                    "wall_ns": wall,
                    "gc_full": seen["full"],
                    "gc_ms": round(seen["ns"] / 1e6, 1),
                    "tracked_per_kop": round(1000.0 * tracked / ops, 1),
                }
            )
    finally:
        gc.callbacks.remove(on_collection)
    for row in rows:
        row["overhead_pct"] = (
            round(100.0 * (row["wall_ns"] / base - 1.0), 1)
            if base
            else None
        )
        # after the collector hook is gone: it makes no calls of its own
        calls = count_calls(lambda: counted(row["layer"]))
        row["calls_per_op"] = round(calls / COUNTED_OPS, 1)
    return {"base_wall_ns": base, "layers": rows}


def format_tax(report: dict) -> str:
    """Fixed-width table of the tax report (layer, wall ms, overhead %, the
    collector's share — full collections, ms collecting, tracked/kop — and
    Python calls per op)."""
    lines = [
        "%-10s %10s %10s %8s %8s %12s %9s" % (
            "layer", "wall ms", "overhead", "gc full", "gc ms", "tracked/kop",
            "calls/op",
        )
    ]
    for row in report["layers"]:
        pct = row.get("overhead_pct")
        lines.append(
            "%-10s %10.1f %10s %8d %8.1f %12.1f %9.1f"
            % (
                row["layer"],
                row["wall_ns"] / 1e6,
                ("%+.1f%%" % pct) if pct is not None else "-",
                row["gc_full"],
                row["gc_ms"],
                row["tracked_per_kop"],
                row["calls_per_op"],
            )
        )
    return "\n".join(lines)
