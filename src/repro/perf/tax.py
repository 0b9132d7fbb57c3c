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
bytecode-cache effects.

Host clocks live here by design: ``repro.perf`` is the one package the
wall-clock lint rule exempts.  Nothing this module returns may flow back
into a simulation (enforced by the host-time-leak checker).
"""

import sys
from time import perf_counter_ns
from typing import Callable, List, Optional, Sequence

__all__ = ["LAYERS", "format_tax", "measure_tax"]

#: the layers the tax matrix toggles, in report order; "off" is the baseline.
LAYERS = ("off", "trace", "metrics", "sanitize", "critpath", "monitor")


def measure_tax(
    run: Callable[[str], None],
    layers: Sequence[str] = LAYERS,
    warmup: bool = True,
) -> dict:
    """Time ``run(layer)`` once per layer; returns the tax report.

    The report is host data: ``base_wall_ns`` (the ``off`` run), and one row
    per layer with ``wall_ns`` and ``overhead_pct`` relative to the baseline
    (None when ``off`` itself was not measured).
    """
    if warmup:
        run("off")
    rows: List[dict] = []
    base: Optional[int] = None
    for layer in layers:
        print("tax: running layer %s ..." % layer, file=sys.stderr)
        t0 = perf_counter_ns()
        run(layer)
        wall = perf_counter_ns() - t0
        if layer == "off":
            base = wall
        rows.append({"layer": layer, "wall_ns": wall})
    for row in rows:
        row["overhead_pct"] = (
            round(100.0 * (row["wall_ns"] / base - 1.0), 1)
            if base
            else None
        )
    return {"base_wall_ns": base, "layers": rows}


def format_tax(report: dict) -> str:
    """Fixed-width table of the tax report (layer, wall ms, overhead %)."""
    lines = ["%-10s %10s %10s" % ("layer", "wall ms", "overhead")]
    for row in report["layers"]:
        pct = row.get("overhead_pct")
        lines.append(
            "%-10s %10.1f %10s"
            % (
                row["layer"],
                row["wall_ns"] / 1e6,
                ("%+.1f%%" % pct) if pct is not None else "-",
            )
        )
    return "\n".join(lines)
