"""``--compare A.json B.json``: did B get worse than A, metric by metric?

Applies the bounds of ``BENCHMARK.json`` to every workload x end-to-end metric
of two ``results.json`` files (A is the baseline), plus two absolute gates the
contract cannot express because their healthy value is 0 or compared in
absolute terms, and lists every exact (simulated) value that changed.
"""

import json
from typing import Dict, List, Optional, Tuple

#: per-layer metrics gated on their absolute change, not a share of A.
ABSOLUTE_BOUNDS = {"failed_op_share": 0.0, "paper_gap": 0.02}


def _spread(metric: dict) -> float:
    """Inter-quartile range of the passes as a share of their median."""
    q = metric.get("quartiles")
    return (q[2] - q[0]) / q[1] if q and q[1] else 0.0


def verdict(a: float, b: float, worse_by: float, bound: float, spread: float) -> str:
    """``worse_by`` is B's change in the bad direction, in the bound's terms."""
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    if a != b and spread > bound:
        return "unresolved"  # the passes scatter more than the bound resolves
    return "same"


def compare(a: dict, b: dict, contract: dict) -> Tuple[List[tuple], Dict[str, List[str]]]:
    """Rows ``(workload, metric, a, b, change, verdict)`` and, per workload,
    the exact values that differ between A and B."""
    rows: List[tuple] = []
    changed: Dict[str, List[str]] = {}
    for spec in contract["workloads"]:
        name = spec["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            rows.append((name, "(workload)", None, None, None, "worse"))
            continue
        for entry in contract["end_to_end"]:
            ma, mb = wa["end_to_end"][entry["name"]], wb["end_to_end"][entry["name"]]
            va, vb = ma["value"], mb["value"]
            change = (vb - va) / va
            worse_by = -change if entry["better"] == "higher" else change
            rows.append((
                name, entry["name"], va, vb, change,
                verdict(va, vb, worse_by, entry["bound"], max(_spread(ma), _spread(mb))),
            ))
        for metric, bound in ABSOLUTE_BOUNDS.items():
            if metric in wa["not_applicable"]:
                continue
            va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            rows.append((name, metric, va, vb, vb - va, verdict(va, vb, vb - va, bound, 0.0)))
        differing = sorted(
            key for key in set(wa["exact"]) | set(wb["exact"])
            if wa["exact"].get(key) != wb["exact"].get(key)
        )
        if differing:
            changed[name] = [
                "%s: %r -> %r" % (key, wa["exact"].get(key), wb["exact"].get(key))
                for key in differing
            ]
    return rows, changed


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else "%.6g" % value


def compare_files(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows, changed = compare(a, b, contract)
    print("%-14s %-16s %14s %14s %9s  %s" % ("workload", "metric", "A", "B", "change", "verdict"))
    for workload, metric, va, vb, change, word in rows:
        shown = "-" if change is None else (
            "%+.4f" % change if metric in ABSOLUTE_BOUNDS else "%+.1f%%" % (100 * change)
        )
        print("%-14s %-16s %14s %14s %9s  %s" % (workload, metric, _fmt(va), _fmt(vb), shown, word))
    for workload, lines in changed.items():
        print("%s: %d exact values changed" % (workload, len(lines)))
        for line in lines:
            print("  " + line)
    if not changed:
        print("no exact (simulated) value changed")
    n_worse = sum(row[-1] == "worse" for row in rows)
    print("%d rows, %d worse" % (len(rows), n_worse))
    return 1 if n_worse else 0
