"""Figure 6's taxonomy: the five buckets each write's latency splits into.

The paper's core evidence is *attribution*: each write's time divided into
WAL, MemTable, WAL lock, MemTable lock and Others (Figure 6).  The CPU model
accounts busy/wait time per category on every
:class:`~repro.sim.cpu.ThreadContext`, and the metrics collector windows the
foreground threads' accounting like any other cumulative counter
(:attr:`repro.harness.metrics.Metrics.attribution`).

This module owns the five buckets, the raw category → bucket maps and the
critical-path label → bucket rule, and folds both of Figure 6's sources onto
them:

* :func:`fig06_breakdown` — raw busy/wait category totals, what a measured
  window's thread accounting holds;
* :func:`fig06_from_blame` — a critical-path blame ranking
  (:func:`repro.critpath.aggregate_blame`): what was on the path, where the
  window's accounting is what the threads spent.
"""

from typing import Dict

__all__ = [
    "CATEGORIES",
    "fig06_breakdown",
    "fig06_from_blame",
]

#: Figure 6's category names, in presentation order.
CATEGORIES = ["WAL", "MemTable", "WAL lock", "MemTable lock", "Others"]

# Raw accounting category -> Figure 6 bucket.  Categories absent from these
# maps (e.g. read/flush/compaction busy time, publish or request waits) are
# outside the write-path breakdown and are ignored.
_BUSY_MAP = {
    "wal": "WAL",
    "memtable": "MemTable",
    "wal_lock": "WAL lock",
    "other": "Others",
}
_WAIT_MAP = {
    "wal": "WAL",
    "wal_lock": "WAL lock",
    "memtable_lock": "MemTable lock",
    "cpu_queue": "Others",
    "stall": "Others",
}


def _label_bucket(label: str) -> str:
    """Map a critical-path blame label onto Figure 6's five buckets.

    Lock labels must be checked before the bare wal/memtable substrings:
    ``lock:mem-stage:wal_lock`` is WAL-lock time, not WAL time.
    """
    if "wal_lock" in label:
        return "WAL lock"
    if "memtable_lock" in label or "mem-stage" in label:
        return "MemTable lock"
    if "wal" in label:
        return "WAL"
    if "memtable" in label:
        return "MemTable"
    return "Others"


def fig06_breakdown(
    busy: Dict[str, float], wait: Dict[str, float]
) -> Dict[str, object]:
    """Fold raw busy/wait category totals into Figure 6's five buckets.

    Returns ``{"categories": {bucket: seconds}, "shares": {bucket: fraction},
    "total": seconds}``.  Shares are zero when the total is zero.
    """
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for category, bucket in _BUSY_MAP.items():
        totals[bucket] += busy.get(category, 0.0)
    for category, bucket in _WAIT_MAP.items():
        totals[bucket] += wait.get(category, 0.0)
    return _with_shares(totals)


def fig06_from_blame(blame: Dict[str, object]) -> Dict[str, object]:
    """Fold a critical-path blame ranking into Figure 6's buckets, same
    shape as :func:`fig06_breakdown`."""
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for row in blame["rows"]:
        totals[_label_bucket(row["label"])] += row["seconds"]
    return _with_shares(totals)


def _with_shares(totals: Dict[str, float]) -> Dict[str, object]:
    total = sum(totals.values())
    shares = {k: (v / total if total > 0 else 0.0) for k, v in totals.items()}
    return {"categories": totals, "shares": shares, "total": total}
