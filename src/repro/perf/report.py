"""Zone-tree rollup and rendering for the host profiler.

Zone names are dotted (``kernel.dispatch``, ``storage.memtable.insert``);
the tree groups them by name prefix into subsystems.  Two hierarchies are
at play and must not be confused:

* **runtime nesting** (who was on the zone stack inside whom) determines
  *self* time — computed exactly by :class:`~repro.perf.zones.ZoneProfiler`;
* **name hierarchy** (this module) determines *presentation* — a node's
  cumulative time is the sum of self times in its name subtree, which is
  additive and never double-counts even though e.g. ``storage.wal.encode``
  runs nested inside ``kernel.dispatch`` at runtime.

The tree root ("attributed") therefore covers exactly the wall time spent
inside at least one zone; the gap to the profiler's wall window prints as
``unattributed`` (tool setup, import time, report assembly).
"""

from typing import Dict, List

__all__ = ["format_zone_tree", "zone_tree"]


def zone_tree(snapshot: dict) -> dict:
    """Nest a snapshot's flat zone table by dotted-name prefix.

    Returns the synthetic root node ``{"name": "attributed", "cum_ns",
    "self_ns", "count", "children": [...]}`` where ``cum_ns`` of any node is
    the sum of the self times of the zones in its name subtree.
    """

    def new_node(name: str) -> dict:
        return {"name": name, "count": 0, "self_ns": 0, "cum_ns": 0,
                "children": {}}

    root = new_node("attributed")
    for name, rec in snapshot["zones"].items():
        node = root
        prefix: List[str] = []
        for part in name.split("."):
            prefix.append(part)
            node = node["children"].setdefault(
                part, new_node(".".join(prefix))
            )
        node["count"] += rec["count"]
        node["self_ns"] += rec["self_ns"]

    def finalize(node: dict) -> int:
        children = sorted(
            (finalize_child for finalize_child in node["children"].values()),
            key=lambda child: child["name"],
        )
        cum = node["self_ns"]
        for child in children:
            cum += finalize(child)
        node["cum_ns"] = cum
        node["children"] = sorted(
            children, key=lambda child: (-child["cum_ns"], child["name"])
        )
        return cum

    finalize(root)
    return root


def format_zone_tree(snapshot: dict, min_share: float = 0.0) -> str:
    """Human-readable tree: cumulative %, self ms and hit counts per zone.

    Percentages are of the profiler's *wall window*, so the root line plus
    the trailing ``unattributed`` line always account for 100%.
    """
    wall = max(1, snapshot["wall_ns"])
    root = zone_tree(snapshot)
    lines = [
        "%-42s %7s %10s %10s %10s" % ("zone", "cum%", "cum ms", "self ms", "count")
    ]

    def emit(node: dict, depth: int) -> None:
        share = node["cum_ns"] / wall
        if depth > 0 and share < min_share:
            return
        lines.append(
            "%-42s %6.1f%% %10.2f %10.2f %10d"
            % (
                "  " * depth + node["name"].rsplit(".", 1)[-1]
                if depth
                else node["name"],
                100.0 * share,
                node["cum_ns"] / 1e6,
                node["self_ns"] / 1e6,
                node["count"],
            )
        )
        for child in node["children"]:
            emit(child, depth + 1)

    emit(root, 0)
    lines.append(
        "%-42s %6.1f%% %10.2f"
        % (
            "unattributed",
            100.0 * snapshot["unattributed_ns"] / wall,
            snapshot["unattributed_ns"] / 1e6,
        )
    )
    return "\n".join(lines)
