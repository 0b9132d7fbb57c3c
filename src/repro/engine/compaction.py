"""Compaction picking and merge policy.

Two styles:

* ``leveled`` — LevelDB/RocksDB: L0 compacts into L1 by merging with every
  overlapping L1 file; level i compacts one file (round-robin cursor) into
  the overlapping files of level i+1.  Rewriting the next level is where the
  classic write amplification comes from.

* ``flsm`` — the PebblesDB-like fragmented LSM: a full level is merged *among
  its own runs only* and the result is appended to the next level without
  reading it, trading lower write amplification for overlapping runs that
  every read must consult (paper Sections 5.2 and 6; this is the
  guard-within-level merge simplified to whole-level runs, documented in
  DESIGN.md).

Multi-version dedup honors live snapshots: an older version is kept iff some
snapshot needs it; tombstones are dropped only at the bottommost level.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.engine.options import MAX_LEVELS
from repro.engine.version import Version
from repro.storage.memtable import MAX_SEQ, VTYPE_DELETE
from repro.storage.sstable import SSTable

__all__ = ["Compaction", "dedup_entries", "pick_compaction"]

Entry = Tuple[bytes, int, int, bytes]

_KEY = itemgetter(0)
_SEQ = itemgetter(1)


@dataclass
class Compaction:
    level: int
    target: int
    inputs_lo: List[SSTable]
    inputs_hi: List[SSTable] = field(default_factory=list)
    drop_tombstones: bool = False

    @property
    def all_inputs(self) -> List[SSTable]:
        return self.inputs_lo + self.inputs_hi

    @property
    def input_bytes(self) -> int:
        return sum(t.file_size for t in self.all_inputs)


def pick_compaction(engine) -> Optional[Compaction]:
    """Choose the most urgent compaction, or None if the tree is in shape."""
    if engine.options.compaction_style == "flsm":
        compaction = _pick_flsm(engine)
    else:
        compaction = _pick_leveled(engine)
    if compaction is not None:
        tracer = engine.env.sim.tracer
        if tracer is not None:
            tracer.instant(
                "compaction:pick",
                "compaction",
                "engine:%s" % engine.name,
                ("level", "target", "files"),
                (compaction.level, compaction.target, len(compaction.all_inputs)),
            )
    return compaction


def _busy(engine, tables: Iterable[SSTable]) -> bool:
    return any(t.number in engine.compacting for t in tables)


def _level_scores(engine) -> List[Tuple[float, int]]:
    version = engine.versions.current
    opts = engine.options
    scores = [
        (len(version.levels[0]) / float(opts.l0_compaction_trigger), 0)
    ]
    for level in range(1, MAX_LEVELS - 1):
        score = version.level_bytes(level) / float(opts.max_bytes_for_level(level))
        scores.append((score, level))
    scores.sort(reverse=True)
    return scores


def _is_bottom(version: Version, target: int) -> bool:
    return not any(version.levels[target + 1:])


def _pick_leveled(engine) -> Optional[Compaction]:
    version = engine.versions.current
    for score, level in _level_scores(engine):
        if score < 1.0:
            return None
        if level == 0:
            inputs_lo = version.levels[0]
            if not inputs_lo or _busy(engine, inputs_lo):
                continue
            begin = min(t.smallest for t in inputs_lo)
            end = max(t.largest for t in inputs_lo)
            inputs_hi = version.overlapping(1, begin, end)
            if _busy(engine, inputs_hi):
                continue
            return Compaction(0, 1, inputs_lo, inputs_hi,
                              drop_tombstones=_is_bottom(version, 1))
        tables = version.levels[level]
        if not tables:
            continue
        target = level + 1
        # Round-robin: first table past the per-level cursor key.
        cursor = engine.versions.compact_cursor[level]
        chosen = None
        for t in tables:
            if cursor is None or t.smallest > cursor:
                chosen = t
                break
        if chosen is None:
            chosen = tables[0]
        if _busy(engine, [chosen]):
            continue
        inputs_hi = version.overlapping(target, chosen.smallest, chosen.largest)
        if _busy(engine, inputs_hi):
            continue
        engine.versions.compact_cursor[level] = chosen.largest
        return Compaction(level, target, [chosen], inputs_hi,
                          drop_tombstones=_is_bottom(version, target))
    return None


def _pick_flsm(engine) -> Optional[Compaction]:
    """Tiered/fragmented merge: combine a level's runs, append to the next."""
    version = engine.versions.current
    opts = engine.options
    l0 = version.levels[0]
    if len(l0) >= opts.l0_compaction_trigger and not _busy(engine, l0):
        return Compaction(0, 1, l0, [],
                          drop_tombstones=_is_bottom(version, 1))
    for level in range(1, MAX_LEVELS - 1):
        tables = version.levels[level]
        if not tables:
            continue
        # Data rests in a level (as overlapping runs) until the level
        # exceeds its byte budget; only then is the whole level merged and
        # moved down — never rewriting the level below.
        over_budget = version.level_bytes(level) > opts.max_bytes_for_level(level)
        if over_budget and not _busy(engine, tables):
            target = level + 1
            bottom = _is_bottom(version, target)
            return Compaction(level, target, tables, [],
                              drop_tombstones=bottom)
    return None


def merge_sorted_runs(runs: List[List[Entry]]) -> List[Entry]:
    """Merge entry runs into one list in internal-key order (key ascending,
    seq descending within a key).

    Two stable C-level sorts over the chained runs, minor key first, instead
    of a k-way heap merge calling a Python key function per entry.
    ``(key, seq)`` is unique across an engine's files, so the result is the
    one total order whatever order the runs come in.
    """
    entries = list(chain.from_iterable(runs))
    entries.sort(key=_SEQ, reverse=True)
    entries.sort(key=_KEY)
    return entries


def dedup_entries(
    entries: Iterable[Entry],
    snapshot_seqs: List[int],
    drop_tombstones: bool,
) -> Iterator[Entry]:
    """Drop shadowed versions and (at the bottom level) tombstones.

    ``snapshot_seqs`` must be sorted ascending.  An older version survives
    iff some snapshot s satisfies ``entry.seq <= s < previous_kept_seq``.
    """

    def snapshot_in(lo: int, hi: int) -> bool:
        idx = bisect_left(snapshot_seqs, lo)
        return idx < len(snapshot_seqs) and snapshot_seqs[idx] < hi

    last_key: Optional[bytes] = None
    prev_seq = MAX_SEQ
    for entry in entries:
        key, seq, vtype, _value = entry
        if key != last_key:
            last_key = key
            prev_seq = MAX_SEQ
            needed = True  # newest version of the key
        else:
            needed = snapshot_in(seq, prev_seq)
        if not needed:
            continue
        prev_seq = seq
        if (
            vtype == VTYPE_DELETE
            and drop_tombstones
            and not snapshot_in(0, seq)
        ):
            # Bottommost tombstone with no snapshot below it: the key simply
            # ceases to exist.  Older versions stay shadowed via prev_seq.
            continue
        yield entry
