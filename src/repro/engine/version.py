"""Versions and the manifest: which SSTables are live at which level.

A :class:`Version` is an immutable snapshot of the LSM-tree shape (readers
grab a reference and are unaffected by concurrent compactions): the SSTables
of each level themselves, in the one order of the tree.  The
:class:`VersionSet` applies edits (tables added/removed, WAL watermark) and
persists each edit as a synced record in the manifest file, so recovery can
rebuild the exact tree from the disk image — orphan SSTable blobs from a
crash mid-flush are ignored and garbage-collected.

Level 0 tables may overlap and are searched newest-to-oldest; levels >= 1 are
sorted and non-overlapping under leveled compaction.  Under the FLSM style
(PebblesDB baseline) levels >= 1 hold multiple overlapping *runs*; reads must
consult each run, which is the read-cost side of PebblesDB's low write
amplification.
"""

import pickle
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Generator, List, Optional, Tuple

from repro.engine.env import Env
from repro.engine.options import MAX_LEVELS, EngineOptions
from repro.errors import Corruption
from repro.faults.retry import retry_io
from repro.storage.sstable import SSTable
from repro.storage.wal import LogReader, LogWriter

__all__ = ["Version", "VersionEdit", "VersionSet"]

_NUMBER = attrgetter("number")
_RANGE = attrgetter("smallest", "number")


class Version:
    """Immutable per-level table lists.

    Built from each level's tables in any order, and sorts them into the
    tree's one order: L0 newest first, every other level by ``(smallest,
    number)``.  The version owns the lists it is given."""

    def __init__(self, levels: List[List[SSTable]], flsm: bool):
        levels[0].sort(key=_NUMBER, reverse=True)
        for tables in levels[1:]:
            tables.sort(key=_RANGE)
        self.levels = levels
        runs = [[table] for table in levels[0]]
        for tables in levels[1:]:
            if flsm:
                runs += [[table] for table in tables]  # overlapping runs
            elif tables:
                runs.append(tables)
        #: every sorted run a scan reads, one cursor each, as ``(tables, their
        #: largest keys)``: each L0 table, newest first, then each non-empty
        #: level >= 1 (its own list; each of its tables under FLSM); built
        #: once for every scan to share
        self.runs: List[Tuple[List[SSTable], List[bytes]]] = [
            (run, [table.largest for table in run]) for run in runs
        ]

    def level_bytes(self, level: int) -> int:
        return sum(table.file_size for table in self.levels[level])

    def overlapping(
        self, level: int, begin: Optional[bytes], end: Optional[bytes]
    ) -> List[SSTable]:
        return [t for t in self.levels[level] if t.overlaps(begin, end)]


@dataclass
class VersionEdit:
    added: List[Tuple[int, SSTable]] = field(default_factory=list)
    deleted: List[Tuple[int, int]] = field(default_factory=list)  # (level, number)
    log_number: Optional[int] = None  # oldest WAL still needed

    def encode(self) -> bytes:
        return pickle.dumps(
            {
                "added": [(level, table.number) for level, table in self.added],
                "deleted": self.deleted,
                "log_number": self.log_number,
            }
        )


class VersionSet:
    """Owns the current Version and the manifest file for one engine."""

    def __init__(self, env: Env, name: str, options: EngineOptions):
        self.env = env
        self.name = name
        self.options = options
        #: FLSM levels hold overlapping runs: a scan reads each file as one
        self._flsm = options.compaction_style == "flsm"
        self.current = Version([[] for _ in range(MAX_LEVELS)], self._flsm)
        self.next_file_number = 1
        self.log_number = 0
        self._manifest = LogWriter(env.disk.open_file(self._manifest_path()))
        #: round-robin compaction cursors per level (leveled style).
        self.compact_cursor: List[Optional[bytes]] = [None] * MAX_LEVELS

    def _manifest_path(self) -> str:
        return "%s/MANIFEST" % self.name

    def blob_name(self, number: int) -> str:
        return "%s/sst-%06d" % (self.name, number)

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    # -- edits -----------------------------------------------------------------

    def log_and_apply(self, edit: VersionEdit) -> Generator:
        """Persist ``edit`` to the manifest (synced) and install the result."""
        monitor = self.env.sim.monitor
        if monitor is not None:
            # Version installs are serialized under the engine's DB mutex in
            # RocksDB; model the VersionSet as internally synchronized so
            # flush and compaction installs order each other.
            monitor.on_sync(self)
        self._manifest.append(edit.encode())
        yield from retry_io(
            self.env, lambda: self._manifest.flush(category="manifest"),
            site="manifest",
        )
        self._apply(edit)

    def _apply(self, edit: VersionEdit) -> None:
        levels = [list(tables) for tables in self.current.levels]
        for level, number in edit.deleted:
            levels[level] = [t for t in levels[level] if t.number != number]
        for level, table in edit.added:
            levels[level].append(table)
        if edit.log_number is not None:
            self.log_number = edit.log_number
        self.current = Version(levels, self._flsm)

    # -- recovery --------------------------------------------------------------

    def recover(self) -> Generator:
        """Rebuild state from the durable manifest; returns live file numbers."""
        vfile = self.env.disk.open_file(self._manifest_path())
        data = yield from vfile.read_all(category="manifest")
        live: List[Tuple[int, int]] = []  # (level, number) in apply order
        max_number = 0
        # A truncated manifest tail is a legal crash artifact: the final
        # edit never committed, so the tree it describes never existed.
        # A CRC mismatch inside it raises Corruption (LogReader).
        for record in LogReader(data, source=self._manifest_path()):
            edit = pickle.loads(record.payload)
            for level, number in edit["deleted"]:
                live = [(l, n) for (l, n) in live if n != number]
            for level, number in edit["added"]:
                live.append((level, number))
                max_number = max(max_number, number)
            if edit["log_number"] is not None:
                self.log_number = edit["log_number"]
        levels: List[List[SSTable]] = [[] for _ in range(MAX_LEVELS)]
        for level, number in live:
            blob = self.blob_name(number)
            if not self.env.disk.blob_exists(blob):
                raise Corruption(
                    "manifest references missing SSTable %s" % blob,
                    site=self._manifest_path(),
                )
            levels[level].append(self.env.disk.get_blob(blob))
        self.current = Version(levels, self._flsm)
        self.next_file_number = max_number + 1
        self._gc_orphan_blobs(live)
        return live

    def _gc_orphan_blobs(self, live: List[Tuple[int, int]]) -> None:
        live_names = {self.blob_name(number) for _, number in live}
        prefix = "%s/sst-" % self.name
        orphans = [
            name
            for name in list(self.env.disk._blobs)
            if name.startswith(prefix) and name not in live_names
        ]
        for name in orphans:
            self.env.disk.delete_blob(name)
