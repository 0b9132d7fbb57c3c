"""Versions and the manifest: which SSTables are live at which level.

A :class:`Version` is an immutable snapshot of the LSM-tree shape (readers
grab a reference and are unaffected by concurrent compactions).  The
:class:`VersionSet` applies edits (files added/removed, WAL watermark) and
persists each edit as a synced record in the manifest file, so recovery can
rebuild the exact tree from the disk image — orphan SSTable blobs from a
crash mid-flush are ignored and garbage-collected.

Level 0 files may overlap and are searched newest-to-oldest; levels >= 1 are
sorted and non-overlapping under leveled compaction.  Under the FLSM style
(PebblesDB baseline) levels >= 1 hold multiple overlapping *runs*; reads must
consult each run, which is the read-cost side of PebblesDB's low write
amplification.
"""

import pickle
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.engine.env import Env
from repro.engine.options import MAX_LEVELS, EngineOptions
from repro.errors import Corruption
from repro.faults.retry import retry_io
from repro.storage.sstable import SSTable
from repro.storage.wal import LogReader, LogWriter

__all__ = ["FileMeta", "Version", "VersionEdit", "VersionSet"]


@dataclass
class FileMeta:
    """Metadata for one live SSTable."""

    number: int
    smallest: bytes
    largest: bytes
    file_size: int
    entry_count: int
    table: SSTable

    @classmethod
    def from_table(cls, table: SSTable) -> "FileMeta":
        return cls(
            number=table.number,
            smallest=table.smallest,
            largest=table.largest,
            file_size=table.file_size,
            entry_count=table.entry_count,
            table=table,
        )


class Version:
    """Immutable per-level file lists."""

    def __init__(self, levels: List[List[FileMeta]], flsm: bool):
        self.levels = levels
        runs = [[meta] for meta in levels[0]]
        for files in levels[1:]:
            if flsm:
                runs += [[meta] for meta in files]  # overlapping runs
            elif files:
                runs.append(files)
        #: every sorted run a scan reads, one cursor each, as ``(tables, their
        #: largest keys)``: each L0 file, newest first, then each non-empty
        #: level >= 1 (each of its files under FLSM); built once for every
        #: scan to share
        self.runs: List[Tuple[List[SSTable], List[bytes]]] = [
            ([meta.table for meta in run], [meta.largest for meta in run])
            for run in runs
        ]

    def level_files(self, level: int) -> List[FileMeta]:
        return self.levels[level] if level < len(self.levels) else []

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.level_files(level))

    def num_levels(self) -> int:
        return len(self.levels)

    def overlapping(
        self, level: int, begin: Optional[bytes], end: Optional[bytes]
    ) -> List[FileMeta]:
        return [
            f for f in self.level_files(level) if _overlaps(f, begin, end)
        ]

    def total_files(self) -> int:
        return sum(len(files) for files in self.levels)


def _overlaps(f: FileMeta, begin: Optional[bytes], end: Optional[bytes]) -> bool:
    if begin is not None and f.largest < begin:
        return False
    if end is not None and f.smallest > end:
        return False
    return True


@dataclass
class VersionEdit:
    added: List[Tuple[int, FileMeta]] = field(default_factory=list)
    deleted: List[Tuple[int, int]] = field(default_factory=list)  # (level, number)
    log_number: Optional[int] = None  # oldest WAL still needed

    def encode(self) -> bytes:
        return pickle.dumps(
            {
                "added": [(level, meta.number) for level, meta in self.added],
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
        levels = [list(files) for files in self.current.levels]
        for level, number in edit.deleted:
            levels[level] = [f for f in levels[level] if f.number != number]
        for level, meta in edit.added:
            levels[level].append(meta)
        # L0 newest-first; other levels sorted by smallest key.
        levels[0].sort(key=lambda f: -f.number)
        for level in range(1, len(levels)):
            levels[level].sort(key=lambda f: (f.smallest, f.number))
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
        levels: List[List[FileMeta]] = [[] for _ in range(MAX_LEVELS)]
        for level, number in live:
            blob = self.blob_name(number)
            if not self.env.disk.blob_exists(blob):
                raise Corruption(
                    "manifest references missing SSTable %s" % blob,
                    site=self._manifest_path(),
                )
            table = self.env.disk.get_blob(blob)
            levels[level].append(FileMeta.from_table(table))
        levels[0].sort(key=lambda f: -f.number)
        for level in range(1, len(levels)):
            levels[level].sort(key=lambda f: (f.smallest, f.number))
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
