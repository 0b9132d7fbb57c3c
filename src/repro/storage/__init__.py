"""Storage substrate: virtual files with crash semantics, WAL records,
memtables, SSTables, bloom filters, block cache and a B+-tree.

Everything here stores *real bytes*: crash-recovery tests replay genuine WAL
records, and `get` returns exactly the value that `put` wrote.  Timing is
charged through the simulation kernel's device model by the callers.
"""

from repro.storage.block_cache import BlockCache
from repro.storage.bloom import BloomFilter
from repro.storage.btree import BPlusTree
from repro.storage.memtable import MemTable
from repro.storage.sstable import SSTable, SSTableBuilder
from repro.storage.vfs import DiskImage, VirtualFile
from repro.storage.wal import LogReader, LogWriter, WalRecord

__all__ = [
    "BPlusTree",
    "BlockCache",
    "BloomFilter",
    "DiskImage",
    "LogReader",
    "LogWriter",
    "MemTable",
    "SSTable",
    "SSTableBuilder",
    "VirtualFile",
    "WalRecord",
]
