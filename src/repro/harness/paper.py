"""The paper's stated results: one row per claim the figure suite checks.

Every ``benchmarks/bench_*.py`` figure checks the paper's claims through
:class:`~repro.harness.report.ShapeCheck`, which names a claim by its key
here and reads the claim's text and paper cell from this table; the tests
that hold the reproduction to the paper (``tests/test_artifact_claims.py``,
``tests/test_paper_ledger.py``) read the paper's numbers from here too.

A row holds:

* ``text`` — the claim, as the check's name in ``results/<figure>.checks.txt``;
* ``paper`` — the paper cell of that file, as printed;
* ``value`` — the paper's number in the unit of the check's ``measured``
  column, or ``None`` where the paper states no point value: ablations and
  extensions, orderings ("lowest", "monotone"), ranges and one-sided bounds
  (but ``fig05.multi_vs_single_peak``'s ">=1.8x", which perfbench's
  ``PAPER_RATIOS`` reads as the point 1.8);
* ``threads`` / ``records`` — the user-thread count and dataset size the
  paper's number was measured at, only where the claim text, its paper cell
  or EXPERIMENTS.md states them (``None`` otherwise: the paper's full text
  is not in the repository, so nothing here is inferred).

The key's prefix is the figure: the results file the claim is checked in.
"""

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CLAIMS", "Claim"]


@dataclass(frozen=True)
class Claim:
    """One stated result of the paper, as one figure's shape check reads it."""

    key: str
    text: str
    paper: str
    value: Optional[float] = None
    threads: Optional[int] = None
    records: Optional[int] = None

    @property
    def figure(self) -> str:
        """The results file stem the claim is checked in."""
        return self.key.partition(".")[0]


#: EXPERIMENTS.md D4: the paper's YCSB-E dataset.
_E_RECORDS = 670_000_000

_ROWS = (
    # Figure 1: RocksDB on HDD, SATA SSD and NVMe SSD.
    Claim("fig01.read_gap", "random-read NVMe/HDD gap", "~200x", 200.0, threads=1),
    Claim("fig01.write_gap", "random-write NVMe/HDD gap (small)", "~1x", 1.0),
    Claim("fig01.write_speedup_8", "8-thread random-write speedup (sublinear)", "~2.5x",
          2.5, threads=8),
    # Figure 4: one user thread inserting continuously (EXPERIMENTS.md: single writer).
    Claim("fig04.small_core", "128B writer pegs its core", "100%", 1.0, threads=1),
    Claim("fig04.small_bandwidth", "128B writer underuses SSD bandwidth", "~1/6 of BW",
          1 / 6, threads=1),
    Claim("fig04.large_core", "1KB writer is not CPU-pegged", "~70% core", 0.70,
          threads=1),
    Claim("fig04.large_bandwidth", "1KB case moves more bandwidth than 128B", ">1x",
          threads=1),
    # Figure 5: concurrent writes, single vs multi instance.
    Claim("fig05.single_speedup_32", "single-instance 32-thread speedup (meager ~3x)",
          "3x", 3.0, threads=32),
    Claim("fig05.multi_vs_single_peak", "multi-instance beats single-instance peak",
          ">=1.8x", 1.8),
    Claim("fig05.multi_sublinear_32", "multi-instance is sublinear at 32", "<32x",
          threads=32),
    Claim("fig05.single_bandwidth_16",
          "single-instance leaves SSD bandwidth idle at 16 thr", "~1/5 used", 1 / 5,
          threads=16),
    Claim("fig05.pinning", "pinning does not hurt (paper: +10-15%)", "1.1-1.15x"),
    # Figure 6: write latency breakdown by thread count.
    Claim("fig06.useful_1", "1 thread: WAL+MemTable dominate", "90%", 0.90, threads=1),
    Claim("fig06.locks_1", "1 thread: ~no lock overhead", "~0%", 0.0, threads=1),
    Claim("fig06.locks_32", "32 threads: locks dominate", "81.4%", 0.814, threads=32),
    Claim("fig06.useful_32", "32 threads: useful work share collapses", "16.3%", 0.163,
          threads=32),
    Claim("fig06.group_logging", "group logging amortizes per-op WAL time",
          "2.1us -> 0.8us", 2.1 / 0.8),
    # Figure 7: WriteBatch size vs WAL bandwidth and CPU.
    Claim("fig07.bandwidth", "batching raises WAL bandwidth", ">2x"),
    Claim("fig07.cpu", "batching cuts CPU per record", ">1.5x"),
    Claim("fig07.monotone", "bandwidth grows monotonically with batch size",
          "monotone"),
    # Figure 8: the WAL and MemTable stages in isolation.
    Claim("fig08.wal_single", "WAL single-instance gains from batching", "~2x at 32thr",
          2.0, threads=32),
    Claim("fig08.wal_multi", "WAL multi-instance peak beats single baseline", ">2.5x"),
    Claim("fig08.memtable_multi", "MemTable multi-instance scales strongly",
          "10.5x at 32thr", 10.5, threads=32),
    Claim("fig08.memtable_single", "MemTable single-instance scales weakly",
          "3.7x at 32thr", 3.7, threads=32),
    Claim("fig08.memtable_multi_vs_single", "multi beats single on MemTable stage",
          "10.5x vs 3.7x", 10.5 / 3.7, threads=32),
    # Figure 12: random writes.
    Claim("fig12.p2kvs4_speedup", "p2KVS-4 write speedup over RocksDB", "2.7x", 2.7),
    Claim("fig12.p2kvs8_speedup", "p2KVS-8 write speedup over RocksDB", "4.6x", 4.6),
    Claim("fig12.p2kvs8_lowest_io_amp", "p2KVS-8 has the lowest IO amplification",
          "lowest"),
    Claim("fig12.pebbles_io_amp", "PebblesDB IO amp below RocksDB", "lower"),
    Claim("fig12.p2kvs8_bandwidth", "p2KVS-8 uses more SSD bandwidth than RocksDB",
          "full vs <20%"),
    Claim("fig12.pebbles_qps", "PebblesDB is not write-concurrency optimized",
          "< RocksDB"),
    # Table 2: memory and CPU under the Figure 12 run.
    Claim("table2.cpu", "p2KVS-8 uses more CPU than p2KVS-4", "1239% vs 762%",
          1239 / 762),
    Claim("table2.pebbles_cpu", "PebblesDB uses the least CPU (threads wait)", "321%"),
    Claim("table2.memory", "p2KVS memory grows with workers but stays bounded",
          "0.94 GB vs 0.58 GB", 0.94 / 0.58),
    # Figure 13: write latency vs offered load.
    Claim("fig13.light_load", "similar average latency under light load", "~1x", 1.0),
    Claim("fig13.rocksdb_spike", "RocksDB p99 spikes when overloaded",
          "drastic spikes"),
    Claim("fig13.p2kvs_p99", "p2KVS-8 p99 stays below 1 ms at the highest rate",
          "<1 ms to 400 KQPS"),
    # Figure 14: point queries and OBM.
    Claim("fig14.no_obm", "without OBM p2KVS is in RocksDB's ballpark", "~1x", 1.0),
    Claim("fig14.obm_gain", "OBM beats the disabled case at high threads", "up to 7.5x",
          7.5),
    Claim("fig14.obm_vs_rocksdb", "p2KVS-8 with OBM beats RocksDB at high threads",
          "up to 5.4x", 5.4),
    Claim("fig14.rocksdb_flat", "RocksDB GET throughput flattens with threads", "flat"),
    # Figure 15: RANGE and SCAN.
    Claim("fig15.range", "RANGE speedup from forked sub-ranges", "up to 2.9x", 2.9),
    Claim("fig15.small_scan", "small SCAN speedup", "~1.5x", 1.5),
    Claim("fig15.large_scan", "large SCAN converges toward parity", "~1x at >=1000",
          1.0),
    Claim("fig15.serial", "serial strategy avoids over-read but loses parallelism",
          "< parallel for small scans"),
    # Figure 16: YCSB, p2KVS-8 over RocksDB.
    Claim("fig16.load_8", "LOAD speedup at 8 threads", "2.4x", 2.4, threads=8),
    Claim("fig16.load_32", "LOAD speedup at 32 threads", "5.2x", 5.2, threads=32),
    Claim("fig16.load_growth", "LOAD speedup grows with concurrency", "2.4x -> 5.2x",
          5.2 / 2.4),
    Claim("fig16.b", "read-heavy B improves", "1-2x"),
    Claim("fig16.c", "read-only C improves", "1-2x"),
    Claim("fig16.d", "latest-read D improves", "1-2x"),
    Claim("fig16.a", "mixed A (diverges, see EXPERIMENTS.md)", "1.5-3.5x"),
    Claim("fig16.f", "RMW-mixed F (diverges, see EXPERIMENTS.md)", "1.5-3.5x"),
    Claim("fig16.e", "scan-heavy E (diverges, see EXPERIMENTS.md)", "~1x", 1.0,
          records=_E_RECORDS),
    Claim("fig16.workers", "p2KVS-8 beats p2KVS-4 on LOAD at 32 threads",
          "workers should match hardware parallelism", threads=32),
    # Figure 17: sensitivity to workers and OBM.
    Claim("fig17.load_instances", "LOAD: 8 instances alone", "~5x", 5.0),
    Claim("fig17.load_obm", "LOAD: OBM adds on top of 8 workers", "up to 2x", 2.0),
    Claim("fig17.c_instances", "C: inter-instance parallelism helps reads",
          "3.3x/5.8x at 4/8", 5.8),
    Claim("fig17.c_obm_single", "C: OBM helps even a single instance", "up to 5x", 5.0),
    Claim("fig17.b_vs_c", "B gains less from OBM than C (mixed ops split batches)",
          "2.2-4.2x vs 5x"),
    Claim("fig17.monotone", "more workers monotonically help LOAD (OBM on)",
          "monotone"),
    # Figures 18 + 19: KV size.
    Claim("fig18_19.load_obm", "small KVs gain more from OBM on writes (LOAD)",
          "128B > 1KB"),
    Claim("fig18_19.read_obm", "OBM remains effective for reads at 1KB (C)",
          "still effective"),
    Claim("fig18_19.load_speedup",
          "overall LOAD speedup lower at 1KB than 128B (Fig 19)", "lower"),
    Claim("fig18_19.load_1kb", "p2KVS still ahead on LOAD at 1KB", ">1x"),
    # Figure 20: p2KVS-8 over KVell-8 on YCSB.
    Claim("fig20.load", "p2KVS wins write-heavy LOAD", ">1x"),
    Claim("fig20.a", "p2KVS wins mixed A", ">1x"),
    Claim("fig20.f", "p2KVS wins RMW-heavy F", ">1x"),
    Claim("fig20.b", "point-query B roughly comparable", "~1x", 1.0),
    Claim("fig20.d", "point-query D roughly comparable", "~1x", 1.0),
    Claim("fig20.c", "KVell competitive on read-only C", "KVell wins C"),
    Claim("fig20.e", "p2KVS at least matches KVell on scans (E)", ">1x",
          records=_E_RECORDS),
    # Figure 21: hardware utilization, p2KVS-8 vs KVell-8.
    Claim("fig21.bandwidth", "p2KVS moves more IO bandwidth than KVell",
          "full vs ~300MB/s"),
    Claim("fig21.memory", "KVell uses more memory (in-RAM indexes)", "~2x", 2.0),
    Claim("fig21.cpu", "p2KVS uses more total CPU", "workers + background"),
    Claim("fig21.spread", "p2KVS spreads work beyond its worker cores",
          "multicore-friendly"),
    Claim("fig21.kvell_hot", "KVell's busiest cores run hot", ">80%"),
    Claim("fig21.throughput", "throughputs are of the same order (2.5 vs 3.0 MQPS)",
          "p2KVS slightly ahead", 3.0 / 2.5),
    # Figure 22: p2KVS on LevelDB.
    Claim("fig22.write", "p2KVS write speedup over 1-thread LevelDB", "up to 3.4x",
          3.4),
    Claim("fig22.read", "p2KVS read speedup over 1-thread LevelDB", "up to 5.3x", 5.3),
    Claim("fig22.same_threads", "p2KVS beats LevelDB at the same thread count",
          ">1x at 8 threads", threads=8),
    Claim("fig22.no_multiget", "read parallelism without multiget (concurrent gets)",
          "no read-performance loss"),
    # Figure 23: p2KVS on WiredTiger.
    Claim("fig23.write", "p2KVS write scaling over 1-thread WiredTiger", "up to 8.4x",
          8.4),
    Claim("fig23.read", "p2KVS read scaling over 1-thread WiredTiger", "up to 15x",
          15.0),
    Claim("fig23.vanilla", "vanilla WiredTiger writes barely scale (exclusive writer)",
          "poor scaling"),
    Claim("fig23.same_threads",
          "p2KVS beats WiredTiger at the same thread count (writes, 8)", ">1x",
          threads=8),
    # Extension: Facebook-style mixed KV sizes.
    Claim("facebook_mixed.write_heavy", "p2KVS wins the write-heavy mixed-size mix",
          "small-write bottleneck holds for realistic sizes"),
    Claim("facebook_mixed.read_dominated", "read-dominated mix (D3 divergence regime)",
          "paper would expect >=1x"),
    # Ablations: the design's own choices, which the paper states no number for.
    Claim("ablation_engine_opts.both",
          "concurrent memtable + pipelining help at 16 threads",
          "RocksDB's optimizations are real"),
    Claim("ablation_engine_opts.group_commit",
          "group commit is the biggest single lever", "grouping >> none"),
    Claim("ablation_engine_opts.single_thread",
          "single-thread throughput is insensitive to them", "~1x"),
    Claim("ablation_engine_opts.sync_wal", "sync WAL costs throughput vs async logging",
          "the paper runs async (Section 3.4)"),
    Claim("ablation_obm_cap.batching", "batching (cap 32) beats no batching (cap 1)",
          "OBM works"),
    Claim("ablation_obm_cap.saturation",
          "gains saturate: cap 128 is within 25% of cap 32", "diminishing returns"),
    Claim("ablation_obm_cap.bound", "cap actually bounds the batches", "avg <= cap"),
    Claim("ablation_page_cache.edge", "p2KVS keeps an edge in both regimes",
          ">1x cold and warm"),
    Claim("ablation_page_cache.warm", "warm cache speeds up single-threaded reads",
          "RAM >> flash"),
    Claim("ablation_page_cache.regimes", "regimes measurably differ",
          "cache residency matters"),
    Claim("ablation_partitioning.hash_zipfian", "hash keeps zipfian load balanced",
          "even under skew"),
    Claim("ablation_partitioning.range_sequential",
          "range partitioning collapses on sequential load", "hot partition"),
    Claim("ablation_partitioning.hash_vs_range",
          "hash out-throughputs range on sequential load", "balanced wins"),
    Claim("ablation_rate_limit.binding", "a binding cap bounds compaction write rate",
          "<= 40 MB/s"),
    Claim("ablation_rate_limit.headroom", "a cap with headroom is free",
          "~1x avg latency"),
    Claim("ablation_rate_limit.tight",
          "an over-tight cap backs up writers (the SILK trade-off)",
          "stalls when compaction debt grows"),
)

#: claim key -> row.
CLAIMS: Dict[str, Claim] = {claim.key: claim for claim in _ROWS}
