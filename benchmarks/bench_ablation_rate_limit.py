"""Ablation: SILK-style compaction rate limiting (related work, Section 6).

The paper's Figure 13 shows RocksDB's tail latency spiking under load —
partly because compaction bursts monopolize the device.  SILK (cited in the
paper's related work) fixes this by pacing internal IO.  This ablation runs
an open-loop write stream against RocksDB with and without a compaction
rate cap and compares tail latency and throughput: the cap trades a little
steady-state bandwidth for a flatter tail.
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.harness.report import ShapeCheck, format_table
from repro.workloads import fillrandom

RATE = 250e3  # offered load near RocksDB's knee
N_OPS = 6000

VARIANTS = {
    "unthrottled": None,
    "capped 150 MB/s (headroom)": 150 * 1024 * 1024,
    "capped 40 MB/s (binding)": 40 * 1024 * 1024,
}


def run_variant(limit):
    metrics, _ = run_case(
        "rocksdb",
        fillrandom(N_OPS),
        None,
        rate=RATE,
        engine={"compaction_rate_limit": limit},
    )
    hist = metrics.latency_of("write")
    return {
        "p99": hist.p99,
        "max": hist.max,
        "avg": hist.mean,
        "compaction_bw": metrics.device_bytes_kind.get("write:compaction", 0.0)
        / metrics.elapsed,
    }


def run_ablation():
    return {label: run_variant(limit) for label, limit in VARIANTS.items()}


def test_ablation_compaction_rate_limit(benchmark):
    out = once(benchmark, run_ablation)
    rows = [
        [
            label,
            "%.1f us" % (r["avg"] * 1e6),
            "%.1f us" % (r["p99"] * 1e6),
            "%.1f us" % (r["max"] * 1e6),
            "%.0f MB/s" % (r["compaction_bw"] / 1e6),
        ]
        for label, r in out.items()
    ]
    report(
        "ablation_rate_limit",
        "Ablation: compaction rate limiting (open-loop writes at %.0f KQPS)\n"
        % (RATE / 1e3)
        + format_table(
            ["variant", "avg", "p99", "max", "compaction write rate"], rows
        ),
    )
    free = out["unthrottled"]
    headroom = out["capped 150 MB/s (headroom)"]
    binding = out["capped 40 MB/s (binding)"]
    assert_shapes(
        "ablation_rate_limit",
        [
            ShapeCheck(
                "a binding cap bounds compaction write rate",
                "<= 40 MB/s",
                float(binding["compaction_bw"] <= 50 * 1024 * 1024),
                1.0,
                1.0,
            ),
            ShapeCheck(
                "a cap with headroom is free",
                "~1x avg latency",
                headroom["avg"] / max(free["avg"], 1e-12),
                0.7,
                1.5,
            ),
            ShapeCheck(
                "an over-tight cap backs up writers (the SILK trade-off)",
                "stalls when compaction debt grows",
                binding["p99"] / max(free["p99"], 1e-12),
                0.8,
            ),
        ],
    )
