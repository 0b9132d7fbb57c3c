"""Figure 4: IO bandwidth and CPU utilization of one continuously-inserting
user thread, at 128-byte and 1 KB KV sizes.

The paper's point: small-KV writes saturate the user's CPU core while using
a sliver of SSD bandwidth; large-KV writes shift the load to compaction IO.
"""

from benchmarks.common import assert_shapes, once, report, run_case
from repro.engine import make_env
from repro.harness.report import ShapeCheck, format_table
from repro.harness.timeline import render_stacked
from repro.workloads import fillrandom, fillseq

N_OPS_SMALL = 10000
N_OPS_LARGE = 4000


def run_writer(value_size: int, sequential: bool):
    n_ops = N_OPS_SMALL if value_size <= 128 else N_OPS_LARGE
    ops = fillseq(n_ops, value_size) if sequential else fillrandom(n_ops, value_size)
    metrics, env = run_case(
        "rocksdb", ops, 1, env=make_env(n_cores=44, series_bin=0.002)
    )
    user_busy = metrics.cpu_busy_by_kind.get("user", 0.0) / metrics.elapsed
    bg_busy = metrics.cpu_busy_by_kind.get("background", 0.0) / metrics.elapsed
    compaction_share = (
        metrics.device_bytes.get("compaction", 0.0)
        + metrics.device_bytes.get("flush", 0.0)
    ) / max(1.0, metrics.device_read_bytes + metrics.device_write_bytes)
    timeline = render_stacked(
        {
            label: env.device.bandwidth_series[label].rates()
            for label in ("wal", "flush", "compaction")
            if label in env.device.bandwidth_series
        }
    )
    return {
        "qps": metrics.qps,
        "bw_util": metrics.bandwidth_utilization,
        "user_cpu": user_busy,
        "bg_cpu": bg_busy,
        "compaction_share": compaction_share,
        "timeline": timeline,
    }


def run_fig04():
    return {
        ("128B", "seq"): run_writer(112, True),
        ("128B", "rand"): run_writer(112, False),
        ("1KB", "rand"): run_writer(1008, False),
    }


def test_fig04_single_thread_utilization(benchmark):
    out = once(benchmark, run_fig04)
    rows = [
        [
            "%s %s" % key,
            "%.0f KQPS" % (r["qps"] / 1e3),
            "%.1f%%" % (100 * r["bw_util"]),
            "%.0f%%" % (100 * r["user_cpu"]),
            "%.0f%%" % (100 * r["bg_cpu"]),
            "%.0f%%" % (100 * r["compaction_share"]),
        ]
        for key, r in out.items()
    ]
    timelines = "\n\n".join(
        "IO bandwidth over time — %s %s\n%s" % (key[0], key[1], r["timeline"])
        for key, r in out.items()
    )
    report(
        "fig04",
        "Figure 4: one user thread inserting continuously\n"
        + format_table(
            ["case", "QPS", "IO bw util", "user-thread CPU", "background CPU", "flush+compaction IO share"],
            rows,
        )
        + "\n\n"
        + timelines,
    )
    small = out[("128B", "rand")]
    large = out[("1KB", "rand")]
    assert_shapes(
        "fig04",
        [
            ShapeCheck(
                "128B writer pegs its core", "100%", small["user_cpu"], 0.8, 1.1
            ),
            ShapeCheck(
                "128B writer underuses SSD bandwidth",
                "~1/6 of BW",
                small["bw_util"],
                0.0,
                0.35,
            ),
            ShapeCheck(
                "1KB writer is not CPU-pegged",
                "~70% core",
                large["user_cpu"],
                0.3,
                0.95,
            ),
            ShapeCheck(
                "1KB case moves more bandwidth than 128B",
                ">1x",
                large["bw_util"] / max(small["bw_util"], 1e-9),
                1.3,
            ),
        ],
    )
