"""Critical-path extraction and causal what-if profiling.

The third observability layer: PR 1's tracer records *what happened*
(spans), PR 3's metrics record *how much* (counters/histograms); this
package answers *what mattered* — which waits actually gated each request's
completion, and what a targeted speedup would buy.

Usage::

    from repro.critpath import install_edgelog, critpath_report

    env = make_env(n_cores=16)
    tracer = install_tracer(env)      # request spans mark arrival/completion
    edgelog = install_edgelog(env)    # wakeup edges explain every resume
    ...run the workload, noting the measured window (t0, t1)...
    report = critpath_report(edgelog, tracer, (t0, t1))

Both hooks are opt-in and zero-overhead when absent; recording never
advances simulated time, so instrumented and bare runs produce identical
results (asserted in ``tests/test_metrics.py``).  See ``docs/CRITPATH.md``.
"""

from repro.critpath.edgelog import Edge, EdgeLog
from repro.critpath.extract import (
    CriticalPath,
    Segment,
    aggregate_blame,
    critpath_report,
    makespan_path,
    path_trace_extras,
    request_paths,
    walk_back,
)
from repro.critpath.whatif import (
    EXPERIMENTS,
    Experiment,
    check_prediction,
    predicted_delta,
    predicted_saving,
)
from repro.trace.attribution import fig06_from_blame

__all__ = [
    "EXPERIMENTS",
    "CriticalPath",
    "Edge",
    "EdgeLog",
    "Experiment",
    "Segment",
    "aggregate_blame",
    "check_prediction",
    "critpath_report",
    "fig06_from_blame",
    "install_edgelog",
    "makespan_path",
    "path_trace_extras",
    "predicted_delta",
    "predicted_saving",
    "request_paths",
    "uninstall_edgelog",
    "walk_back",
]


def install_edgelog(target, max_records: int = 4_000_000) -> EdgeLog:
    """Attach a live :class:`EdgeLog` to an Env or Simulator and return it.

    Call *before* opening the system under test so worker spawns and early
    track bindings are recorded.
    """
    sim = getattr(target, "sim", target)
    edgelog = EdgeLog(sim, max_records=max_records)
    sim.edgelog = edgelog
    return edgelog


def uninstall_edgelog(target) -> None:
    """Restore the zero-overhead default (no recording)."""
    sim = getattr(target, "sim", target)
    sim.edgelog = None
