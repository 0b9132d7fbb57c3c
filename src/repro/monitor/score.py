"""Detection scoring: did the monitor notice the fault, and how fast?

The fault plane knows the ground truth — the sim time of the first
injected fault (:attr:`FaultPolicy.injection_times`) or of the crash
(:attr:`FaultPlane.crashed_at`).  Scoring matches that against the
monitor's incident timeline:

* **detected** — a page-severity alert fired at or after the injection;
* **MTTD** — sim-time delta from injection to that first page (the
  mean-time-to-detect the fault-campaign literature scores detectors by);
* **false positives** — pages fired with *no* injection behind them: on a
  clean run, every page; on a fault run, pages that fired before the
  first injection.

Everything here is post-hoc arithmetic over two deterministic records, so
a scored report is byte-identical across reruns and ``--schedule-seed``.
"""

from typing import List, Optional

__all__ = [
    "ground_truth_from_env",
    "render_narrative",
    "score_detection",
]


def ground_truth_from_env(env) -> Optional[dict]:
    """Extract the injection ground truth from an env's fault plane.

    Returns ``{"injected_at", "kind", "site"}`` for the *first* injected
    fault (policy injections and crashes compared in sim time), or None
    when the run was clean.
    """
    plane = getattr(env, "faults", None)
    if plane is None:
        return None
    candidates = []
    policy = plane.policy
    if policy is not None and policy.injection_times:
        candidates.append((policy.injection_times[0], "device-fault", None))
    if plane.crashed_at is not None:
        candidates.append((plane.crashed_at, "crash", plane.crash_site_name))
    if not candidates:
        return None
    at, kind, site = min(candidates)
    return {"injected_at": round(at, 9), "kind": kind, "site": site}


def score_detection(monitor, ground_truth: Optional[dict],
                    label: str = "") -> dict:
    """Score one monitored run against its ground truth (None = clean)."""
    pages = monitor.page_incidents()
    report = {
        "scenario": label,
        "ground_truth": ground_truth,
        "windows_observed": monitor.windows_observed,
        "window_s": round(monitor.window, 9),
        "alerts": monitor.alert_counts(),
    }
    if ground_truth is None:
        report["detected"] = None  # nothing to detect
        report["mttd_s"] = None
        report["detected_by"] = None
        report["false_positives"] = len(pages)
        return report
    injected_at = ground_truth["injected_at"]
    first = monitor.first_page_at(injected_at)
    report["false_positives"] = sum(
        1 for i in pages if i.fired_at < injected_at
    )
    if first is None:
        report["detected"] = False
        report["detected_by"] = None
        report["detected_at"] = None
        report["mttd_s"] = None
    else:
        report["detected"] = True
        report["detected_by"] = first.rule
        report["detected_at"] = round(first.fired_at, 9)
        report["mttd_s"] = round(first.fired_at - injected_at, 9)
    return report


def _fmt_t(t: Optional[float]) -> str:
    return "-" if t is None else "%.3f ms" % (t * 1e3)


def render_narrative(timeline: dict, detection: Optional[dict] = None) -> str:
    """A human-readable incident story from a monitor timeline dict."""
    lines = [
        "monitor: %d windows of %.3f ms (%d synthetic, %d dropped)" % (
            timeline["windows_observed"],
            timeline["window_s"] * 1e3,
            timeline["synthetic_windows"],
            timeline["dropped_windows"],
        )
    ]
    incidents = timeline["incidents"]
    if not incidents:
        lines.append("no incidents: all rules quiet over the whole run")
    for incident in incidents:
        state = (
            "resolved %s" % _fmt_t(incident["resolved_at"])
            if incident["resolved_at"] is not None
            else "unresolved"
        )
        tag = " [post-mortem]" if incident["synthetic"] else ""
        lines.append(
            "%-5s %-24s fired %s on %s (%s)%s" % (
                incident["severity"].upper(),
                incident["rule"],
                _fmt_t(incident["fired_at"]),
                incident["series"],
                state,
                tag,
            )
        )
        evidence = incident.get("evidence") or {}
        windows = evidence.get("windows")
        if windows:
            lines.append(
                "      evidence: " + ", ".join(
                    "%s->%s" % (_fmt_t(t), ("%g" % v)) for t, v in windows[-4:]
                )
            )
    if detection is not None:
        truth = detection.get("ground_truth")
        if truth is None:
            lines.append(
                "clean run: %d false positive page(s)"
                % detection["false_positives"]
            )
        elif detection["detected"]:
            lines.append(
                "detection: %s fault at %s detected by %s at %s (MTTD %s)" % (
                    truth["kind"],
                    _fmt_t(truth["injected_at"]),
                    detection["detected_by"],
                    _fmt_t(detection["detected_at"]),
                    _fmt_t(detection["mttd_s"]),
                )
            )
        else:
            lines.append(
                "detection: %s fault at %s was NOT detected" % (
                    truth["kind"], _fmt_t(truth["injected_at"]),
                )
            )
    return "\n".join(lines)
