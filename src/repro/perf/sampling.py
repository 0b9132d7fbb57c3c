"""Stack sampling for host flamegraphs (collapsed stacks + speedscope).

Python has no signal-safe in-process sampler, so this rides
``sys.setprofile``: the hook fires on every call/return, and whenever at
least ``interval_us`` of wall time has passed since the last sample it
captures the current stack and charges it the elapsed interval.  That makes
it a *wall-time-weighted* sampler with call-boundary resolution — accurate
enough to rank the simulator's hot paths, at roughly 2-4x slowdown while
attached (never attach it to a run whose wall numbers you intend to keep;
the zone profiler is the low-overhead instrument).

Exports:

* :meth:`StackSampler.collapsed` — Brendan-Gregg collapsed-stack lines
  (``a;b;c <weight_us>``), ready for ``flamegraph.pl`` or speedscope's
  importer;
* :meth:`StackSampler.speedscope` — a ``sampled``-type speedscope JSON
  document (https://www.speedscope.app), loadable directly in the browser.

Sampling never touches simulation state; the hook reads frames and clocks
only, so a sampled run stays byte-identical to an unsampled one.
"""

import sys
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

__all__ = ["StackSampler"]

#: frames kept per sampled stack (root side first).
MAX_DEPTH = 80

#: (function name, filename, first line) — one flamegraph frame.
Frame = Tuple[str, str, int]


class StackSampler:
    """Wall-time stack sampler over a ``sys.setprofile`` hook."""

    def __init__(self, interval_us: float = 250.0):
        self.interval_ns = max(1, int(interval_us * 1000))
        #: stack (root..leaf tuple of Frames) -> accumulated weight in ns.
        self.samples: Dict[Tuple[Frame, ...], int] = {}
        self.n_samples = 0
        self._last = 0
        self._prev_hook = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._last = perf_counter_ns()
        self._prev_hook = sys.getprofile()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(self._prev_hook)
        self._prev_hook = None

    # -- hook ------------------------------------------------------------

    def _hook(self, frame, event: str, arg) -> None:
        now = perf_counter_ns()
        elapsed = now - self._last
        if elapsed < self.interval_ns:
            return
        self._last = now
        stack: List[Frame] = []
        depth = 0
        while frame is not None and depth < MAX_DEPTH:
            code = frame.f_code
            if code.co_filename != __file__:  # skip the sampler's own frame
                stack.append(
                    (code.co_name, code.co_filename, code.co_firstlineno)
                )
                depth += 1
            frame = frame.f_back
        key = tuple(reversed(stack))
        self.samples[key] = self.samples.get(key, 0) + elapsed
        self.n_samples += 1

    # -- exports ---------------------------------------------------------

    @staticmethod
    def _frame_label(frame: Frame) -> str:
        name, filename, _line = frame
        # Compress absolute paths to the repo-relative tail for readability.
        for marker in ("/src/", "/lib/"):
            idx = filename.rfind(marker)
            if idx >= 0:
                filename = filename[idx + len(marker):]
                break
        return "%s (%s)" % (name, filename)

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``frame;frame;... weight_us`` per line."""
        lines = []
        for stack, weight_ns in sorted(self.samples.items()):
            label = ";".join(self._frame_label(f) for f in stack) or "(toplevel)"
            lines.append("%s %d" % (label, max(1, weight_ns // 1000)))
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro.perf") -> dict:
        """A speedscope ``sampled`` profile document (weights in ns)."""
        frame_index: Dict[Frame, int] = {}
        frames: List[dict] = []
        samples: List[List[int]] = []
        weights: List[int] = []
        for stack, weight_ns in sorted(self.samples.items()):
            row = []
            for frame in stack:
                idx = frame_index.get(frame)
                if idx is None:
                    idx = frame_index[frame] = len(frames)
                    frames.append(
                        {
                            "name": frame[0],
                            "file": frame[1],
                            "line": frame[2],
                        }
                    )
                row.append(idx)
            samples.append(row)
            weights.append(weight_ns)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "exporter": "repro.perf",
            "name": name,
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "nanoseconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }
