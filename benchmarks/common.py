"""Shared plumbing for the benchmark suite.

Every ``bench_figXX`` module regenerates one table or figure of the paper:
it runs the scaled experiment, prints the same rows/series the paper shows,
writes the output to ``results/<name>.txt``, and asserts the paper's
qualitative shape (who wins, roughly by what factor) claim by claim: the
paper's stated numbers live in one table, ``repro.harness.paper``, which a
figure's ``ShapeCheck``s name by key.

Run with::

    pytest benchmarks/ --benchmark-only    # or: make figures (also diffs results/)

Every case of every figure goes through :func:`run_case`: a registry name
(``repro.systems``) plus options, an op stream and a client count in, the
measured window's ``Metrics`` and the machine out.  No figure assembles a
system or a measuring window itself; a figure's module holds only its sweep,
its op streams and its table.  ``run_case`` is therefore also the one seam
where ROADMAP item 2's dataset images slot in: it alone sees the whole key
of a preload — (system, options, preload stream) — so "restore the image
instead of replaying the preload" is a change to its ``preload`` step, not
to twenty figures.

Absolute numbers are simulated quantities at scaled-down data sizes; see
EXPERIMENTS.md for the paper-vs-measured record.
"""

import os
from itertools import islice
from typing import List

from repro.engine import make_env
from repro.harness import run_closed_loop, run_open_loop
from repro.harness.metrics import scoped_collector
from repro.harness.paper import CLAIMS
from repro.harness.report import ShapeCheck, format_table
from repro.systems import describe_options, open_system
from repro.workloads import split_stream

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: scaled-down stand-ins for the paper's op counts.
SMALL = 4000
MEDIUM = 12000
LARGE = 32000

#: dataset size for read experiments (paper: 100M keys).
READ_KEYS = 24000

#: 16-byte keys + 112-byte values = the paper's 128-byte KV pairs.
VALUE_SIZE = 112

#: what the figure suite lays over ``repro.systems.BENCH_SHAPE`` on every
#: LSM-backed system: a block cache scaled with the datasets above (the
#: registry's own default is ``EngineOptions``' 8 MiB, which would hold them).
FIGURE_ENGINE = {"block_cache_bytes": 512 * 1024}


def open_case(kind: str, *, env=None, engine=None, **system_opts):
    """Open registry system ``kind`` the way every figure does; returns
    ``(system, env)``.  ``env`` defaults to the paper's 44-core machine and
    ``engine`` (``EngineOptions`` fields) goes on top of :data:`FIGURE_ENGINE`."""
    if env is None:
        env = make_env(n_cores=44)
    if engine is not None or "engine" in describe_options(kind):
        system_opts["engine"] = {**FIGURE_ENGINE, **(engine or {})}
    return open_system(kind, env, **system_opts), env


def run_case(kind, ops, threads, *, env=None, preload=None, preload_threads=8,
             engine=None, rate=None, pin_users=False, **system_opts):
    """One case of one figure; returns ``(Metrics, env)``.

    ``kind`` is a registry name opened through :func:`open_case` with
    ``engine``/``system_opts``, or — for the few figures that must touch the
    system itself — one already opened on ``env``.  ``preload`` ops are loaded
    unmeasured by ``preload_threads`` clients; then ``ops`` run round-robin
    over ``threads`` closed-loop clients, or as open-loop Poisson arrivals at
    ``rate`` ops/s.  Each window holds the env's measuring slot through
    ``scoped_collector``, so a case that raises leaves the env usable.
    """
    system = kind
    if isinstance(kind, str):
        system, env = open_case(kind, env=env, engine=engine, **system_opts)
    elif env is None or engine is not None or system_opts:
        raise TypeError("an opened system comes with its env and takes no options")

    def window(drive, *args, **kwargs):
        with scoped_collector(env, system.name) as collector:
            return drive(env, system, *args, collector=collector, **kwargs)

    if preload is not None:
        window(run_closed_loop, split_stream(preload, preload_threads), measure=False)
    if rate is not None:
        return window(run_open_loop, list(ops), rate), env
    return window(run_closed_loop, split_stream(ops, threads), pin_users=pin_users), env


def run_ycsb(kind, workload, n_ops, threads, **case_opts):
    """A YCSB cell: LOAD measures the first ``n_ops`` inserts of the load
    phase itself; every other mix runs ``n_ops`` over the preloaded records."""
    if workload.spec.name == "LOAD":
        return run_case(kind, islice(workload.load_ops(), n_ops), threads, **case_opts)
    return run_case(
        kind, workload.ops(n_ops), threads, preload=workload.load_ops(), **case_opts
    )


def report(name: str, text: str) -> None:
    """Print the figure's table and persist it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s.txt" % name), "w") as f:
        f.write(text + "\n")


def assert_shapes(name: str, checks: List[ShapeCheck], env=None) -> None:
    """Record shape checks and fail the bench if a claim's band is missed.

    ``checks`` must check exactly the claims ``repro.harness.paper`` lists
    for figure ``name``, each once: a key the table lacks for it, or a row
    of it left unchecked, fails before anything is written.

    When ``env`` is given, the registry's write-stall / compaction-backlog
    event summary is appended to ``results/<name>.checks.txt`` so backpressure
    behind a shape miss is visible next to the verdicts.
    """
    checked = sorted(c.claim for c in checks)
    listed = sorted(key for key, claim in CLAIMS.items() if claim.figure == name)
    if checked != listed:
        raise ValueError(
            "%s checks %s; the claims table lists %s" % (name, checked, listed)
        )
    table = format_table(
        ["shape check", "paper", "measured", "accept band", "verdict"],
        [c.row() for c in checks],
    )
    text = table + "\n"
    if env is not None:
        summary = env.metrics.events.summary()
        lines = ["", "observability events:"]
        if summary:
            for kind in sorted(summary):
                row = summary[kind]
                lines.append(
                    "  %s: count=%d total=%.3f ms active=%d"
                    % (kind, row["count"], row["total_seconds"] * 1e3, row["active"])
                )
        else:
            lines.append("  (none recorded)")
        text += "\n".join(lines) + "\n"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s.checks.txt" % name), "w") as f:
        f.write(text)
    print()
    print(text)
    missed = [c.claim for c in checks if not c.ok]
    assert not missed, "shape checks missed: %s" % missed


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
