# Convenience targets.  Everything runs offline against the in-repo sources
# (PYTHONPATH=src), so no install step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test bench perf lint check \
	check-update-baseline sanitize perturb-smoke critpath-smoke \
	faults-smoke serve-smoke monitor-smoke profile-smoke \
	ci trace-demo stats-demo critpath-demo whatif-demo clean

test:
	$(PY) -m pytest -x -q

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# The repository's benchmark checks itself (~20 s): contract schema, every
# metric present with its unit, `--compare X X` all same, a slowed copy
# flagged worse.  `python3 -m perfbench` is the measurement itself and
# `--compare parent.json change.json` the gate; see perfbench/README.md.
perf:
	$(PY) -m perfbench --selftest

# Determinism lint only: the per-module AST rules (wall clocks, global RNGs,
# unordered iteration, lock pairing, condvar discipline).  Delegates to the
# unified pipeline; `make check` runs this plus the whole-program flow
# checkers.  See docs/ANALYSIS.md.
lint:
	$(PY) -m repro.tools.lint src

# The full static analysis: lint + the interprocedural flow checkers (lock
# discipline, determinism taint, status contract) over the project call
# graph.  Fails on any finding not fixed, suppressed inline, or recorded in
# analysis-baseline.json; writes a SARIF report for code-scanning UIs.
check:
	$(PY) -m repro.tools.check src --sarif results/check-report.sarif

# Regrandfather the current findings (after triage) into the baseline.
check-update-baseline:
	$(PY) -m repro.tools.check src --update-baseline

# The full test suite with lock-order + data-race sanitizers attached to
# every Simulator (slower; any finding fails the test).
sanitize:
	$(PY) -m pytest -q --sanitize

# Schedule-perturbation smoke: the quickstart must print byte-identical
# output for three different same-time shuffle seeds.
perturb-smoke:
	@$(PY) examples/quickstart.py --schedule-seed 1 > .perturb-1.out
	@$(PY) examples/quickstart.py --schedule-seed 2 > .perturb-2.out
	@$(PY) examples/quickstart.py --schedule-seed 3 > .perturb-3.out
	@cmp .perturb-1.out .perturb-2.out && cmp .perturb-1.out .perturb-3.out \
	    && echo "perturb-smoke: identical output across 3 schedule seeds" \
	    || (echo "perturb-smoke: outputs differ across seeds" >&2; exit 1)
	@rm -f .perturb-1.out .perturb-2.out .perturb-3.out

# Critical-path / what-if smoke: a pinned fillrandom run must produce a
# non-empty blame table and speedup predictions within tolerance of the
# measured re-runs (see docs/CRITPATH.md).  Writes
# results/whatif-report.{txt,json}.
critpath-smoke:
	$(PY) -m repro.tools.whatif --system p2kvs --workers 8 --threads 8 \
	    --device sata --value-size 4096 --num 2000 \
	    --experiments wal-write-0.8x,channels+1 --check \
	    --out results/whatif-report.txt --json results/whatif-report.json

# Fault-injection smoke: the crash/fault campaign must pass every scenario
# with zero oracle violations, and the report must be byte-identical across
# two runs with the same --fault-seed.  Writes results/faults-report.json
# (kept for the CI artifact).  See docs/FAULTS.md.
faults-smoke:
	@$(PY) -m repro.tools.faultbench --fault-seed 7 \
	    --out results/faults-report.json
	@$(PY) -m repro.tools.faultbench --fault-seed 7 \
	    --out results/.faults-rerun.json > /dev/null
	@cmp results/faults-report.json results/.faults-rerun.json \
	    && echo "faults-smoke: byte-identical report across 2 runs" \
	    || (echo "faults-smoke: reports differ across reruns" >&2; exit 1)
	@rm -f results/.faults-rerun.json

# Service-plane smoke: a 1-shard and a 4-shard scenario must produce
# byte-identical SLO reports across a schedule-perturbed rerun (the report
# is a pure function of the flags; see docs/SERVICE.md).  Writes
# results/serve-report.{json,csv} (kept for the CI artifact).
SERVE_SMOKE_ARGS = --ops 300 --rate 600000 --key-space 200 --value-size 64 \
    --partitions 8 --queue-cap 16 --dispatchers 2 --workers 2 --cores 16

serve-smoke:
	@$(PY) -m repro.tools.serve --scenario uniform --shards 1 \
	    $(SERVE_SMOKE_ARGS) --json results/.serve-1shard.json > /dev/null
	@$(PY) -m repro.tools.serve --scenario uniform --shards 1 \
	    $(SERVE_SMOKE_ARGS) --schedule-seed 7 \
	    --json results/.serve-1shard-rerun.json > /dev/null
	@cmp results/.serve-1shard.json results/.serve-1shard-rerun.json \
	    && echo "serve-smoke: 1-shard report identical under perturbation" \
	    || (echo "serve-smoke: 1-shard reports differ" >&2; exit 1)
	@$(PY) -m repro.tools.serve --scenario hotkey --shards 4 \
	    $(SERVE_SMOKE_ARGS) --json results/serve-report.json \
	    --csv results/serve-report.csv > /dev/null
	@$(PY) -m repro.tools.serve --scenario hotkey --shards 4 \
	    $(SERVE_SMOKE_ARGS) --schedule-seed 7 \
	    --json results/.serve-rerun.json > /dev/null
	@cmp results/serve-report.json results/.serve-rerun.json \
	    && echo "serve-smoke: 4-shard report identical under perturbation" \
	    || (echo "serve-smoke: 4-shard reports differ" >&2; exit 1)
	@rm -f results/.serve-1shard.json results/.serve-1shard-rerun.json \
	    results/.serve-rerun.json

# Health-monitor smoke (docs/MONITOR.md): a clean monitored scenario must
# raise zero page alerts and produce a byte-identical monitor document
# under schedule perturbation; a fault-injected run must detect its fault
# with finite MTTD.  Writes results/monitor-report.json and
# results/detection_report.json (kept for the CI artifact).
MONITOR_SMOKE_ARGS = --scenario uniform --ops 400

monitor-smoke:
	@$(PY) -m repro.tools.monitor $(MONITOR_SMOKE_ARGS) --expect-clean \
	    --json results/.monitor-clean.json > /dev/null
	@$(PY) -m repro.tools.monitor $(MONITOR_SMOKE_ARGS) --expect-clean \
	    --schedule-seed 7 --json results/.monitor-rerun.json > /dev/null
	@cmp results/.monitor-clean.json results/.monitor-rerun.json \
	    && echo "monitor-smoke: clean document identical under perturbation" \
	    || (echo "monitor-smoke: documents differ across seeds" >&2; exit 1)
	@$(PY) -m repro.tools.monitor $(MONITOR_SMOKE_ARGS) --fault-rate 0.02 \
	    --json results/monitor-report.json \
	    --detection-out results/detection_report.json \
	    | tail -n 3
	@rm -f results/.monitor-clean.json results/.monitor-rerun.json

# Host-profiling smoke (docs/PROFILING.md): the zone tree must attribute
# >= 90% of the pinned run's wall time (writes results/profile-report.json
# and a speedscope flamegraph, kept for the CI artifact); the instrument
# tax table must cover every layer; and a --profile'd benchmark must
# produce a byte-identical sim report to an unprofiled one.
PROFILE_SMOKE_BENCH = --benchmarks fillrandom --system p2kvs --workers 2 \
    --threads 4 --num 500 --cores 8 --seed 0

profile-smoke:
	@$(PY) -m repro.tools.profile --check-coverage 90 \
	    --json results/profile-report.json \
	    --flame-out results/profile-flame.speedscope.json \
	    | tail -n 2
	@$(PY) -m repro.tools.profile --tax --num 500 \
	    --tax-json results/profile-tax.json 2> /dev/null
	@$(PY) -m repro.tools.dbbench $(PROFILE_SMOKE_BENCH) \
	    --json results/.profile-plain.json > /dev/null
	@$(PY) -m repro.tools.dbbench $(PROFILE_SMOKE_BENCH) --profile \
	    --json results/.profile-profiled.json > /dev/null 2>&1
	@cmp results/.profile-plain.json results/.profile-profiled.json \
	    && echo "profile-smoke: sim report byte-identical under --profile" \
	    || (echo "profile-smoke: --profile changed the sim report" >&2; exit 1)
	@rm -f results/.profile-plain.json results/.profile-profiled.json

# What CI runs (see .github/workflows/ci.yml).  `check` subsumes `lint`.
ci: check test perturb-smoke critpath-smoke faults-smoke serve-smoke \
	monitor-smoke profile-smoke perf

# Record a request-level trace of a small p2KVS fillrandom run and print the
# span-derived Figure 6 latency attribution.  Open trace-demo.json in
# https://ui.perfetto.dev — the guided tour is in docs/TRACING.md.
trace-demo:
	$(PY) -m repro.tools.dbbench --system p2kvs --workers 4 --threads 8 \
	    --cores 16 --benchmarks fillrandom --num 5000 \
	    --trace-out trace-demo.json

# Run YCSB-A with the observability layer on: prints the stall/utilization
# timeline and writes stats-demo.{json,prom,csv}.  See docs/METRICS.md.
stats-demo:
	$(PY) -m repro.tools.ycsb --workload A --system p2kvs --workers 8 \
	    --threads 16 --records 8000 --ops 8000 \
	    --stats --stats-interval-ms 0.1 --stats-out stats-demo

# Fillrandom with the edge log on: prints the critical-path blame ranking,
# writes critpath-demo.json (the full report) and critpath-demo-trace.json
# (Chrome trace with the makespan path as a track + flow arrows).
critpath-demo:
	$(PY) -m repro.tools.dbbench --system p2kvs --workers 4 --threads 8 \
	    --cores 16 --benchmarks fillrandom --num 5000 \
	    --critpath --critpath-out critpath-demo \
	    --trace-out critpath-demo-trace.json

# Predicted vs. measured virtual speedups on the pinned workload.
whatif-demo:
	$(PY) -m repro.tools.whatif --system p2kvs --workers 8 --threads 8 \
	    --device sata --value-size 4096 --num 2000 \
	    --experiments wal-write-0.8x,wal-write-0.5x,channels+1

clean:
	rm -f trace-demo.json quickstart-trace.json .perturb-*.out
	rm -f stats-demo.json stats-demo.prom stats-demo.csv
	rm -f critpath-demo.json critpath-demo-trace.json
	rm -f results/whatif-report.txt results/whatif-report.json
	rm -f results/faults-report.json results/.faults-rerun.json
	rm -f results/serve-report.json results/serve-report.csv \
	    results/.serve-*.json
	rm -f results/monitor-report.json results/detection_report.json \
	    results/.monitor-*.json
	rm -f results/check-report.sarif
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
