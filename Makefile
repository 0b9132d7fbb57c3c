# Convenience targets.  Everything runs offline against the in-repo sources
# (PYTHONPATH=src), so no install step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test bench perf lint check check-update-baseline sanitize smoke \
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

# The runtime smokes, one target.  Every "same bytes" gate is the one canned
# recipe below: run command $(3) with the shell variable $$out naming $(2) —
# an artifact to keep for CI, or a results/.smoke-* scratch file — run $(4)
# with $$out naming a scratch file, and require the two to be byte-identical.
define same-bytes
@out=$(strip $(2)); $(3)
@out=results/.smoke-rerun; $(4)
@cmp $(strip $(2)) results/.smoke-rerun && echo "smoke: $(1)" \
    || (echo "smoke: FAILED: $(1)" >&2; exit 1)
endef

QUICKSTART = $(PY) examples/quickstart.py --schedule-seed
FAULTBENCH = $(PY) -m repro.tools.faultbench --fault-seed 7
SERVE = $(PY) -m repro.tools.serve --ops 300 --rate 600000 --key-space 200 \
    --value-size 64 --partitions 8 --queue-cap 16 --dispatchers 2 --workers 2 \
    --cores 16
MONITOR = $(PY) -m repro.tools.monitor --scenario uniform --ops 400
YCSB_E = $(PY) -m repro.tools.ycsb --workload E --system p2kvs --workers 2 \
    --threads 1 --records 800 --ops 200
PROFILED_BENCH = $(PY) -m repro.tools.dbbench --benchmarks fillrandom \
    --system p2kvs --workers 2 --threads 4 --num 500 --cores 8 --seed 0

# * perturbation: the quickstart prints the same bytes for three same-time
#   shuffle seeds.
# * scan: YCSB-E (SCAN forked to both workers, merged) writes the same JSON
#   under a shuffled schedule.  One client and memtable-resident records,
#   because raw floats are compared: with block loads the tie order moves the
#   last ulp of the latency sums, and with several clients scans race inserts
#   (tests/test_golden.py gates the block-loading case under perturbation at
#   10 significant digits, and pins a 4-client run).
# * critical path / what-if (docs/CRITPATH.md): a pinned fillrandom run has a
#   non-empty blame table and speedup predictions within tolerance of the
#   measured re-runs; writes results/whatif-report.{txt,json}.
# * faults (docs/FAULTS.md): the crash/fault campaign passes every scenario
#   with zero oracle violations; writes results/faults-report.json.
# * serve (docs/SERVICE.md): 1-shard and 4-shard SLO reports are a pure
#   function of the flags; writes results/serve-report.{json,csv}.  The
#   4-shard run also completes with --stats and fault retries on together.
# * monitor (docs/MONITOR.md): a clean scenario raises zero page alerts, a
#   fault-injected run detects its fault with finite MTTD; writes
#   results/monitor-report.json and results/detection_report.json.
# * profile (docs/PROFILING.md): the zone tree attributes >= 90% of the
#   pinned run's wall time, the instrument tax table covers every layer, and
#   --profile leaves the sim report alone; writes results/profile-report.json,
#   results/profile-flame.speedscope.json and results/profile-tax.json.
smoke:
	$(call same-bytes,quickstart identical for schedule seeds 1 and 2,\
	    results/.smoke-quickstart,$(QUICKSTART) 1 > $$out,$(QUICKSTART) 2 > $$out)
	$(call same-bytes,quickstart identical for schedule seeds 1 and 3,\
	    results/.smoke-quickstart,$(QUICKSTART) 1 > $$out,$(QUICKSTART) 3 > $$out)
	$(call same-bytes,YCSB-E scan report identical under perturbation,\
	    results/.smoke-ycsb-e.json,\
	    $(YCSB_E) --json $$out > /dev/null,\
	    $(YCSB_E) --schedule-seed 7 --json $$out > /dev/null)
	$(PY) -m repro.tools.whatif --system p2kvs --workers 8 --threads 8 \
	    --device sata --value-size 4096 --num 2000 \
	    --experiments wal-write-0.8x,channels+1 --check \
	    --out results/whatif-report.txt --json results/whatif-report.json
	$(call same-bytes,fault campaign report identical across 2 runs,\
	    results/faults-report.json,$(FAULTBENCH) --out $$out,\
	    $(FAULTBENCH) --out $$out > /dev/null)
	$(call same-bytes,1-shard SLO report identical under perturbation,\
	    results/.smoke-serve-1shard.json,\
	    $(SERVE) --scenario uniform --shards 1 --json $$out > /dev/null,\
	    $(SERVE) --scenario uniform --shards 1 --schedule-seed 7 --json $$out > /dev/null)
	$(call same-bytes,4-shard SLO report identical under perturbation,\
	    results/serve-report.json,\
	    $(SERVE) --scenario hotkey --shards 4 --json $$out --csv results/serve-report.csv > /dev/null,\
	    $(SERVE) --scenario hotkey --shards 4 --schedule-seed 7 --json $$out > /dev/null)
	$(SERVE) --scenario hotkey --shards 4 --stats --stats-out results/.smoke-stats --fault-rate 0.05 > /dev/null
	$(call same-bytes,clean monitor document identical under perturbation,\
	    results/.smoke-monitor-clean.json,\
	    $(MONITOR) --expect-clean --json $$out > /dev/null,\
	    $(MONITOR) --expect-clean --schedule-seed 7 --json $$out > /dev/null)
	@$(MONITOR) --fault-rate 0.02 --json results/monitor-report.json \
	    --detection-out results/detection_report.json | tail -n 3
	@$(PY) -m repro.tools.profile --check-coverage 90 \
	    --json results/profile-report.json \
	    --flame-out results/profile-flame.speedscope.json | tail -n 2
	@$(PY) -m repro.tools.profile --tax --num 500 \
	    --tax-json results/profile-tax.json 2> /dev/null
	$(call same-bytes,sim report identical under --profile,\
	    results/.smoke-profile-plain.json,\
	    $(PROFILED_BENCH) --json $$out > /dev/null,\
	    $(PROFILED_BENCH) --profile --json $$out > /dev/null 2>&1)
	@rm -f results/.smoke-*

# What CI runs (see .github/workflows/ci.yml).  `check` subsumes `lint`.
ci: check test smoke perf

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
	rm -f trace-demo.json quickstart-trace.json
	rm -f stats-demo.json stats-demo.prom stats-demo.csv
	rm -f critpath-demo.json critpath-demo-trace.json
	rm -f results/whatif-report.txt results/whatif-report.json
	rm -f results/faults-report.json
	rm -f results/serve-report.json results/serve-report.csv
	rm -f results/monitor-report.json results/detection_report.json
	rm -f results/profile-report.json results/profile-flame.speedscope.json \
	    results/profile-tax.json
	rm -f results/check-report.sarif results/.smoke-*
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
