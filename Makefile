# Convenience targets.  Everything runs offline against the in-repo sources
# (PYTHONPATH=src), so no install step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test bench figures perf ab check sanitize smoke ci \
	trace-demo stats-demo critpath-demo whatif-demo clean

test:
	$(PY) -m pytest -x -q

# The 24 benchmarks/bench_*.py files are independent (each writes only its own
# results/<name>.txt and .checks.txt), so they run nproc at a time, one pytest
# per file (without the cache provider: they would race on .pytest_cache);
# xargs exits non-zero if any of them fails.  The serial suite is one
# `pytest benchmarks/ --benchmark-only`.
bench:
	@ls benchmarks/bench_*.py \
	    | xargs -P $$(nproc) -n 1 $(PY) -m pytest --benchmark-only -q -p no:cacheprovider

# The figure gate (~6 min of CPU over nproc processes): regenerate every
# results/*.txt through benchmarks/common.run_case and require the committed
# files back, byte for byte.  The suite is deterministic, so a file that moves
# is a simulated-result change: commit the refreshed file with the PR that
# explains it.
figures: bench
	@git diff --exit-code --stat -- results/ \
	    && echo "figures: results/ regenerated byte-identical" \
	    || (echo "figures: FAILED: the results/ files above moved" >&2; exit 1)

# The repository's benchmark checks itself (~20 s): contract schema, every
# metric present with its unit, `--compare X X` all same, a slowed copy
# flagged worse.  `python3 -m perfbench` is the measurement itself and
# `--compare parent.json change.json` the gate; see perfbench/README.md.
perf:
	$(PY) -m perfbench --selftest

# The interleaved A/B every perf claim rests on (perfbench/README.md, "Noise
# hygiene": never beside another run).  PAIRS runs of one workload on this
# tree and on BASE (a `git archive` of it unpacked under .ab/base), each pair on
# its own seed, the side that goes first alternating so host drift cancels.
# Prints every pair, then per side the median and quartiles, the pairs won
# and the base's inter-quartile range — the bar a claimed gain has to clear.
# Each run's detail document (perfbench/out/<workload>.run.json) is kept beside
# its result, and the summary names every exact (simulated) value that differs
# between the two runs of a pair: a pair runs one seed, so any is drift.
# WORKLOAD may name several (WORKLOAD="read ycsb-a scan"): their pairs run one
# workload after another, each summary printed under the workload's name.
# BASE defaults to HEAD (what do my uncommitted changes do); a committed
# change compares with BASE=HEAD~1.
WORKLOAD ?= fill
PAIRS ?= 10
BASE ?= HEAD
define AB_SUMMARY
import json, statistics, sys
pairs = int(sys.argv[1])
load = lambda side, i: json.load(open(".ab/%s.%d.json" % (side, i)))["metrics"]
runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}
for name, better in (("host_ops_per_s", 1), ("setup_s", -1), ("peak_rss_mb", -1)):
    a, b = ([m[name]["value"] for m in runs[side]] for side in ("base", "change"))
    if name == "host_ops_per_s":
        for i, (x, y) in enumerate(zip(a, b), 1):
            print("pair %2d  base %9.1f  change %9.1f  %+6.1f%%" % (i, x, y, 100 * (y / x - 1)))
    qa, qb = (statistics.quantiles(v, n=4) if pairs > 1 else v * 3 for v in (a, b))
    won = sum((y - x) * better > 0 for x, y in zip(a, b))
    print("%-15s base %.5g (q1 %.5g, q3 %.5g)  change %.5g (q1 %.5g, q3 %.5g)  %+.1f%%, change better in %d/%d, base IQR %.3g"
          % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100 * (qb[1] / qa[1] - 1), won, pairs, qa[2] - qa[0]))
exact = lambda side, i: json.load(open(".ab/%s.%d.run.json" % (side, i)))["exact"]
changed = set()
for i in range(1, pairs + 1):
    a, b = exact("base", i), exact("change", i)
    changed.update(key for key in set(a) | set(b) if a.get(key) != b.get(key))
print("exact values changed within a pair: " + ", ".join(sorted(changed)) if changed
      else "no exact (simulated) value changed")
endef
export AB_SUMMARY
ab:
	@rm -rf .ab && mkdir -p .ab/base && git archive $(BASE) | tar -x -C .ab/base
	@for w in $(WORKLOAD); do \
	    [ $(words $(WORKLOAD)) = 1 ] || echo "== $$w"; \
	    for i in $$(seq 1 $(PAIRS)); do \
	        if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
	        for side in $$order; do \
	            if [ $$side = base ]; then dir=.ab/base; else dir=.; fi; \
	            (cd $$dir && $(PY) -m perfbench --workload $$w --seed $$((100 + i)) --trace 0 \
	                | tail -n 1) > .ab/$$side.$$i.json || exit 1; \
	            cp $$dir/perfbench/out/$$w.run.json .ab/$$side.$$i.run.json || exit 1; \
	        done; \
	    done; \
	    $(PY) -c "$$AB_SUMMARY" $(PAIRS) || exit 1; \
	done
	@rm -rf .ab

# Static analysis: the determinism lint rules (wall clocks, global RNGs,
# unordered iteration, lock and condvar discipline, metrics and wakeup
# hygiene, the crash/retry error contract).  Fails on any finding not fixed
# or suppressed inline.  See docs/ANALYSIS.md.
check:
	$(PY) -m repro.tools.check src

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
MONITOR = $(PY) -m repro.tools.serve --ops 400
YCSB_E = $(PY) -m repro.tools.ycsb --workload E --system p2kvs --workers 2 \
    --threads 1 --records 800 --ops 200
PROFILED_BENCH = $(PY) -m repro.tools.dbbench --benchmarks fillrandom \
    --system p2kvs --workers 2 --threads 4 --num 500 --cores 8 --seed 0

# * perturbation: the quickstart prints the same bytes for three same-time
#   shuffle seeds.
# * bottleneck example: examples/bottleneck_analysis.py (Figures 5a and 6 for
#   1-32 RocksDB writers, ~5 s, too slow for tests/test_examples.py) runs clean.
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
# * serve (docs/SERVICE.md): 1-shard, 4-shard and mid-run-migration SLO
#   reports are a pure function of the flags; writes
#   results/serve-report.{json,csv}.  The 4-shard run also completes with
#   --stats, --monitor and fault retries on together (both periodic observers
#   bracketed in one window).
# * monitor (docs/MONITOR.md): under `serve --monitor` a clean scenario raises
#   zero page alerts and writes the same document under a shuffled schedule —
#   uniform (no incident) and hotkey (a shed-burn warning, so the evidence
#   rows are gated too) — and a fault-injected run detects its fault with
#   finite MTTD; writes results/monitor-report.json (its `detection` key is
#   the scorecard).
# * profile (docs/PROFILING.md): the zone tree attributes >= 90% of the
#   pinned run's wall time, the instrument tax table covers every layer, and
#   --profile leaves the sim report alone; writes results/profile-report.json,
#   results/profile-flame.speedscope.json and results/profile-tax.json.
# * tax gate (TAX_GATE below): no observer but the sanitizer (a vector clock
#   per process and a record per tracked access, by design) holds more than
#   50 GC-tracked objects per 1 000 ops above the unobserved run, and no layer
#   makes more Python calls per op above it than its budget in CALL_BUDGET
#   (the table's counted 1 000-op pass) — counts, so the gate means the same
#   on any host.
define TAX_GATE
import json
CALL_BUDGET = {"trace": 21, "metrics": 1, "sanitize": 105, "critpath": 26, "monitor": 1}
rows = {row["layer"]: row for row in json.load(open("results/profile-tax.json"))["layers"]}
off = rows["off"]
over = ["%s %+.1f tracked/kop" % (layer, row["tracked_per_kop"] - off["tracked_per_kop"])
        for layer, row in rows.items()
        if layer not in ("off", "sanitize") and row["tracked_per_kop"] > off["tracked_per_kop"] + 50]
over += ["%s %+.1f calls/op (budget %d)" % (layer, row["calls_per_op"] - off["calls_per_op"], CALL_BUDGET[layer])
         for layer, row in rows.items()
         if layer != "off" and row["calls_per_op"] > off["calls_per_op"] + CALL_BUDGET[layer]]
print("smoke: tax gate: " + ("FAILED: above off: " + ", ".join(over) if over
                             else "every observer but sanitize within off + 50 tracked/kop, "
                                  "every layer within its calls/op budget"))
raise SystemExit(1 if over else 0)
endef
export TAX_GATE
smoke:
	$(call same-bytes,quickstart identical for schedule seeds 1 and 2,\
	    results/.smoke-quickstart,$(QUICKSTART) 1 > $$out,$(QUICKSTART) 2 > $$out)
	$(call same-bytes,quickstart identical for schedule seeds 1 and 3,\
	    results/.smoke-quickstart,$(QUICKSTART) 1 > $$out,$(QUICKSTART) 3 > $$out)
	@$(PY) examples/bottleneck_analysis.py > /dev/null \
	    && echo "smoke: bottleneck analysis example runs clean"
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
	$(call same-bytes,migration SLO report identical under perturbation,\
	    results/.smoke-serve-migration.json,\
	    $(SERVE) --scenario migration --shards 4 --json $$out > /dev/null,\
	    $(SERVE) --scenario migration --shards 4 --schedule-seed 7 --json $$out > /dev/null)
	$(SERVE) --scenario hotkey --shards 4 --stats --stats-out results/.smoke-stats --fault-rate 0.05 \
	    --monitor > /dev/null
	$(call same-bytes,clean monitor document identical under perturbation,\
	    results/.smoke-monitor-clean.json,\
	    $(MONITOR) --scenario uniform --expect-clean --monitor-out $$out > /dev/null,\
	    $(MONITOR) --scenario uniform --expect-clean --schedule-seed 7 --monitor-out $$out > /dev/null)
	$(call same-bytes,clean hotkey monitor document (warning evidence rows) identical under perturbation,\
	    results/.smoke-monitor-hotkey.json,\
	    $(MONITOR) --scenario hotkey --expect-clean --monitor-out $$out > /dev/null,\
	    $(MONITOR) --scenario hotkey --expect-clean --schedule-seed 7 --monitor-out $$out > /dev/null)
	@$(MONITOR) --scenario uniform --fault-rate 0.02 --monitor-out results/monitor-report.json | tail -n 2
	@$(PY) -m repro.tools.profile --check-coverage 90 \
	    --json results/profile-report.json \
	    --flame-out results/profile-flame.speedscope.json | tail -n 2
	@$(PY) -m repro.tools.profile --tax --num 8000 \
	    --tax-json results/profile-tax.json 2> /dev/null
	@$(PY) -c "$$TAX_GATE"
	$(call same-bytes,sim report identical under --profile,\
	    results/.smoke-profile-plain.json,\
	    $(PROFILED_BENCH) --json $$out > /dev/null,\
	    $(PROFILED_BENCH) --profile --json $$out > /dev/null 2>&1)
	@rm -f results/.smoke-*

# What CI's `checks` job runs (see .github/workflows/ci.yml); `sanitize` and
# `figures` are CI jobs of their own.
ci: check test smoke perf

# Record a request-level trace of a small p2KVS fillrandom run and print the
# measured window's Figure 6 latency attribution.  Open trace-demo.json in
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
	rm -f results/monitor-report.json
	rm -f results/profile-report.json results/profile-flame.speedscope.json \
	    results/profile-tax.json
	rm -f results/.smoke-*
	rm -rf .ab
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
