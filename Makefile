# Convenience targets for the reproduction workflow.

PY ?= python
REFS ?= 120000
# Worker processes for the parallel experiment engine: 0 = all cores,
# 1 = deterministic sequential fallback.  Output is bit-identical either way.
JOBS ?= 0

.PHONY: install test test-fast bench bench-check serve-smoke engine-smoke warm-traces replay examples clean-traces clean-results all

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Fast inner-loop run: unit/integration tests only (skips benchmarks/),
# fail-fast and quiet.
test-fast:
	$(PY) -m pytest tests/ -x -q

# Full benchmark suite, with the run archived as BENCH_<sha>.json so the
# engine canaries (benchmarks/test_engine_micro.py) can be regression-gated.
bench:
	$(PY) -m pytest benchmarks/ --benchmark-only \
	  --benchmark-json=BENCH_$$(git rev-parse --short HEAD).json

# Replay the regression canaries (engine micro-benchmarks + trace
# generation + trace store + sweep batching + serving) and gate them
# against the committed BENCH_*.json baseline (>25% slowdown on any
# canary fails).  The trace-gen, trace-store, sweep-batching,
# policy-kernel and aux files also enforce machine-independent speedup
# floors in-test (trace store: mmap >=5x over npz decode at 1M refs; aux:
# miss-event replay >=5x over the sequential wrapper at 1M refs).
bench-check:
	$(PY) -m pytest benchmarks/test_engine_micro.py benchmarks/test_trace_gen.py \
	  benchmarks/test_trace_store_bench.py \
	  benchmarks/test_service_bench.py benchmarks/test_sweep_batching_bench.py \
	  benchmarks/test_policy_kernel_bench.py \
	  benchmarks/test_aux_bench.py \
	  --benchmark-only --benchmark-json=bench-candidate.json
	$(PY) benchmarks/check_regression.py bench-candidate.json

# Boot a real `repro-cache serve` daemon as a subprocess and exercise the
# serving contract end to end: warm-cache resubmission, single-flight
# coalescing, overloaded backpressure, stats, clean shutdown.
serve-smoke:
	PYTHONPATH=src $(PY) scripts/serve_smoke.py

# Run ext-policy, ext-aux, fig8, ext-hybrid, ext-hpc and ext-patel once per
# engine, uncached, and require equal rows at full precision and
# bit-identical arrays: every vectorised fast path must reproduce the
# sequential cache models exactly.
engine-smoke:
	PYTHONPATH=src $(PY) scripts/engine_smoke.py

# Prefetch every trace the experiment suite needs, in parallel, before a
# replay — turns the cold-start cost into one concurrent generation pass.
warm-traces:
	PYTHONPATH=src $(PY) -m repro.cli trace warm --refs $(REFS) --jobs $(JOBS)

replay:
	$(PY) examples/replay_paper.py --refs $(REFS) --jobs $(JOBS) --out results_full.md

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/application_tuning.py 30000
	$(PY) examples/smt_cache_design.py
	$(PY) examples/custom_workload.py
	$(PY) examples/instruction_placement.py

# Removes traces AND the per-cell result cache nested under it.
clean-traces:
	rm -rf .trace_cache

# Drop only the memoized per-cell simulation results (keep traces).
clean-results:
	rm -rf .trace_cache/results

all: test bench replay
